// Heterogeneous-cluster support (paper §V + src/hetero): the legacy
// analytical model prices compute at the weakest device; the first-class
// hetero model prices uneven proportional shards and per-group bottleneck
// links, degenerating bit-identically to the legacy path on uniform
// machines.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/dp_solver.h"
#include "fault/fault_model.h"
#include "fault/robustness.h"
#include "hetero/hetero.h"
#include "hetero/machine_file.h"
#include "models/models.h"
#include "search/baselines.h"
#include "sim/simulator.h"

namespace pase {
namespace {

TEST(Heterogeneous, HomogeneousMachineIsUnchanged) {
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  EXPECT_DOUBLE_EQ(m.weakest_flops(), m.peak_flops);
  EXPECT_DOUBLE_EQ(m.prefix_weakest_flops(4), m.peak_flops);
  EXPECT_DOUBLE_EQ(m.flops_of(7), m.peak_flops);
}

TEST(Heterogeneous, MixedClusterAccessors) {
  const MachineSpec m = MachineSpec::mixed_cluster(8, 0.5);
  EXPECT_DOUBLE_EQ(m.flops_of(0), m.peak_flops);
  EXPECT_DOUBLE_EQ(m.flops_of(7), m.peak_flops * 0.5);
  EXPECT_DOUBLE_EQ(m.weakest_flops(), m.peak_flops * 0.5);
  // The fast half occupies the rank prefix.
  EXPECT_DOUBLE_EQ(m.prefix_weakest_flops(4), m.peak_flops);
  EXPECT_DOUBLE_EQ(m.prefix_weakest_flops(8), m.peak_flops * 0.5);
}

TEST(Heterogeneous, CostParamsUseWeakestDevice) {
  const MachineSpec m = MachineSpec::mixed_cluster(8, 0.5);
  const CostParams p = CostParams::for_machine(m);
  EXPECT_DOUBLE_EQ(
      p.r, m.peak_flops * 0.5 / m.link_bandwidth * m.compute_efficiency);
}

TEST(Heterogeneous, SimulatorSlowsDownOnWidePrefixes) {
  // A layer using only the fast prefix runs at full speed; one spanning
  // the slow half is bottlenecked by it.
  const Graph g = models::mlp(64, {256, 256});
  const MachineSpec fast = MachineSpec::gtx1080ti(8);
  const MachineSpec mixed = MachineSpec::mixed_cluster(8, 0.5);
  const Strategy wide = data_parallel_strategy(g, 8);
  const Strategy narrow = data_parallel_strategy(g, 4);
  // Compare pure compute time (the step may be communication-dominated).
  const double slowdown_wide =
      Simulator(g, mixed).simulate(wide).compute_time_s /
      Simulator(g, fast).simulate(wide).compute_time_s;
  const double slowdown_narrow =
      Simulator(g, mixed).simulate(narrow).compute_time_s /
      Simulator(g, fast).simulate(narrow).compute_time_s;
  EXPECT_NEAR(slowdown_wide, 2.0, 1e-9);    // hits the 0.5x devices
  EXPECT_NEAR(slowdown_narrow, 1.0, 1e-9);  // stays on the fast prefix
}

TEST(Heterogeneous, SolverStillBeatsDataParallelism) {
  const MachineSpec m = MachineSpec::mixed_cluster(16, 0.6);
  for (const auto& bench : models::paper_benchmarks()) {
    DpOptions opt;
    opt.config_options.max_devices = 16;
    opt.cost_params = CostParams::for_machine(m);
    const DpResult r = find_best_strategy(bench.graph, opt);
    ASSERT_EQ(r.status, DpStatus::kOk) << bench.name;
    const CostModel cm(bench.graph, opt.cost_params);
    EXPECT_LE(r.best_cost,
              cm.total_cost(data_parallel_strategy(bench.graph, 16)) *
                  (1 + 1e-9))
        << bench.name;
  }
}

TEST(Heterogeneous, FlopsOfChecksBounds) {
  const MachineSpec m = MachineSpec::mixed_cluster(4);
  EXPECT_DOUBLE_EQ(m.flops_of(3), m.peak_flops * 0.6);
}

// --- HeteroModel: placement, tables, degeneration -------------------------

TEST(HeteroModel, PlacementIsFastestFirstWithRankTiebreak) {
  MachineSpec m = MachineSpec::gtx1080ti(4);
  m.device_flops = {1e12, 3e12, 2e12, 3e12};  // interleaved speeds
  const HeteroModel h(m);
  EXPECT_FALSE(h.uniform());
  // Descending FLOPS, ties broken by ascending physical rank.
  EXPECT_EQ(h.placement(), (std::vector<i64>{1, 3, 2, 0}));
  EXPECT_DOUBLE_EQ(h.effective_flops(1), 3e12);
  EXPECT_DOUBLE_EQ(h.effective_flops(2), 6e12);
  EXPECT_DOUBLE_EQ(h.effective_flops(4), 9e12);
  // Physical extent of the fastest-g prefix (max physical rank + 1).
  EXPECT_EQ(h.placed_span(1), 2);
  EXPECT_EQ(h.placed_span(2), 4);
  EXPECT_EQ(h.placed_span(4), 4);
}

TEST(HeteroModel, ComputeScaleIsProportionalShardSpeedup) {
  const MachineSpec m = MachineSpec::mixed_cluster(8, 0.5);
  const HeteroModel h(m);
  const double fast = m.peak_flops, slow = 0.5 * m.peak_flops;
  // A degree-4 layer lives entirely on the fast prefix: proportional
  // shards run at fast speed, i.e. half the weakest-device time.
  EXPECT_DOUBLE_EQ(h.compute_scale(4), 4 * slow / (4 * fast));
  // Spanning the whole pod mixes both speeds.
  EXPECT_DOUBLE_EQ(h.compute_scale(8), 8 * slow / (4 * fast + 4 * slow));
  for (i64 g = 1; g <= 8; ++g) EXPECT_LE(h.compute_scale(g), 1.0 + 1e-12);
}

TEST(HeteroModel, GroupBandwidthFollowsLinkTiers) {
  const MachineSpec m = MachineSpec::multi_tier(32);
  const HeteroModel h(m);
  EXPECT_FALSE(h.uniform());
  EXPECT_DOUBLE_EQ(h.group_bandwidth(4), 12e9);   // PCIe island
  EXPECT_DOUBLE_EQ(h.group_bandwidth(8), 12e9);
  EXPECT_DOUBLE_EQ(h.group_bandwidth(16), 7e9);   // IB rack
  EXPECT_DOUBLE_EQ(h.group_bandwidth(32), 3e9);   // pod spine
  // group_r never exceeds the legacy weakest-link ratio.
  const CostParams legacy = CostParams::for_machine(m);
  for (i64 g = 1; g <= 32; ++g)
    EXPECT_LE(h.group_r(g), legacy.r * (1 + 1e-12)) << "group " << g;
}

TEST(HeteroModel, UniformMachineInstallsNoTables) {
  for (const MachineSpec& m :
       {MachineSpec::gtx1080ti(8), MachineSpec::rtx2080ti(16)}) {
    EXPECT_TRUE(HeteroModel(m).uniform()) << m.name;
    const CostParams hetero = hetero_cost_params(m);
    const CostParams legacy = CostParams::for_machine(m);
    EXPECT_FALSE(hetero.heterogeneity_aware()) << m.name;
    EXPECT_EQ(hetero.r, legacy.r) << m.name;
    EXPECT_EQ(hetero.gradient_comm_discount, legacy.gradient_comm_discount)
        << m.name;
  }
  EXPECT_FALSE(HeteroModel(MachineSpec::mixed_pod(8)).uniform());
  EXPECT_FALSE(HeteroModel(MachineSpec::multi_tier(16)).uniform());
}

TEST(HeteroModel, SignatureNamesMachineAndHeterogeneity) {
  EXPECT_EQ(machine_signature(MachineSpec::gtx1080ti(8)), "1080Ti/p8");
  EXPECT_EQ(machine_signature(MachineSpec::mixed_pod(16)),
            "MixedPod/p16/het");
  EXPECT_EQ(machine_signature(MachineSpec::multi_tier(32)),
            "MultiTier/p32/het");
}

TEST(HeteroModel, MixedPodTierSpansAreStrictlyIncreasingAtAnySize) {
  for (const i64 p : {4, 8, 16, 32}) {
    const MachineSpec m = MachineSpec::mixed_pod(p);
    i64 prev = 0;
    for (const LinkTier& t : m.link_tiers) {
      EXPECT_GT(t.span, prev) << "mixed_pod(" << p << ")";
      prev = t.span;
    }
    EXPECT_GE(m.link_tiers.back().span, p);
  }
}

// --- Degenerate-uniform contract over the whole zoo -----------------------

const std::vector<std::string>& zoo_names() {
  static const std::vector<std::string> names = {
      "alexnet", "inception_v3", "rnnlm",        "transformer", "densenet",
      "resnet50", "vgg16",       "mobilenet_v1", "gnmt",        "mlp"};
  return names;
}

// A machine-spec JSON spelling of the 1080Ti preset. Parsing it must
// reproduce MachineSpec::gtx1080ti bit-identically (strtod and the C++
// literal round the same decimal to the same double).
constexpr char kUniform1080TiSpec[] = R"({
  "name": "1080Ti",
  "devices": 8,
  "devices_per_node": 8,
  "peak_flops": 11.3e12,
  "intra_node_bandwidth": 12e9,
  "inter_node_bandwidth": 7e9,
  "link_bandwidth": 7e9,
  "gradient_comm_discount": 0.15
})";

TEST(HeteroDegenerate, UniformSpecReproducesLegacyAcrossZooAndThreads) {
  MachineSpec spec;
  std::string error;
  ASSERT_TRUE(parse_machine_spec(kUniform1080TiSpec, &spec, &error)) << error;
  ASSERT_TRUE(HeteroModel(spec).uniform());

  const MachineSpec legacy_machine = MachineSpec::gtx1080ti(8);
  for (const std::string& name : zoo_names()) {
    auto graph = models::zoo_graph(name);
    ASSERT_TRUE(graph.has_value()) << name;

    DpOptions legacy;
    legacy.config_options.max_devices = 8;
    legacy.cost_params = CostParams::for_machine(legacy_machine);
    legacy.num_threads = 1;
    // densenet trips the table guard; the degraded beam fallback is
    // deterministic too, so the bit-identity contract covers it as well.
    legacy.degraded_fallback = true;
    const DpResult want = find_best_strategy(*graph, legacy);
    ASSERT_TRUE(want.status == DpStatus::kOk ||
                want.status == DpStatus::kDegraded)
        << name;

    for (const i64 threads : {1, 4, 8}) {
      DpOptions hetero = legacy;
      hetero.cost_params = hetero_cost_params(spec);
      hetero.num_threads = threads;
      const DpResult got = find_best_strategy(*graph, hetero);
      ASSERT_EQ(got.status, want.status) << name;
      EXPECT_EQ(got.best_cost, want.best_cost)
          << name << " at " << threads << " threads";
      EXPECT_TRUE(got.strategy == want.strategy)
          << name << " at " << threads << " threads";
    }
  }
}

// --- Property: heterogeneity-aware pricing never exceeds the legacy
// weakest-device model (term-by-term compute_scale <= 1, group_r <= r) ----

TEST(HeteroProperty, HeteroCostAtMostHomogWeakestOnEveryZooModel) {
  const MachineSpec m = MachineSpec::mixed_pod(8);
  const CostParams hetero = hetero_cost_params(m);
  const CostParams legacy = CostParams::for_machine(m);
  for (const std::string& name : zoo_names()) {
    auto graph = models::zoo_graph(name);
    ASSERT_TRUE(graph.has_value()) << name;
    const CostModel hetero_cm(*graph, hetero);
    const CostModel legacy_cm(*graph, legacy);
    const Strategy dp = data_parallel_strategy(*graph, m.num_devices);
    EXPECT_LE(hetero_cm.total_cost(dp),
              legacy_cm.total_cost(dp) * (1 + 1e-12))
        << name;

    DpOptions opt;
    opt.config_options.max_devices = m.num_devices;
    opt.cost_params = hetero;
    opt.degraded_fallback = true;  // densenet trips the table guard
    const DpResult r = find_best_strategy(*graph, opt);
    ASSERT_TRUE(r.status == DpStatus::kOk || r.status == DpStatus::kDegraded)
        << name;
    EXPECT_LE(hetero_cm.total_cost(r.strategy),
              legacy_cm.total_cost(r.strategy) * (1 + 1e-12))
        << name;
  }
}

// --- Fault <-> hetero composition: a straggler-degraded cluster IS a
// heterogeneous machine, and both paths search it identically --------------

TEST(HeteroFault, ResolveEqualsPlainSolveOnEquivalentHeteroMachine) {
  const Graph graph = models::alexnet();
  const MachineSpec healthy = MachineSpec::gtx1080ti(8);

  const FaultSpecParseResult parsed =
      parse_fault_spec("straggler=2:3,links=0.8:0.5");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const FaultModel fault_model(parsed.spec, /*seed=*/1);

  DpOptions options;
  options.config_options.max_devices = 8;
  options.cost_params = CostParams::for_machine(healthy);
  const DpResult baseline = find_best_strategy(graph, options);
  ASSERT_EQ(baseline.status, DpStatus::kOk);

  const RobustnessReport report = evaluate_robustness_with_resolve(
      graph, healthy, baseline.strategy, fault_model, options,
      /*num_scenarios=*/4, CommModelKind::kSimple);
  ASSERT_TRUE(report.resolved);
  ASSERT_EQ(report.resolve_status, DpStatus::kOk);

  // The same degraded machine, searched directly through the hetero path.
  const MachineSpec degraded = fault_model.perturb(healthy);
  EXPECT_FALSE(HeteroModel(degraded).uniform());
  DpOptions direct = options;
  direct.cost_params = hetero_cost_params(degraded, CommModelKind::kSimple);
  const DpResult plain = find_best_strategy(graph, direct);
  ASSERT_EQ(plain.status, DpStatus::kOk);
  EXPECT_TRUE(report.resolve_strategy == plain.strategy);
  EXPECT_EQ(Simulator(graph, degraded, CommModelKind::kSimple)
                .simulate(plain.strategy)
                .step_time_s,
            report.resolve_degraded.step_time_s);
}

TEST(HeteroFault, UniformDegradationKeepsLegacyParamsBitIdentically) {
  // A fault that slows every link equally leaves the spec uniform, so the
  // resolve path's hetero_cost_params is the legacy for_machine verbatim.
  const MachineSpec healthy = MachineSpec::gtx1080ti(4);
  const FaultSpecParseResult parsed = parse_fault_spec("links=0.5:0.5");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const MachineSpec degraded =
      FaultModel(parsed.spec, 1).perturb(healthy);
  EXPECT_TRUE(HeteroModel(degraded).uniform());
  const CostParams hetero = hetero_cost_params(degraded);
  const CostParams legacy = CostParams::for_machine(degraded);
  EXPECT_FALSE(hetero.heterogeneity_aware());
  EXPECT_EQ(hetero.r, legacy.r);
}

// --- Machine-spec file parser ---------------------------------------------

MachineSpec parse_ok(const std::string& text) {
  MachineSpec m;
  std::string error;
  EXPECT_TRUE(parse_machine_spec(text, &m, &error)) << error;
  return m;
}

std::string parse_error(const std::string& text) {
  MachineSpec m;
  std::string error;
  EXPECT_FALSE(parse_machine_spec(text, &m, &error));
  return error;
}

TEST(MachineFile, ParsesHeterogeneousSpec) {
  const MachineSpec m = parse_ok(R"({
    "name": "Pod",
    "devices": 4,
    "devices_per_node": 2,
    "device_flops": [2e12, 2e12, 1e12, 1e12],
    "link_tiers": [{"span": 2, "bandwidth": 12e9},
                   {"span": 4, "bandwidth": 3e9, "latency_s": 2e-5}],
    "link_latency_s": 5e-6
  })");
  EXPECT_EQ(m.name, "Pod");
  EXPECT_EQ(m.num_devices, 4);
  EXPECT_DOUBLE_EQ(m.peak_flops, 2e12);  // defaults to the fastest device
  EXPECT_DOUBLE_EQ(m.link_bandwidth, 3e9);  // weakest link anywhere
  ASSERT_EQ(m.link_tiers.size(), 2u);
  EXPECT_DOUBLE_EQ(m.link_tiers[0].latency_s, 5e-6);  // default latency
  EXPECT_DOUBLE_EQ(m.link_tiers[1].latency_s, 2e-5);
  EXPECT_FALSE(HeteroModel(m).uniform());
}

TEST(MachineFile, RejectsMalformedSpecs) {
  EXPECT_NE(parse_error("not json"), "");
  EXPECT_NE(parse_error("[1,2]").find("top level"), std::string::npos);
  EXPECT_NE(parse_error(R"({"peak_flops": 1e12, "link_bandwidth": 1e9})")
                .find("\"devices\" is required"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"devices": 2, "link_bandwidth": 1e9})")
                .find("\"peak_flops\" or \"device_flops\""),
            std::string::npos);
  EXPECT_NE(parse_error(
                R"({"devices": 2, "device_flops": [1e12, -1.0],
                    "link_bandwidth": 1e9})")
                .find("must be a positive number"),
            std::string::npos);
  EXPECT_NE(parse_error(
                R"({"devices": 4, "device_flops": [1e12, 1e12],
                    "link_bandwidth": 1e9})")
                .find("2 entries but \"devices\" is 4"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"devices": 2, "peak_flops": 1e12})")
                .find("no link given"),
            std::string::npos);
  EXPECT_NE(parse_error(
                R"({"devices": 2, "peak_flops": 1e12,
                    "link_bandwidth": 1e9, "warp_drive": 11})")
                .find("unknown key \"warp_drive\""),
            std::string::npos);
  // Tier spans must strictly increase and cover the machine.
  EXPECT_NE(parse_error(
                R"({"devices": 4, "peak_flops": 1e12, "link_tiers":
                    [{"span": 2, "bandwidth": 1e9},
                     {"span": 2, "bandwidth": 1e9}]})")
                .find("strictly increasing"),
            std::string::npos);
  EXPECT_NE(parse_error(
                R"({"devices": 8, "peak_flops": 1e12, "link_tiers":
                    [{"span": 2, "bandwidth": 1e9}]})")
                .find("cover only 2 of 8"),
            std::string::npos);
}

TEST(MachineFile, CorpusFilesBehaveAsDocumented) {
  const std::string corpus = std::string(PASE_SOURCE_DIR) + "/tests/corpus/";
  MachineSpec m;
  std::string error;
  EXPECT_TRUE(load_machine_spec(corpus + "machine_valid.json", &m, &error))
      << error;
  EXPECT_EQ(m.num_devices, 4);
  EXPECT_FALSE(HeteroModel(m).uniform());
  for (const char* f : {"machine_negative_flops.json",
                        "machine_missing_link.json",
                        "machine_count_mismatch.json"}) {
    EXPECT_FALSE(load_machine_spec(corpus + f, &m, &error)) << f;
    EXPECT_NE(error, "") << f;
  }
  EXPECT_FALSE(load_machine_spec(corpus + "no_such_machine.json", &m, &error));
  EXPECT_NE(error.find("cannot read"), std::string::npos);
}

// --- Hetero-aware search end to end ---------------------------------------

TEST(HeteroSearch, DeterministicAcrossThreadCountsOnMixedPod) {
  const MachineSpec m = MachineSpec::mixed_pod(16);
  const Graph graph = models::alexnet();
  DpOptions opt;
  opt.config_options.max_devices = m.num_devices;
  opt.cost_params = hetero_cost_params(m);
  opt.num_threads = 1;
  const DpResult want = find_best_strategy(graph, opt);
  ASSERT_EQ(want.status, DpStatus::kOk);
  for (const i64 threads : {4, 8}) {
    DpOptions o = opt;
    o.num_threads = threads;
    const DpResult got = find_best_strategy(graph, o);
    ASSERT_EQ(got.status, DpStatus::kOk);
    EXPECT_EQ(got.best_cost, want.best_cost) << threads << " threads";
    EXPECT_TRUE(got.strategy == want.strategy) << threads << " threads";
  }
}

TEST(HeteroSearch, HeteroAwareSimulatorUsesEffectiveFlops) {
  // Under proportional shards a fast-prefix layer beats the weakest-device
  // rule: the hetero-aware simulator must price degree-4 compute on the
  // fast half at fast speed.
  const Graph g = models::mlp(64, {256, 256});
  const MachineSpec mixed = MachineSpec::mixed_cluster(8, 0.5);
  const Strategy narrow = data_parallel_strategy(g, 4);
  const double legacy_s =
      Simulator(g, mixed, CommModelKind::kSimple, false)
          .simulate(narrow)
          .compute_time_s;
  const double hetero_s =
      Simulator(g, mixed, CommModelKind::kSimple, true)
          .simulate(narrow)
          .compute_time_s;
  // The fast prefix has uniform speed, so proportional == even shards.
  EXPECT_NEAR(hetero_s, legacy_s, legacy_s * 1e-12);
  // Spanning both halves: proportional shards finish in W/sum(f), faster
  // than the weakest-device rule's (W/g)/f_weakest.
  const Strategy wide = data_parallel_strategy(g, 8);
  const double legacy_wide =
      Simulator(g, mixed, CommModelKind::kSimple, false)
          .simulate(wide)
          .compute_time_s;
  const double hetero_wide =
      Simulator(g, mixed, CommModelKind::kSimple, true)
          .simulate(wide)
          .compute_time_s;
  EXPECT_LT(hetero_wide, legacy_wide);
  // ratio = (W / sum f) / ((W/8) / f_weakest) = 8 * 0.5F / (4F + 4*0.5F).
  EXPECT_NEAR(hetero_wide / legacy_wide, 8 * 0.5 / (4.0 + 4 * 0.5), 1e-9);
}

}  // namespace
}  // namespace pase
