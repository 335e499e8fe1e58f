#include <gtest/gtest.h>

#include "core/dp_solver.h"
#include "fault/fault_model.h"
#include "fault/robustness.h"
#include "models/models.h"
#include "search/baselines.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace pase {
namespace {

FaultSpec must_parse(const std::string& text) {
  const FaultSpecParseResult r = parse_fault_spec(text);
  EXPECT_TRUE(r.ok) << r.error;
  return r.spec;
}

// ---- Spec parsing.

TEST(FaultSpec, ParsesFullSpec) {
  const FaultSpec s = must_parse(
      "straggler=0:2,straggler=3:1.5,links=0.5:0.8,jitter=0.1,"
      "dropout=1e-4:200:30:2");
  ASSERT_EQ(s.stragglers.size(), 2u);
  EXPECT_EQ(s.stragglers[0].rank, 0);
  EXPECT_DOUBLE_EQ(s.stragglers[0].slowdown, 2.0);
  EXPECT_EQ(s.stragglers[1].rank, 3);
  EXPECT_DOUBLE_EQ(s.links.intra_factor, 0.5);
  EXPECT_DOUBLE_EQ(s.links.inter_factor, 0.8);
  EXPECT_DOUBLE_EQ(s.jitter_sigma, 0.1);
  EXPECT_DOUBLE_EQ(s.dropout.failures_per_step, 1e-4);
  EXPECT_DOUBLE_EQ(s.dropout.checkpoint_interval_steps, 200);
  EXPECT_DOUBLE_EQ(s.dropout.restart_s, 30);
  EXPECT_DOUBLE_EQ(s.dropout.checkpoint_write_s, 2);
  EXPECT_FALSE(s.empty());
}

TEST(FaultSpec, RoundTripsThroughToString) {
  const FaultSpec s =
      must_parse("straggler=1:3,links=0.25:1,jitter=0.2,dropout=0.001:50:10");
  const FaultSpec again = must_parse(s.to_string());
  EXPECT_EQ(again.to_string(), s.to_string());
}

TEST(FaultSpec, RejectsMalformedClauses) {
  for (const char* bad :
       {"", "straggler", "straggler=0", "straggler=x:2", "straggler=0:0.5",
        "straggler=-1:2", "links=0:1", "links=0.5:1.5", "links=0.5",
        "jitter=-1", "jitter=", "dropout=1e-4", "dropout=1e-4:0:30",
        "wobble=1", "straggler=0:2,,links=1:1"}) {
    const FaultSpecParseResult r = parse_fault_spec(bad);
    EXPECT_FALSE(r.ok) << "accepted: " << bad;
    EXPECT_FALSE(r.error.empty()) << bad;
  }
}

TEST(FaultSpec, ValidateChecksRanks) {
  const FaultSpec s = must_parse("straggler=8:2");
  EXPECT_FALSE(validate_fault_spec(s, 8).empty());
  EXPECT_TRUE(validate_fault_spec(s, 9).empty());
  EXPECT_TRUE(validate_fault_spec(FaultSpec{}, 1).empty());
}

// ---- Deterministic machine perturbation.

TEST(FaultModel, PerturbAppliesStragglersAndLinks) {
  const MachineSpec healthy = MachineSpec::gtx1080ti(8);
  const FaultModel model(must_parse("straggler=0:2,links=0.5:0.8"), 1);
  const MachineSpec m = model.perturb(healthy);
  ASSERT_EQ(m.device_flops.size(), 8u);
  EXPECT_DOUBLE_EQ(m.device_flops[0], healthy.peak_flops / 2.0);
  for (size_t d = 1; d < 8; ++d)
    EXPECT_DOUBLE_EQ(m.device_flops[d], healthy.peak_flops);
  EXPECT_DOUBLE_EQ(m.intra_bw(), healthy.intra_bw() * 0.5);
  EXPECT_DOUBLE_EQ(m.inter_bw(), healthy.inter_bw() * 0.8);
  // The analytical-model B follows the weakest scaled link.
  EXPECT_DOUBLE_EQ(m.link_bandwidth, std::min(m.intra_bw(), m.inter_bw()));
  // Weakest-device costing (paper §V rule) sees the straggler.
  EXPECT_DOUBLE_EQ(m.weakest_flops(), healthy.peak_flops / 2.0);
}

TEST(FaultModel, PerturbIsDeterministic) {
  const MachineSpec healthy = MachineSpec::rtx2080ti(16);
  const FaultSpec spec = must_parse("straggler=5:1.7,links=0.9:0.6");
  const MachineSpec a = FaultModel(spec, 1).perturb(healthy);
  const MachineSpec b = FaultModel(spec, 99).perturb(healthy);  // seed-free
  EXPECT_EQ(a.device_flops, b.device_flops);
  EXPECT_DOUBLE_EQ(a.intra_node_bandwidth, b.intra_node_bandwidth);
  EXPECT_DOUBLE_EQ(a.inter_node_bandwidth, b.inter_node_bandwidth);
}

// ---- Seeded simulation determinism (satellite requirement: same seed +
// same FaultSpec => bit-identical SimResult).

TEST(FaultModel, SameSeedGivesBitIdenticalSimResults) {
  const Graph g = models::alexnet();
  const MachineSpec healthy = MachineSpec::gtx1080ti(8);
  const Strategy phi = data_parallel_strategy(g, 8);
  const FaultSpec spec = must_parse("straggler=0:2,jitter=0.3");

  const FaultModel model_a(spec, 42);
  const FaultModel model_b(spec, 42);  // independently constructed
  const Simulator sim(g, model_a.perturb(healthy));
  for (u64 scenario : {0ull, 1ull, 7ull}) {
    const SimPerturbation pa = model_a.scenario_perturbation(scenario);
    const SimPerturbation pb = model_b.scenario_perturbation(scenario);
    const SimResult ra = sim.simulate(phi, nullptr, &pa);
    const SimResult rb = sim.simulate(phi, nullptr, &pb);
    EXPECT_EQ(ra.step_time_s, rb.step_time_s);  // exact, not NEAR
    EXPECT_EQ(ra.compute_time_s, rb.compute_time_s);
    EXPECT_EQ(ra.comm_time_s, rb.comm_time_s);
  }
}

TEST(FaultModel, RobustnessReportIsDeterministic) {
  const Graph g = models::alexnet();
  const MachineSpec healthy = MachineSpec::gtx1080ti(8);
  const Strategy phi = expert_strategy(g, 8);
  const FaultModel model(must_parse("links=0.7:0.7,jitter=0.2"), 7);
  const RobustnessReport a = evaluate_robustness(g, healthy, phi, model, 8);
  const RobustnessReport b = evaluate_robustness(g, healthy, phi, model, 8);
  EXPECT_EQ(a.mean_step_time_s, b.mean_step_time_s);
  EXPECT_EQ(a.worst_step_time_s, b.worst_step_time_s);
  EXPECT_EQ(a.stddev_s, b.stddev_s);
}

TEST(FaultModel, DifferentSeedsGiveDifferentJitter) {
  const Graph g = models::alexnet();
  const MachineSpec healthy = MachineSpec::gtx1080ti(8);
  const Strategy phi = data_parallel_strategy(g, 8);
  const FaultSpec spec = must_parse("jitter=0.3");
  const RobustnessReport a =
      evaluate_robustness(g, healthy, phi, FaultModel(spec, 1), 4);
  const RobustnessReport b =
      evaluate_robustness(g, healthy, phi, FaultModel(spec, 2), 4);
  EXPECT_NE(a.mean_step_time_s, b.mean_step_time_s);
}

// ---- Straggler monotonicity (satellite requirement): slowing rank 0
// strictly increases step time for any strategy occupying that rank —
// under the aligned prefix placement, that is every strategy.

TEST(FaultModel, StragglerOnRankZeroStrictlyIncreasesStepTime) {
  const Graph g = models::alexnet();
  const MachineSpec healthy = MachineSpec::gtx1080ti(8);
  const FaultModel model(must_parse("straggler=0:2"), 1);
  const MachineSpec degraded = model.perturb(healthy);

  std::vector<Strategy> strategies = {data_parallel_strategy(g, 8),
                                      expert_strategy(g, 8)};
  Strategy serial;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    serial.push_back(Config::ones(g.node(v).space.rank()));
  strategies.push_back(serial);

  const Simulator healthy_sim(g, healthy);
  const Simulator degraded_sim(g, degraded);
  for (const Strategy& phi : strategies) {
    const double before = healthy_sim.simulate(phi).step_time_s;
    const double after = degraded_sim.simulate(phi).step_time_s;
    EXPECT_GT(after, before);
  }
}

// ---- Jitter-free scenarios collapse onto the deterministic degraded run.

TEST(FaultModel, NoJitterScenariosMatchDegradedSimulation) {
  const Graph g = testing::fig2_toy_graph();
  const MachineSpec healthy = MachineSpec::gtx1080ti(4);
  Strategy phi = data_parallel_strategy(g, 4);
  const FaultModel model(must_parse("straggler=1:3"), 5);
  const RobustnessReport rep = evaluate_robustness(g, healthy, phi, model, 6);
  EXPECT_EQ(rep.mean_step_time_s, rep.degraded.step_time_s);
  EXPECT_EQ(rep.worst_step_time_s, rep.degraded.step_time_s);
  EXPECT_EQ(rep.stddev_s, 0.0);
  EXPECT_EQ(rep.checkpoint_overhead_s, 0.0);
}

// ---- Checkpoint/restart cost model.

TEST(FaultModel, CheckpointOverheadFormula) {
  FaultSpec spec;
  spec.dropout.failures_per_step = 1e-3;
  spec.dropout.checkpoint_interval_steps = 200;
  spec.dropout.restart_s = 30;
  spec.dropout.checkpoint_write_s = 2;
  const FaultModel model(spec, 1);
  // write/interval + rate * (restart + interval/2 * step)
  //  = 2/200 + 1e-3 * (30 + 100 * 0.1) = 0.01 + 0.04
  EXPECT_DOUBLE_EQ(model.checkpoint_overhead_s(0.1), 0.05);
  // No dropout => no overhead.
  EXPECT_EQ(FaultModel(FaultSpec{}, 1).checkpoint_overhead_s(0.1), 0.0);
  // More frequent checkpoints trade write cost against rework.
  FaultSpec frequent = spec;
  frequent.dropout.checkpoint_interval_steps = 20;
  EXPECT_LT(FaultModel(frequent, 1).checkpoint_overhead_s(10.0),
            model.checkpoint_overhead_s(10.0));
}

TEST(FaultModel, DropoutOverheadRaisesExpectedStepTime) {
  const Graph g = testing::fig2_toy_graph();
  const MachineSpec healthy = MachineSpec::gtx1080ti(4);
  const Strategy phi = data_parallel_strategy(g, 4);
  const FaultModel none(FaultSpec{}, 1);
  const FaultModel drop(must_parse("dropout=0.001:100:30"), 1);
  const RobustnessReport a = evaluate_robustness(g, healthy, phi, none, 2);
  const RobustnessReport b = evaluate_robustness(g, healthy, phi, drop, 2);
  EXPECT_GT(b.mean_step_time_s, a.mean_step_time_s);
  EXPECT_GT(b.checkpoint_overhead_s, 0.0);
}

// ---- Mean-one jitter keeps the expectation near the degraded time.

TEST(FaultModel, JitterIsCenteredOnDegradedTime) {
  const Graph g = models::alexnet();
  const MachineSpec healthy = MachineSpec::gtx1080ti(8);
  const Strategy phi = data_parallel_strategy(g, 8);
  const FaultModel model(must_parse("jitter=0.1"), 3);
  const RobustnessReport rep =
      evaluate_robustness(g, healthy, phi, model, 64);
  EXPECT_GT(rep.stddev_s, 0.0);
  EXPECT_NEAR(rep.mean_step_time_s, rep.degraded.step_time_s,
              0.1 * rep.degraded.step_time_s);
}

// ---- Degraded-machine re-solve.

TEST(FaultModel, ResolveAdaptsToDegradedMachineViaDeltaReSolve) {
  const Graph g = models::alexnet();
  const MachineSpec healthy = MachineSpec::gtx1080ti(8);
  DpOptions options;
  options.config_options.max_devices = 8;
  options.cost_params = CostParams::for_machine(healthy);
  const DpResult best = find_best_strategy(g, options);
  ASSERT_EQ(best.status, DpStatus::kOk);

  const FaultModel model(must_parse("links=0.25:0.5,straggler=0:2"), 5);
  const RobustnessReport rep = evaluate_robustness_with_resolve(
      g, healthy, best.strategy, model, options, 8);
  ASSERT_TRUE(rep.resolved);
  EXPECT_EQ(rep.resolve_status, DpStatus::kOk);

  // The adapted strategy must be exactly what a direct solve against the
  // degraded machine finds.
  DpOptions degraded_options = options;
  degraded_options.cost_params =
      CostParams::for_machine(model.perturb(healthy));
  const DpResult direct = find_best_strategy(g, degraded_options);
  EXPECT_EQ(rep.resolve_strategy, direct.strategy);

  // Adapting can only help (or tie): gain is a ratio >= ~1.
  EXPECT_GT(rep.adaptation_gain(), 0.0);
  EXPECT_GE(rep.adaptation_gain(), 0.999);
}

TEST(FaultModel, ResolveWorksWithoutContext) {
  const Graph g = models::alexnet();
  const MachineSpec healthy = MachineSpec::gtx1080ti(8);
  DpOptions options;
  options.config_options.max_devices = 8;
  options.cost_params = CostParams::for_machine(healthy);
  const DpResult best = find_best_strategy(g, options);
  const FaultModel model(must_parse("links=0.5:1"), 5);
  const RobustnessReport rep = evaluate_robustness_with_resolve(
      g, healthy, best.strategy, model, options, 8);
  ASSERT_TRUE(rep.resolved);
  EXPECT_EQ(rep.resolve_status, DpStatus::kOk);
}

}  // namespace
}  // namespace pase
