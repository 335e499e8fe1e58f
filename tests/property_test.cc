// Cross-cutting property tests: invariants that must hold for arbitrary
// graphs, configurations and device counts.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "comm/comm_model.h"
#include "config/config_enum.h"
#include "core/dp_solver.h"
#include "cost/cost_model.h"
#include "models/models.h"
#include "ops/ops.h"
#include "search/baselines.h"
#include "search/mcmc.h"
#include "sim/memory.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace pase {
namespace {

// ---- Transfer-cost invariants on random configuration pairs.

class TransferPropertySweep : public ::testing::TestWithParam<u64> {};

TEST_P(TransferPropertySweep, NonNegativeAndZeroForIdenticalConfigs) {
  const Graph g = testing::random_graph(6, 3, GetParam());
  ConfigOptions copts;
  copts.max_devices = 8;
  const ConfigCache cache(g, copts);
  Rng rng(GetParam() * 31 + 7);
  const CostParams params;
  for (const Edge& e : g.edges()) {
    const auto& su = cache.at(e.src);
    const auto& sv = cache.at(e.dst);
    for (int trial = 0; trial < 20; ++trial) {
      const Config cu = su[rng.uniform(su.size())];
      const Config cv = sv[rng.uniform(sv.size())];
      const double bytes = transfer_bytes(e, cu, cv, params);
      EXPECT_GE(bytes, 0.0);
      // Aligned case: equal per-tensor-dim splits and equal degrees move
      // nothing.
      bool aligned = cu.degree() == cv.degree();
      for (size_t t = 0; aligned && t < e.shape.size(); ++t) {
        const i64 a = e.src_dims[t] >= 0 ? cu[e.src_dims[t]] : 1;
        const i64 b = e.dst_dims[t] >= 0 ? cv[e.dst_dims[t]] : 1;
        aligned = a == b;
      }
      if (aligned) {
        EXPECT_DOUBLE_EQ(bytes, 0.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransferPropertySweep,
                         ::testing::Values(21, 22, 23, 24));

// ---- Layer-cost invariants across the whole configuration space.

TEST(LayerCostProperty, FiniteAndPositiveForEveryConfig) {
  ConfigOptions copts;
  copts.max_devices = 16;
  CostParams params = CostParams::for_machine(MachineSpec::gtx1080ti(16));
  for (const auto& bench : models::paper_benchmarks()) {
    for (const Node& n : bench.graph.nodes()) {
      for (const Config& c : enumerate_node_configs(n, copts)) {
        const double cost = layer_cost(n, c, params);
        EXPECT_TRUE(std::isfinite(cost)) << bench.name << " " << n.name;
        EXPECT_GE(cost, 0.0) << bench.name << " " << n.name;
      }
    }
  }
}

// ---- Solver invariants at an unusual (non-power-of-two) device count.

TEST(SolverProperty, WorksWithNonPowerOfTwoDeviceCount) {
  const Graph g = models::alexnet();
  DpOptions opt;
  opt.config_options.max_devices = 6;  // factors stay powers of two
  opt.cost_params = CostParams::for_machine(MachineSpec::gtx1080ti(6));
  const DpResult r = find_best_strategy(g, opt);
  ASSERT_EQ(r.status, DpStatus::kOk);
  for (const Config& c : r.strategy) EXPECT_LE(c.degree(), 6);
}

TEST(SolverProperty, OptimumMonotoneInSearchSpace) {
  // A strictly larger configuration space can only lower the optimum.
  const Graph g = models::transformer();
  DpOptions small, large;
  small.config_options.max_devices = 8;
  large.config_options.max_devices = 8;
  large.config_options.powers_of_two_only = false;
  small.cost_params = large.cost_params =
      CostParams::for_machine(MachineSpec::gtx1080ti(8));
  EXPECT_LE(find_best_strategy(g, large).best_cost,
            find_best_strategy(g, small).best_cost * (1 + 1e-9));
}

// ---- MCMC with the simulator objective (FlexFlow's actual architecture).

TEST(McmcProperty, SimulatorObjectiveImprovesSimulatedStepTime) {
  const Graph g = models::alexnet();
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  auto sim = std::make_shared<Simulator>(g, m);
  ConfigOptions copts;
  copts.max_devices = 8;
  McmcOptions mo;
  mo.max_iterations = 4000;
  mo.min_iterations = 1000;
  mo.objective = [sim](const Strategy& phi) {
    return sim->simulate(phi).step_time_s;
  };
  const Strategy init = data_parallel_strategy(g, 8);
  const McmcResult r =
      mcmc_search(g, copts, CostParams::for_machine(m), init, mo);
  EXPECT_LE(r.best_cost, sim->simulate(init).step_time_s * (1 + 1e-9));
  // best_cost is in the objective's units: seconds.
  EXPECT_NEAR(r.best_cost, sim->simulate(r.best_strategy).step_time_s,
              1e-12);
}

// ---- Simulator invariants across strategies.

TEST(SimulatorProperty, AnyValidStrategySimulates) {
  const Graph g = models::inception_v3();
  const Simulator sim(g, MachineSpec::rtx2080ti(16));
  ConfigOptions copts;
  copts.max_devices = 16;
  const ConfigCache cache(g, copts);
  Rng rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    Strategy phi;
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      phi.push_back(cache.at(v)[rng.uniform(cache.at(v).size())]);
    const SimResult r = sim.simulate(phi);
    EXPECT_TRUE(std::isfinite(r.step_time_s));
    EXPECT_GT(r.step_time_s, 0.0);
    EXPECT_GE(r.step_time_s, 0.9 * r.compute_time_s / 16.0);
  }
}

TEST(SimulatorProperty, StepTimeLowerBoundedByBottleneckCompute) {
  // No strategy can beat the serial compute divided by all devices.
  const Graph g = models::alexnet();
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  const Simulator sim(g, m);
  CostParams params = CostParams::for_machine(m);
  double serial_flops = 0.0;
  for (const Node& n : g.nodes())
    serial_flops += layer_flops(n, Config::ones(n.space.rank()), params);
  const double bound = serial_flops / (8.0 * m.peak_flops);
  DpOptions opt;
  opt.config_options.max_devices = 8;
  opt.cost_params = params;
  const DpResult r = find_best_strategy(g, opt);
  EXPECT_GE(sim.simulate(r.strategy).step_time_s, bound);
}

// ---- DP optimality relative to the baseline strategy generators.

class DpBeatsBaselinesSweep : public ::testing::TestWithParam<u64> {};

TEST_P(DpBeatsBaselinesSweep, DpCostNeverWorseThanAnyBaseline) {
  // The DP optimum is taken over the full enumerated configuration space,
  // which contains every baseline's per-node configs (baselines clamp to
  // power-of-two factors within the device budget), so the DP cost must be
  // <= every baseline's cost under the same cost model.
  const i64 p = 8;
  const Graph g = testing::random_graph(7, 3, GetParam());
  DpOptions opt;
  opt.config_options.max_devices = p;
  opt.cost_params = CostParams::for_machine(MachineSpec::gtx1080ti(p));
  const DpResult r = find_best_strategy(g, opt);
  ASSERT_EQ(r.status, DpStatus::kOk);

  const CostModel cost(g, opt.cost_params);
  const struct {
    const char* name;
    Strategy phi;
  } baselines[] = {
      {"data_parallel", data_parallel_strategy(g, p)},
      {"owt", owt_strategy(g, p)},
      {"expert", expert_strategy(g, p)},
  };
  for (const auto& b : baselines) {
    EXPECT_LE(r.best_cost, cost.total_cost(b.phi) * (1 + 1e-9))
        << "seed=" << GetParam() << " baseline=" << b.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpBeatsBaselinesSweep,
                         ::testing::Values(101, 102, 103, 104));

// ---- Comm-model auto-selection dominates every forced algorithm.

TEST(CommModelProperty, AutoNeverWorseThanAnyForcedAlgorithm) {
  // kAuto prices each (collective, bytes, group) shape with the argmin over
  // the algorithm families, so its time is exactly <= each family's time.
  const MachineSpec machines[] = {MachineSpec::gtx1080ti(16),
                                  MachineSpec::rtx2080ti(16),
                                  MachineSpec::mixed_cluster(16)};
  const Collective collectives[] = {
      Collective::kAllReduce, Collective::kAllGather,
      Collective::kReduceScatter, Collective::kBroadcast,
      Collective::kAllToAll};
  const CommAlgo algos[] = {CommAlgo::kRing, CommAlgo::kTree,
                            CommAlgo::kHalvingDoubling,
                            CommAlgo::kHierarchical};
  Rng rng(2026);
  for (const MachineSpec& m : machines) {
    const CommModel auto_model(m, CommModelKind::kAuto);
    for (int trial = 0; trial < 50; ++trial) {
      const double bytes =
          static_cast<double>(1 + rng.uniform(u64{1} << 24));
      const i64 group = static_cast<i64>(2 + rng.uniform(15));
      for (const Collective c : collectives) {
        const double chosen = auto_model.collective_time(c, bytes, group);
        for (const CommAlgo a : algos) {
          EXPECT_LE(chosen, auto_model.algorithm_time(a, c, bytes, group))
              << collective_name(c) << " vs " << comm_algo_name(a)
              << " bytes=" << bytes << " group=" << group;
        }
      }
    }
  }
}

// ---- Simulated step time is monotone in link bandwidth.

TEST(SimulatorProperty, StepTimeMonotoneNonIncreasingInBandwidth) {
  // Compute time is bandwidth-independent and every comm term is
  // (latency + bytes/bw), so uniformly faster links can never slow a step.
  const Graph graphs[] = {models::alexnet(), models::transformer()};
  for (const Graph& g : graphs) {
    const Strategy phi = data_parallel_strategy(g, 8);
    double prev = std::numeric_limits<double>::infinity();
    for (const double scale : {0.25, 0.5, 1.0, 2.0, 4.0}) {
      MachineSpec m = MachineSpec::gtx1080ti(8);
      m.link_bandwidth *= scale;
      m.intra_node_bandwidth *= scale;
      m.inter_node_bandwidth *= scale;
      const Simulator sim(g, m);
      const double step = sim.simulate(phi).step_time_s;
      EXPECT_TRUE(std::isfinite(step));
      EXPECT_LE(step, prev * (1 + 1e-12)) << "scale=" << scale;
      prev = step;
    }
  }
}

// ---- Widened strategy space (--split-dims): gating, bit-identity and
// optimality. Suite name starts with "DpSolver" so the TSan stage's filter
// picks up the threaded bit-identity sweep.

// Every zoo name from src/models/zoo.cc apart from the generated
// transformer_stack_<N> family (structurally a repeat of its blocks).
const char* const kZooNames[] = {
    "alexnet",      "inception_v3", "rnnlm",
    "transformer",  "densenet",     "resnet50",
    "vgg16",        "mobilenet_v1", "gnmt",
    "mlp",          "resnet_large_p", "transformer_pipelined"};

TEST(DpSolverSplitDims, DefaultGatesEqualBuilderSplittableEverywhere) {
  // The disabled-dimension contract rests on this: with the default
  // {batch,param} gates, the per-dim mask equals the builder-declared
  // splittable flag for every node of every zoo model, so the enumerated
  // space — and therefore the DP — is bitwise the legacy one.
  const SplitDims defaults;
  for (const char* name : kZooNames) {
    const Graph g = *models::zoo_graph(name);
    for (const Node& n : g.nodes())
      for (i64 d = 0; d < n.space.rank(); ++d)
        EXPECT_EQ(dim_splittable(n, d, defaults), n.space.dim(d).splittable)
            << name << " " << n.name << " dim " << d;
  }
}

TEST(DpSolverSplitDims, DisabledDimsBitIdenticalAcrossZooAndThreads) {
  // --split-dims batch,param must reproduce the legacy solve bit for bit
  // on every zoo model, at any thread count.
  for (const char* name : kZooNames) {
    const Graph g = *models::zoo_graph(name);
    DpOptions base;
    base.config_options.max_devices = 8;
    base.cost_params = CostParams::for_machine(MachineSpec::gtx1080ti(8));
    base.num_threads = 1;
    // densenet trips the table guard; the degraded beam fallback is
    // deterministic and gated identically, so the contract covers it too.
    base.degraded_fallback = true;
    const DpResult legacy = find_best_strategy(g, base);
    ASSERT_TRUE(legacy.status == DpStatus::kOk ||
                legacy.status == DpStatus::kDegraded)
        << name;
    for (const i64 threads : {1, 4, 8}) {
      DpOptions opt = base;
      opt.config_options.split_dims = *parse_split_dims("batch,param");
      opt.num_threads = threads;
      const DpResult r = find_best_strategy(g, opt);
      ASSERT_EQ(r.status, legacy.status) << name;
      EXPECT_EQ(r.best_cost, legacy.best_cost)  // bitwise, not NEAR
          << name << " threads=" << threads;
      EXPECT_TRUE(r.strategy == legacy.strategy)
          << name << " threads=" << threads;
    }
  }
}

TEST(DpSolverSplitDims, WidenedSpaceNeverWorseOnZoo) {
  // The widened space is a strict superset of the legacy one, so the DP
  // optimum can only improve.
  for (const char* name : kZooNames) {
    const Graph g = *models::zoo_graph(name);
    DpOptions legacy_opt;
    legacy_opt.config_options.max_devices = 8;
    legacy_opt.cost_params =
        CostParams::for_machine(MachineSpec::gtx1080ti(8));
    legacy_opt.degraded_fallback = true;  // densenet trips the table guard
    DpOptions widened_opt = legacy_opt;
    widened_opt.config_options.split_dims = *parse_split_dims("all");
    const DpResult legacy = find_best_strategy(g, legacy_opt);
    const DpResult widened = find_best_strategy(g, widened_opt);
    ASSERT_TRUE(widened.status == DpStatus::kOk ||
                widened.status == DpStatus::kDegraded)
        << name;
    // The superset argument only binds exact optima; beam-degraded solves
    // (densenet) are excluded from the bound.
    if (legacy.status == DpStatus::kOk && widened.status == DpStatus::kOk) {
      EXPECT_LE(widened.best_cost, legacy.best_cost * (1 + 1e-12)) << name;
    }
  }
}

TEST(DpSolverSplitDims, WidenedSpaceNeverWorseOnRandomGraphs) {
  // FC-only random graphs expose no spatial/channel dims, so the widened
  // space degenerates to the legacy one — the bound must still hold, with
  // equality.
  for (const u64 seed : {301u, 302u, 303u}) {
    const Graph g = testing::random_graph(7, 3, seed);
    DpOptions legacy_opt;
    legacy_opt.config_options.max_devices = 8;
    legacy_opt.cost_params =
        CostParams::for_machine(MachineSpec::gtx1080ti(8));
    DpOptions widened_opt = legacy_opt;
    widened_opt.config_options.split_dims = *parse_split_dims("all");
    const DpResult legacy = find_best_strategy(g, legacy_opt);
    const DpResult widened = find_best_strategy(g, widened_opt);
    ASSERT_EQ(widened.status, DpStatus::kOk) << "seed=" << seed;
    EXPECT_EQ(widened.best_cost, legacy.best_cost) << "seed=" << seed;
  }
}

// ---- Halo-exchange pricing (spatial splits of windowed ops).

TEST(HaloCost, HaloExchangeTimeMonotoneInBytesAndGroup) {
  const MachineSpec machines[] = {MachineSpec::gtx1080ti(16),
                                  MachineSpec::mixed_cluster(16),
                                  MachineSpec::multi_tier(16)};
  const CommModelKind kinds[] = {CommModelKind::kSimple,
                                 CommModelKind::kAuto, CommModelKind::kRing};
  for (const MachineSpec& m : machines) {
    for (const CommModelKind kind : kinds) {
      const CommModel comm(m, kind);
      // Degenerate halos are free.
      EXPECT_DOUBLE_EQ(comm.halo_exchange_time(0.0, 8), 0.0);
      EXPECT_DOUBLE_EQ(comm.halo_exchange_time(1 << 20, 1), 0.0);
      for (const i64 group : {2, 4, 8, 16}) {
        double prev = 0.0;
        for (const double bytes : {1e3, 1e4, 1e5, 1e6, 1e7}) {
          const double t = comm.halo_exchange_time(bytes, group);
          EXPECT_GT(t, prev) << m.name << " group=" << group;
          prev = t;
        }
      }
      // Wider groups cross the same or slower link classes, never faster.
      for (const double bytes : {1e4, 1e6}) {
        double prev = 0.0;
        for (const i64 group : {2, 4, 8, 16}) {
          const double t = comm.halo_exchange_time(bytes, group);
          EXPECT_GE(t, prev * (1 - 1e-12)) << m.name << " bytes=" << bytes;
          prev = t;
        }
      }
    }
  }
}

TEST(HaloCost, ConvHaloCollectivesAppearOnlyWhenSplitAndMonotoneInDegree) {
  // A 3x3 conv with spatial splits allowed: dims (b, c, h, w, n, r, s).
  const Node conv =
      ops::conv2d("c", 8, 16, 32, 32, 16, 3, 3, /*allow_spatial_split=*/true);
  const CostParams params =
      CostParams::for_machine(MachineSpec::gtx1080ti(16));
  const CommModel comm(MachineSpec::gtx1080ti(16), CommModelKind::kSimple);
  auto halo_time = [&](i64 h_split) {
    Config cfg = Config::ones(conv.space.rank());
    cfg.set(2, static_cast<u16>(h_split));  // split the output height dim
    double t = 0.0;
    i64 count = 0;
    for (const CollectiveComm& c : layer_collectives(conv, cfg, params))
      if (c.kind == CollectiveComm::Kind::kHaloExchange) {
        t += comm.halo_exchange_time(c.bytes, c.group);
        ++count;
      }
    EXPECT_EQ(count, h_split > 1 ? 1 : 0) << "h_split=" << h_split;
    return t;
  };
  EXPECT_DOUBLE_EQ(halo_time(1), 0.0);  // unsplit planes exchange nothing
  // Cost is weakly monotone in the split degree: the boundary planes traded
  // with the neighbors keep their size, so deeper splits only hurt once the
  // group spills onto a slower link class.
  double prev = 0.0;
  for (const i64 d : {2, 4, 8}) {
    const double t = halo_time(d);
    EXPECT_GT(t, 0.0) << "h_split=" << d;
    EXPECT_GE(t, prev * (1 - 1e-12)) << "h_split=" << d;
    prev = t;
  }
}

// ---- Memory estimator consistency with node-level accounting.

TEST(MemoryProperty, NodeSumsBoundTheEstimate) {
  const Graph g = models::alexnet();
  const Strategy phi = owt_strategy(g, 8);
  double node_sum = 0.0;
  for (const Node& n : g.nodes())
    node_sum += node_memory_bytes(n, phi[static_cast<size_t>(n.id)]);
  const MemoryFootprint fp = estimate_memory(g, phi);
  // Node-level accounting covers params + outputs + collective buffers;
  // the full estimate additionally holds consumer-side activation shards.
  EXPECT_GE(fp.total(), fp.parameter_bytes);
  EXPECT_GT(node_sum, fp.parameter_bytes);
}

}  // namespace
}  // namespace pase
