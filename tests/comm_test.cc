#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "comm/comm_model.h"
#include "core/dp_solver.h"
#include "cost/cost_model.h"
#include "models/models.h"
#include "search/baselines.h"
#include "sim/simulator.h"

namespace pase {
namespace {

const Collective kCollectives[] = {
    Collective::kAllReduce, Collective::kAllGather,
    Collective::kReduceScatter, Collective::kBroadcast,
    Collective::kAllToAll};

const CommAlgo kAlgos[] = {CommAlgo::kRing, CommAlgo::kTree,
                           CommAlgo::kHalvingDoubling,
                           CommAlgo::kHierarchical};

TEST(CommModel, ParseKindRoundTrips) {
  for (CommModelKind k :
       {CommModelKind::kSimple, CommModelKind::kAuto, CommModelKind::kRing,
        CommModelKind::kTree, CommModelKind::kHalvingDoubling,
        CommModelKind::kHierarchical}) {
    const auto parsed = parse_comm_model_kind(comm_model_kind_name(k));
    ASSERT_TRUE(parsed.has_value()) << comm_model_kind_name(k);
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(parse_comm_model_kind("warp").has_value());
  EXPECT_FALSE(parse_comm_model_kind("").has_value());
}

TEST(CommModel, DegenerateShapesAreFree) {
  const CommModel cm(MachineSpec::gtx1080ti(16), CommModelKind::kAuto);
  for (Collective c : kCollectives) {
    EXPECT_EQ(cm.collective_time(c, 0.0, 16), 0.0);
    EXPECT_EQ(cm.collective_time(c, 1 << 20, 1), 0.0);
    for (CommAlgo a : kAlgos) {
      EXPECT_EQ(cm.algorithm_time(a, c, 0.0, 16), 0.0);
      EXPECT_EQ(cm.algorithm_time(a, c, 1 << 20, 1), 0.0);
    }
  }
  EXPECT_EQ(cm.point_to_point_time(0.0, 4), 0.0);
}

TEST(CommModel, CostMonotoneInBytes) {
  const CommModel cm(MachineSpec::gtx1080ti(64), CommModelKind::kAuto);
  for (Collective c : kCollectives) {
    for (CommAlgo a : kAlgos) {
      for (i64 g : {2LL, 4LL, 8LL, 16LL, 64LL}) {
        double prev = 0.0;
        for (double n = 1024.0; n <= 64.0 * (1 << 20); n *= 2.0) {
          const double t = cm.algorithm_time(a, c, n, g);
          EXPECT_GE(t, prev) << comm_algo_name(a) << " "
                             << collective_name(c) << " g=" << g
                             << " n=" << n;
          prev = t;
        }
      }
    }
  }
}

TEST(CommModel, CostMonotoneInBandwidth) {
  const MachineSpec healthy = MachineSpec::gtx1080ti(64);
  MachineSpec slow = healthy;
  slow.scale_links(0.5, 0.5);
  const CommModel fast_cm(healthy, CommModelKind::kAuto);
  const CommModel slow_cm(slow, CommModelKind::kAuto);
  for (Collective c : kCollectives) {
    for (CommAlgo a : kAlgos) {
      for (i64 g : {4LL, 8LL, 32LL, 64LL}) {
        const double n = 4.0 * (1 << 20);
        EXPECT_GE(slow_cm.algorithm_time(a, c, n, g),
                  fast_cm.algorithm_time(a, c, n, g))
            << comm_algo_name(a) << " " << collective_name(c) << " g=" << g;
      }
    }
  }
}

TEST(CommModel, LinkDegradationComposesWithHierarchicalPhases) {
  // The fault layer degrades links by perturbing the MachineSpec; a comm
  // model rebuilt from the degraded spec must slow exactly the phase that
  // crosses the degraded link.
  const MachineSpec healthy = MachineSpec::gtx1080ti(32);
  MachineSpec bad_nic = healthy;
  bad_nic.scale_links(1.0, 0.25);
  const CommModel h(healthy, CommModelKind::kHierarchical);
  const CommModel d(bad_nic, CommModelKind::kHierarchical);
  const double n = 8.0 * (1 << 20);
  const CommPhases hp = h.hierarchical_phases(Collective::kAllReduce, n, 32);
  const CommPhases dp = d.hierarchical_phases(Collective::kAllReduce, n, 32);
  EXPECT_DOUBLE_EQ(dp.intra_s, hp.intra_s);
  EXPECT_GT(dp.inter_s, hp.inter_s);
}

TEST(CommModel, SmallMessagesPreferLogarithmicAlgorithms) {
  // 64 devices, 256 bytes: latency dominates, so the O(log g)-step tree and
  // halving-doubling beat the O(g)-step ring; at 256 MiB bandwidth
  // dominates and the non-scalable tree cannot win.
  const CommModel cm(MachineSpec::gtx1080ti(64), CommModelKind::kAuto);
  const double tiny = 256.0;
  const double tree =
      cm.algorithm_time(CommAlgo::kTree, Collective::kAllReduce, tiny, 64);
  const double hd = cm.algorithm_time(CommAlgo::kHalvingDoubling,
                                      Collective::kAllReduce, tiny, 64);
  const double ring =
      cm.algorithm_time(CommAlgo::kRing, Collective::kAllReduce, tiny, 64);
  EXPECT_LT(tree, ring);
  EXPECT_LT(hd, ring);
  EXPECT_NE(cm.chosen_algorithm(Collective::kAllReduce, tiny, 64),
            CommAlgo::kRing);
  EXPECT_NE(cm.chosen_algorithm(Collective::kAllReduce, 256.0 * (1 << 20),
                                64),
            CommAlgo::kTree);
}

TEST(CommModel, HierarchicalEqualsIntraPlusInter) {
  const CommModel cm(MachineSpec::gtx1080ti(32), CommModelKind::kAuto);
  const double n = 16.0 * (1 << 20);
  for (Collective c : kCollectives) {
    // 32 devices at 8/node = 4 nodes: both phases present, and the total is
    // exactly their sum.
    const CommPhases multi = cm.hierarchical_phases(c, n, 32);
    EXPECT_GT(multi.intra_s, 0.0) << collective_name(c);
    EXPECT_GT(multi.inter_s, 0.0) << collective_name(c);
    EXPECT_DOUBLE_EQ(multi.total(),
                     cm.algorithm_time(CommAlgo::kHierarchical, c, n, 32))
        << collective_name(c);
    // A single-node group has no inter-node phase.
    const CommPhases single = cm.hierarchical_phases(c, n, 4);
    EXPECT_GT(single.intra_s, 0.0) << collective_name(c);
    EXPECT_EQ(single.inter_s, 0.0) << collective_name(c);
  }
}

TEST(CommModel, AutoNeverExceedsAnyForcedAlgorithm) {
  const MachineSpec m = MachineSpec::gtx1080ti(64);
  const CommModel autocm(m, CommModelKind::kAuto);
  for (Collective c : kCollectives) {
    for (i64 g : {2LL, 8LL, 24LL, 64LL}) {
      for (double n = 512.0; n <= 32.0 * (1 << 20); n *= 64.0) {
        const double chosen = autocm.collective_time(c, n, g);
        for (CommAlgo a : kAlgos)
          EXPECT_LE(chosen, autocm.algorithm_time(a, c, n, g))
              << collective_name(c) << " g=" << g << " n=" << n;
      }
    }
  }
}

TEST(CommModel, AutoPricesTheArgminBitwise) {
  // kAuto prices each call by the argmin over the families, with nothing
  // remembered between calls: its price is bitwise the least family price
  // and the price of the family it reports choosing, and a model that has
  // priced nothing yet returns the same bits.
  const auto bits = [](double x) { return std::bit_cast<u64>(x); };
  for (const MachineSpec& m :
       {MachineSpec::gtx1080ti(64), MachineSpec::mixed_pod(64),
        MachineSpec::multi_tier(32)}) {
    const CommModel cm(m, CommModelKind::kAuto);
    for (Collective c : kCollectives) {
      for (double n : {256.0, 1e6, 3e8}) {
        for (i64 g : {2LL, 8LL, 16LL, 32LL, 64LL}) {
          double least = cm.algorithm_time(kAlgos[0], c, n, g);
          for (CommAlgo a : kAlgos)
            least = std::min(least, cm.algorithm_time(a, c, n, g));
          const double t = cm.collective_time(c, n, g);
          const CommAlgo chosen = cm.chosen_algorithm(c, n, g);
          const CommModel fresh(m, CommModelKind::kAuto);
          SCOPED_TRACE(testing::Message() << m.name << " "
                                          << collective_name(c) << " n=" << n
                                          << " g=" << g);
          EXPECT_EQ(bits(t), bits(least));
          EXPECT_EQ(bits(t), bits(cm.algorithm_time(chosen, c, n, g)));
          EXPECT_EQ(bits(t), bits(fresh.collective_time(c, n, g)));
        }
      }
    }
  }
}

TEST(CommModel, SimpleModeMatchesLegacyClosedForm) {
  // kSimple must price exactly what the pre-comm-library simulator
  // hard-coded: flat intra-node ring for single-node groups, the fixed
  // intra-ring + inter-ring composition across nodes.
  const MachineSpec m = MachineSpec::gtx1080ti(32);
  const CommModel cm(m, CommModelKind::kSimple);
  const double n = 4.0 * (1 << 20);
  EXPECT_DOUBLE_EQ(
      cm.collective_time(Collective::kAllReduce, n, 8),
      ring_all_reduce_bytes(n, 8) / m.intra_bw() + m.link_latency_s);
  const double expected_multi =
      2.0 * n * 7.0 / 8.0 / m.intra_bw() +
      ring_all_reduce_bytes(n / 8.0, 4) / m.inter_bw() +
      2.0 * m.link_latency_s;
  EXPECT_DOUBLE_EQ(cm.collective_time(Collective::kAllReduce, n, 32),
                   expected_multi);
  EXPECT_DOUBLE_EQ(cm.point_to_point_time(n, 4),
                   n / m.intra_bw() + m.link_latency_s);
  EXPECT_DOUBLE_EQ(cm.point_to_point_time(n, 32),
                   n / m.inter_bw() + m.link_latency_s);
}

TEST(CommCost, SimpleModeIsTheDefaultAndBitIdenticalOnZoo) {
  // for_machine(m) attaches no comm model, and the explicit kSimple params
  // price every zoo model bit-identically — the reproduction contract.
  const MachineSpec m = MachineSpec::gtx1080ti(16);
  EXPECT_EQ(CostParams::for_machine(m).comm, nullptr);
  EXPECT_EQ(CostParams::for_machine(m, CommModelKind::kSimple).comm, nullptr);
  for (const auto& b : models::paper_benchmarks()) {
    const CostModel legacy(b.graph, CostParams::for_machine(m));
    const CostModel simple(
        b.graph, CostParams::for_machine(m, CommModelKind::kSimple));
    const Strategy dp = data_parallel_strategy(b.graph, 16);
    EXPECT_EQ(legacy.total_cost(dp), simple.total_cost(dp)) << b.name;
    const Simulator legacy_sim(b.graph, m);
    const Simulator simple_sim(b.graph, m, CommModelKind::kSimple);
    EXPECT_EQ(legacy_sim.simulate(dp).step_time_s,
              simple_sim.simulate(dp).step_time_s)
        << b.name;
  }
}

TEST(CommCost, AutoModeRepricesCollectivesButNotCompute) {
  const MachineSpec m = MachineSpec::gtx1080ti(32);
  const Graph g = models::alexnet();
  const CostParams simple = CostParams::for_machine(m);
  const CostParams autop = CostParams::for_machine(m, CommModelKind::kAuto);
  const Strategy dp = data_parallel_strategy(g, 32);
  for (const Node& node : g.nodes()) {
    const Config& cfg = dp[static_cast<size_t>(node.id)];
    EXPECT_DOUBLE_EQ(layer_flops(node, cfg, simple),
                     layer_flops(node, cfg, autop));
  }
  // Data parallelism at 32 devices gradient-all-reduces every parameter:
  // the pricing backends must actually disagree somewhere.
  const CostModel simple_cm(g, simple);
  const CostModel auto_cm(g, autop);
  EXPECT_NE(simple_cm.total_cost(dp), auto_cm.total_cost(dp));
  EXPECT_GT(auto_cm.total_cost(dp), 0.0);
  EXPECT_TRUE(std::isfinite(auto_cm.total_cost(dp)));
}

TEST(Determinism, AutoCommModelBitIdenticalAcrossThreads) {
  // Both solves price through one kAuto CommModel (par copies base's
  // CostParams). Its choices are computed per call, so the strategy and
  // cost must depend neither on the thread count nor on which solve priced
  // a shape first.
  for (const Graph& g : {models::alexnet(), models::rnnlm()}) {
    DpOptions base;
    base.config_options.max_devices = 16;
    base.cost_params = CostParams::for_machine(MachineSpec::gtx1080ti(16),
                                               CommModelKind::kAuto);
    DpOptions seq = base;
    seq.num_threads = 1;
    const DpResult a = find_best_strategy(g, seq);
    DpOptions par = base;  // shares the same CommModel instance
    par.num_threads = 4;
    const DpResult b = find_best_strategy(g, par);
    ASSERT_EQ(a.status, DpStatus::kOk);
    ASSERT_EQ(b.status, DpStatus::kOk);
    EXPECT_EQ(a.best_cost, b.best_cost);
    EXPECT_EQ(a.strategy, b.strategy);
  }
}

// --- Multi-tier fabrics (src/hetero threading) ----------------------------

TEST(CommTiers, TwoLevelTiersReproduceLegacyByteIdentically) {
  // Tiers spelling out exactly the legacy intra/inter pair (same spans,
  // same bandwidths, same latency) must price every collective to the
  // exact same double as the tier-free machine.
  const MachineSpec plain = MachineSpec::gtx1080ti(32);
  MachineSpec tiered = plain;
  tiered.link_tiers = {
      {plain.devices_per_node, plain.intra_node_bandwidth,
       plain.link_latency_s},
      {32, plain.inter_node_bandwidth, plain.link_latency_s}};
  for (const CommModelKind kind :
       {CommModelKind::kSimple, CommModelKind::kAuto,
        CommModelKind::kHierarchical}) {
    const CommModel a(plain, kind);
    const CommModel b(tiered, kind);
    for (const Collective c :
         {Collective::kAllReduce, Collective::kAllGather,
          Collective::kBroadcast, Collective::kAllToAll}) {
      for (const double bytes : {512.0, 1e6, 3e8}) {
        for (const i64 group : {2, 8, 16, 32}) {
          EXPECT_EQ(a.collective_time(c, bytes, group),
                    b.collective_time(c, bytes, group))
              << collective_name(c) << " " << bytes << "B x" << group;
        }
      }
    }
    for (const i64 group : {2, 8, 32})
      EXPECT_EQ(a.point_to_point_time(1e6, group),
                b.point_to_point_time(1e6, group));
  }
}

TEST(CommTiers, GroupsPayTheirCoveringTier) {
  // multi_tier(32): PCIe island (8 @ 12 GB/s), IB rack (16 @ 7 GB/s),
  // pod spine (32 @ 3 GB/s). A bandwidth-bound all-gather's time scales
  // inversely with the covering tier's bandwidth.
  const CommModel comm(MachineSpec::multi_tier(32), CommModelKind::kSimple);
  const double bytes = 1e9;  // latency terms negligible
  const double island = comm.collective_time(Collective::kAllGather, bytes, 8);
  const double rack = comm.collective_time(Collective::kAllGather, bytes, 16);
  const double spine =
      comm.collective_time(Collective::kAllGather, bytes, 32);
  // (g-1)/g wire bytes over the tier link: island ~ (7/8)/12, rack ~
  // (15/16)/7, spine ~ (31/32)/3.
  // Latency terms shift the ratios by ~1e-4; band accordingly.
  EXPECT_NEAR(rack / island, (15.0 / 16.0) / 7e9 / ((7.0 / 8.0) / 12e9),
              2e-3);
  EXPECT_NEAR(spine / island, (31.0 / 32.0) / 3e9 / ((7.0 / 8.0) / 12e9),
              2e-3);
  // Point-to-point follows the same tier selection.
  EXPECT_NEAR(comm.point_to_point_time(bytes, 8), bytes / 12e9, 1e-4);
  EXPECT_NEAR(comm.point_to_point_time(bytes, 32), bytes / 3e9, 1e-3);
}

}  // namespace
}  // namespace pase
