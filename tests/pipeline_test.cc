#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "core/strategy.h"
#include "cost/cost_model.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "search/baselines.h"
#include "util/timer.h"

namespace pase {
namespace {

TEST(InducedSubgraph, KeepsInternalEdgesOnly) {
  const Graph g = models::alexnet();
  std::vector<NodeId> remap;
  const Graph sub = induced_subgraph(g, {0, 1, 2}, remap);
  EXPECT_EQ(sub.num_nodes(), 3);
  EXPECT_EQ(sub.num_edges(), 2);  // conv1-pool1, pool1-conv2
  EXPECT_EQ(remap[0], 0);
  EXPECT_EQ(remap[3], kInvalidNode);
  EXPECT_EQ(sub.node(1).name, g.node(1).name);
}

TEST(InducedSubgraph, DisconnectedPieceIsFine) {
  const Graph g = models::alexnet();
  std::vector<NodeId> remap;
  const Graph sub = induced_subgraph(g, {0, 5}, remap);  // conv1 + conv4
  EXPECT_EQ(sub.num_nodes(), 2);
  EXPECT_EQ(sub.num_edges(), 0);
  EXPECT_FALSE(sub.weakly_connected());
}

TEST(DpSolver, HandlesDisconnectedGraphs) {
  // The per-component generalization used by pipeline stages: the optimum
  // of a disconnected graph is the sum of per-component optima.
  const Graph whole = models::mlp(32, {64, 64});
  DpOptions opt;
  opt.config_options.max_devices = 4;
  opt.cost_params = CostParams::for_machine(MachineSpec::gtx1080ti(4));
  const double one = find_best_strategy(whole, opt).best_cost;

  std::vector<NodeId> remap;
  Graph two_copies;
  for (const Node& n : whole.nodes()) two_copies.add_node(n);
  for (const Node& n : whole.nodes()) {
    Node copy = n;
    copy.name += "_2";
    two_copies.add_node(copy);
  }
  for (const Edge& e : whole.edges()) {
    two_copies.add_edge(e.src, e.dst, e.shape, e.src_dims, e.dst_dims);
    two_copies.add_edge(e.src + whole.num_nodes(),
                        e.dst + whole.num_nodes(), e.shape, e.src_dims,
                        e.dst_dims);
  }
  const DpResult r = find_best_strategy(two_copies, opt);
  ASSERT_EQ(r.status, DpStatus::kOk);
  EXPECT_NEAR(r.best_cost, 2.0 * one, 1e-6 * one);
  for (const Config& c : r.strategy) EXPECT_GT(c.rank(), 0);
}

// ---------------------------------------------------------------------------
// The searched pipeline-stage dimension (find_best_pipelined_strategy):
// the path --pipeline-stages and the serve protocol use.

DpOptions search_solver(const MachineSpec& m) {
  DpOptions o;
  o.config_options.max_devices = m.num_devices;
  o.cost_params = CostParams::for_machine(m);
  return o;
}

PipelinedSearchResult search(const Graph& g, const MachineSpec& m,
                             i64 stages, i64 microbatches = 8) {
  PipelineSearchOptions popts;
  popts.stages = stages;
  popts.microbatches = microbatches;
  return find_best_pipelined_strategy(g, m, search_solver(m), popts);
}

TEST(PipelineSearch, SingleStageIsBitIdenticalToFindBestStrategy) {
  // popts.stages == 1 is the disabled-dimension contract: the verbatim
  // find_best_strategy result, bit for bit.
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  for (const char* name : {"alexnet", "vgg16", "transformer_pipelined"}) {
    const Graph g = *models::zoo_graph(name);
    const DpOptions solver = search_solver(m);
    const DpResult plain = find_best_strategy(g, solver);
    PipelineSearchOptions popts;
    popts.stages = 1;
    const PipelinedSearchResult r =
        find_best_pipelined_strategy(g, m, solver, popts);
    EXPECT_EQ(r.stages, 1) << name;
    EXPECT_TRUE(r.stage_details.empty()) << name;
    EXPECT_EQ(r.dp.status, plain.status) << name;
    EXPECT_EQ(r.dp.best_cost, plain.best_cost) << name;  // bitwise
    EXPECT_TRUE(r.dp.strategy == plain.strategy) << name;
    EXPECT_DOUBLE_EQ(r.step_seconds, r.no_pipeline_seconds) << name;
  }
}

TEST(PipelineSearch, ExplicitStageCountIsRespected) {
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  const Graph g = *models::zoo_graph("transformer_pipelined");
  const PipelinedSearchResult r = search(g, m, 4);
  ASSERT_EQ(r.dp.status, DpStatus::kOk);
  EXPECT_EQ(r.stages, 4);
  EXPECT_EQ(r.devices_per_stage, 2);
  ASSERT_EQ(r.stage_details.size(), 4u);
  // The composed strategy covers every original node exactly once, and the
  // bottleneck is the slowest stage.
  std::set<NodeId> seen;
  double max_stage = 0.0;
  for (const auto& s : r.stage_details) {
    for (NodeId v : s.nodes) EXPECT_TRUE(seen.insert(v).second);
    max_stage = std::max(max_stage, s.seconds());
  }
  EXPECT_EQ(static_cast<i64>(seen.size()), g.num_nodes());
  EXPECT_NEAR(r.bottleneck_seconds, max_stage, 1e-12);
  EXPECT_GE(r.step_seconds, r.bottleneck_seconds);
  EXPECT_EQ(static_cast<i64>(r.dp.strategy.size()), g.num_nodes());
}

TEST(PipelineSearch, AutoNeverLosesToAnyFixedStageCount) {
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  const Graph g = *models::zoo_graph("transformer_pipelined");
  const PipelinedSearchResult best = search(g, m, 0);
  ASSERT_EQ(best.dp.status, DpStatus::kOk);
  for (const i64 n : {1LL, 2LL, 4LL, 8LL}) {
    EXPECT_LE(best.step_seconds, search(g, m, n).step_seconds * (1 + 1e-9))
        << "stages=" << n;
  }
}

TEST(PipelineSearch, SearchedStageCountCarriesSolveStats) {
  // Any stage count but the disabled one composes its result from the
  // stage solves; K, M and the thread count must come along, also when
  // the search settles on one stage.
  struct Case {
    Graph graph;
    MachineSpec machine;
    i64 stages;  ///< 0 = auto
  };
  const Case cases[] = {
      {models::mlp(32, {64, 64}), MachineSpec::gtx1080ti(4), 0},
      {*models::zoo_graph("transformer_pipelined"), MachineSpec::gtx1080ti(8),
       2}};
  std::set<i64> stage_counts;
  for (const Case& c : cases) {
    DpOptions solver = search_solver(c.machine);
    solver.num_threads = 2;
    PipelineSearchOptions popts;
    popts.stages = c.stages;
    const PipelinedSearchResult r =
        find_best_pipelined_strategy(c.graph, c.machine, solver, popts);
    ASSERT_EQ(r.dp.status, DpStatus::kOk);
    stage_counts.insert(r.stages);
    EXPECT_EQ(r.dp.threads_used, 2);
    i64 k = 0, m = 0;
    for (const PipelineStage& stage : r.stage_details) {
      k = std::max(k, stage.max_configs);
      m = std::max(m, stage.max_dependent_set);
    }
    EXPECT_GT(k, 0);
    EXPECT_EQ(r.dp.max_configs, k);
    EXPECT_EQ(r.dp.max_dependent_set, m);
    if (r.stages == 1) {
      const DpResult plain = find_best_strategy(c.graph, solver);
      EXPECT_EQ(r.dp.max_configs, plain.max_configs);
      EXPECT_EQ(r.dp.max_dependent_set, plain.max_dependent_set);
    }
  }
  EXPECT_EQ(stage_counts, (std::set<i64>{1, 2}));
}

TEST(PipelineSearch, InfeasiblePartitionReportsInfeasibleNotAbort) {
  // Tiny graph, 8 devices, 8 stages requested: a stage holds at least one
  // node, so no partition exists. The searched path must report
  // kInfeasible instead of aborting the process.
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  const Graph g = models::mlp(32, {64, 64});
  ASSERT_LT(max_pipeline_stages(g.num_nodes()), 8);
  const PipelinedSearchResult r = search(g, m, 8);
  EXPECT_EQ(r.dp.status, DpStatus::kInfeasible);
  EXPECT_TRUE(r.dp.strategy.empty());
}

TEST(PipelineSearch, SharedCostCacheDoesNotChangeStageSolves) {
  // The serving daemon's solver options (a metrics sink, solver threads,
  // the degraded fallback) thread through to every stage solve; none of
  // them may change the composed answer.
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  for (const char* name : {"alexnet", "transformer_pipelined"}) {
    const Graph g = *models::zoo_graph(name);
    const PipelinedSearchResult plain = search(g, m, 2);
    MetricsRegistry reg;
    DpOptions served = search_solver(m);
    served.metrics = &reg;
    served.num_threads = 2;
    served.degraded_fallback = true;
    PipelineSearchOptions popts;
    popts.stages = 2;
    const PipelinedSearchResult cached =
        find_best_pipelined_strategy(g, m, served, popts);
    ASSERT_EQ(plain.dp.status, DpStatus::kOk) << name;
    EXPECT_EQ(cached.dp.best_cost, plain.dp.best_cost) << name;
    EXPECT_TRUE(cached.dp.strategy == plain.dp.strategy) << name;
  }
}

TEST(PipelineSearch, ComposedCostMatchesCostModelTotal) {
  // stages > 1: dp.best_cost is the full-graph Eq. (1) evaluation of the
  // composed strategy — the same number serve's verify-on-hit recomputes.
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  const Graph g = *models::zoo_graph("transformer_pipelined");
  const PipelinedSearchResult r = search(g, m, 2);
  ASSERT_EQ(r.dp.status, DpStatus::kOk);
  ASSERT_EQ(r.stages, 2);
  const CostModel cm(g, search_solver(m).cost_params);
  EXPECT_DOUBLE_EQ(r.dp.best_cost, cm.total_cost(r.dp.strategy));
}

TEST(PipelineSearch, SecondsUseTheCostModelsFlopScale) {
  // Eq. (1) prices compute in FLOPs of the weakest device
  // (CostParams::seconds_to_flops); on a mixed cluster that is not the
  // fastest device's peak, and every seconds field must use the same
  // scale as the crossing times it is compared with.
  const MachineSpec m = MachineSpec::mixed_cluster(8);
  const Graph g = *models::zoo_graph("transformer_pipelined");
  const DpOptions solver = search_solver(m);
  ASSERT_NE(solver.cost_params.seconds_to_flops,
            m.peak_flops * m.compute_efficiency);
  const DpResult plain = find_best_strategy(g, solver);
  ASSERT_EQ(plain.status, DpStatus::kOk);
  for (const i64 stages : {1LL, 2LL}) {
    const PipelinedSearchResult r = search(g, m, stages);
    ASSERT_EQ(r.dp.status, DpStatus::kOk) << "stages=" << stages;
    EXPECT_EQ(r.no_pipeline_seconds,
              plain.best_cost / solver.cost_params.seconds_to_flops)
        << "stages=" << stages;
  }
}

TEST(PipelineSearch, DeadlineTripIsOnTime) {
  // The searched stage count solves hundreds of intervals; the deadline
  // bounds the whole search, not each solve. InceptionV3 at p = 64 on one
  // thread needs seconds for every interval, so a 50 ms search must trip,
  // answer degraded with a reason naming the partition, and come back
  // within 3x the deadline (min of 3, as the solver's *IsOnTime gates).
  const MachineSpec m = MachineSpec::gtx1080ti(64);
  const Graph g = models::inception_v3();
  DpOptions solver = search_solver(m);
  solver.deadline_seconds = 0.05;
  solver.degraded_fallback = true;
  PipelineSearchOptions popts;
  popts.stages = 0;
  const CostModel cm(g, solver.cost_params);
  double fastest = std::numeric_limits<double>::infinity();
  for (int run = 0; run < 3; ++run) {
    const WallTimer timer;
    const PipelinedSearchResult r =
        find_best_pipelined_strategy(g, m, solver, popts);
    fastest = std::min(fastest, timer.elapsed_seconds());
    ASSERT_EQ(r.dp.status, DpStatus::kDegraded) << r.dp.guard_reason;
    EXPECT_EQ(r.dp.trip_cause, DpResult::TripCause::kDeadline);
    EXPECT_NE(r.dp.guard_reason.find("pipeline partition"), std::string::npos)
        << r.dp.guard_reason;
    EXPECT_TRUE(strategy_valid(g, r.dp.strategy, solver.config_options));
    EXPECT_EQ(cm.total_cost(r.dp.strategy), r.dp.best_cost);
  }
  EXPECT_LT(fastest, 3 * solver.deadline_seconds);
}

TEST(Pipeline, SingleStageEqualsPureStrategySearch) {
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  const Graph g = models::alexnet();
  const PipelinedSearchResult r = search(g, m, 1);
  ASSERT_EQ(r.dp.status, DpStatus::kOk);
  EXPECT_EQ(r.stages, 1);
  EXPECT_EQ(r.devices_per_stage, 8);
  EXPECT_DOUBLE_EQ(r.step_seconds, r.no_pipeline_seconds);
  EXPECT_EQ(static_cast<i64>(r.dp.strategy.size()), g.num_nodes());
}

TEST(Pipeline, StagesPartitionTheGraph) {
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  const Graph g = models::vgg16(32);
  const PipelinedSearchResult r = search(g, m, 2);
  ASSERT_EQ(r.stage_details.size(), 2u);
  std::set<NodeId> seen;
  for (const auto& s : r.stage_details) {
    EXPECT_EQ(static_cast<i64>(s.strategy.size()),
              static_cast<i64>(s.nodes.size()));
    for (NodeId v : s.nodes) EXPECT_TRUE(seen.insert(v).second);
  }
  EXPECT_EQ(static_cast<i64>(seen.size()), g.num_nodes());
  EXPECT_EQ(r.devices_per_stage, 4);
}

TEST(Pipeline, BottleneckIsMaxStageTime) {
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  const Graph g = models::vgg16(32);
  const PipelinedSearchResult r = search(g, m, 2);
  ASSERT_EQ(r.stage_details.size(), 2u);
  double max_stage = 0.0;
  for (const auto& s : r.stage_details) {
    max_stage = std::max(max_stage, s.seconds());
  }
  EXPECT_NEAR(r.bottleneck_seconds, max_stage, 1e-12);
  EXPECT_GE(r.step_seconds, r.bottleneck_seconds);  // fill/drain overhead
}

TEST(Pipeline, PicksBestStageCount) {
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  const Graph g = models::alexnet();
  const PipelinedSearchResult best = search(g, m, 0);
  ASSERT_EQ(best.dp.status, DpStatus::kOk);
  for (const i64 s : {1LL, 2LL, 4LL}) {
    EXPECT_LE(best.step_seconds, search(g, m, s).step_seconds * (1 + 1e-9))
        << "stages=" << s;
  }
}

TEST(Pipeline, MoreMicrobatchesShrinkFillDrainOverhead) {
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  const Graph g = models::vgg16(32);
  EXPECT_GT(search(g, m, 4, 2).step_seconds,
            search(g, m, 4, 64).step_seconds);
}

TEST(Pipeline, WorksOnBranchyGraphs) {
  // ResNet-50's skip connections cross the stage cuts.
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  const Graph g = models::resnet50(32);
  const PipelinedSearchResult r = search(g, m, 2);
  ASSERT_EQ(r.dp.status, DpStatus::kOk);
  EXPECT_EQ(r.stage_details.size(), 2u);
  EXPECT_GT(r.step_seconds, 0.0);
}

}  // namespace
}  // namespace pase
