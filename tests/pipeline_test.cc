#include <gtest/gtest.h>

#include <set>

#include "cost/cost_model.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "search/baselines.h"

namespace pase {
namespace {

PipelineOptions popts(const MachineSpec& m, std::vector<i64> stage_counts) {
  PipelineOptions o;
  o.stage_counts = std::move(stage_counts);
  o.solver.cost_params = CostParams::for_machine(m);
  return o;
}

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

TEST(Pipeline, SingleStageEqualsPureStrategySearch) {
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  const Graph g = models::alexnet();
  const PipelineResult r = partition_pipeline(g, m, popts(m, {1}));
  ASSERT_EQ(r.stages.size(), 1u);
  EXPECT_EQ(r.devices_per_stage, 8);
  EXPECT_DOUBLE_EQ(r.step_seconds, r.no_pipeline_seconds);
  EXPECT_EQ(static_cast<i64>(r.stages[0].nodes.size()), g.num_nodes());
}

TEST(Pipeline, StagesPartitionTheGraph) {
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  const Graph g = models::vgg16(32);
  const PipelineResult r = partition_pipeline(g, m, popts(m, {2}));
  ASSERT_EQ(r.stages.size(), 2u);
  std::set<NodeId> seen;
  for (const auto& s : r.stages) {
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
  const PipelineResult r = partition_pipeline(g, m, popts(m, {2}));
  double max_stage = 0.0;
  for (const auto& s : r.stages) max_stage = std::max(max_stage, s.seconds());
  EXPECT_NEAR(r.bottleneck_seconds, max_stage, 1e-12);
  EXPECT_GE(r.step_seconds, r.bottleneck_seconds);  // fill/drain overhead
}

TEST(Pipeline, PicksBestStageCount) {
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  const Graph g = models::alexnet();
  const PipelineResult best =
      partition_pipeline(g, m, popts(m, {1, 2, 4}));
  for (const i64 s : {1LL, 2LL, 4LL}) {
    const PipelineResult single = partition_pipeline(g, m, popts(m, {s}));
    EXPECT_LE(best.step_seconds, single.step_seconds * (1 + 1e-9))
        << "stages=" << s;
  }
}

TEST(Pipeline, MoreMicrobatchesShrinkFillDrainOverhead) {
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  const Graph g = models::vgg16(32);
  PipelineOptions few = popts(m, {4});
  few.microbatches = 2;
  PipelineOptions many = popts(m, {4});
  many.microbatches = 64;
  EXPECT_GT(partition_pipeline(g, m, few).step_seconds,
            partition_pipeline(g, m, many).step_seconds);
}

TEST(Pipeline, InvalidStageCountsSkipped) {
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  const Graph g = models::alexnet();
  // 3 does not divide 8; only the 1-stage variant is feasible.
  const PipelineResult r = partition_pipeline(g, m, popts(m, {3, 1}));
  EXPECT_EQ(r.stages.size(), 1u);
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
  PipelineSearchOptions popts;
  popts.stages = 4;
  const PipelinedSearchResult r =
      find_best_pipelined_strategy(g, m, search_solver(m), popts);
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
  PipelineSearchOptions auto_popts;
  auto_popts.stages = 0;
  const PipelinedSearchResult best =
      find_best_pipelined_strategy(g, m, search_solver(m), auto_popts);
  ASSERT_EQ(best.dp.status, DpStatus::kOk);
  for (const i64 n : {1LL, 2LL, 4LL, 8LL}) {
    PipelineSearchOptions popts;
    popts.stages = n;
    const PipelinedSearchResult fixed =
        find_best_pipelined_strategy(g, m, search_solver(m), popts);
    EXPECT_LE(best.step_seconds, fixed.step_seconds * (1 + 1e-9))
        << "stages=" << n;
  }
}

TEST(PipelineSearch, InfeasiblePartitionReportsInfeasibleNotAbort) {
  // Tiny graph, 8 devices, 8 stages requested: the boundary budget admits
  // at most num_nodes stages, so no partition exists. The searched path
  // must report kInfeasible instead of aborting the process.
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  const Graph g = models::mlp(32, {64, 64});
  ASSERT_LT(g.num_nodes(), 8);
  PipelineSearchOptions popts;
  popts.stages = 8;
  const PipelinedSearchResult r =
      find_best_pipelined_strategy(g, m, search_solver(m), popts);
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
    PipelineSearchOptions popts;
    popts.stages = 2;
    const PipelinedSearchResult plain =
        find_best_pipelined_strategy(g, m, search_solver(m), popts);
    MetricsRegistry reg;
    DpOptions served = search_solver(m);
    served.metrics = &reg;
    served.num_threads = 2;
    served.degraded_fallback = true;
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
  const DpOptions solver = search_solver(m);
  PipelineSearchOptions popts;
  popts.stages = 2;
  const PipelinedSearchResult r =
      find_best_pipelined_strategy(g, m, solver, popts);
  ASSERT_EQ(r.dp.status, DpStatus::kOk);
  ASSERT_EQ(r.stages, 2);
  const CostModel cm(g, solver.cost_params);
  EXPECT_DOUBLE_EQ(r.dp.best_cost, cm.total_cost(r.dp.strategy));
}

TEST(Pipeline, WorksOnBranchyGraphs) {
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  const Graph g = models::resnet50(32);
  const PipelineResult r = partition_pipeline(g, m, popts(m, {1, 2}));
  EXPECT_FALSE(r.stages.empty());
  EXPECT_GT(r.step_seconds, 0.0);
}

}  // namespace
}  // namespace pase
