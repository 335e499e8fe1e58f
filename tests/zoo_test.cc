// Tests for the zoo extensions (ResNet-50, VGG-16) and their interaction
// with the solver.
#include <gtest/gtest.h>

#include "core/dp_solver.h"
#include "core/ordering.h"
#include "core/dep_sets.h"
#include "cost/cost_model.h"
#include "models/models.h"
#include "ops/ops.h"
#include "search/baselines.h"

namespace pase {
namespace {

TEST(Zoo, StackNodeCountIsReadFromTheName) {
  // zoo_stack_nodes answers without building: 6N + 4, for exactly the
  // names zoo_graph accepts as stacks.
  for (const char* name : {"transformer_stack_1", "transformer_stack_50",
                           "transformer_stack_1000"})
    EXPECT_EQ(models::zoo_stack_nodes(name),
              models::zoo_graph(name)->num_nodes())
        << name;
  EXPECT_EQ(models::zoo_stack_nodes("transformer_stack_100000"), 600004);
  for (const char* name : {"alexnet", "transformer_stack_0",
                           "transformer_stack_007", "transformer_stack_100001",
                           "transformer_stack_"})
    EXPECT_FALSE(models::zoo_stack_nodes(name).has_value()) << name;
}

TEST(Zoo, Resnet50Structure) {
  const Graph g = models::resnet50();
  EXPECT_TRUE(g.weakly_connected());
  i64 convs = 0, adds = 0;
  for (const Node& n : g.nodes()) {
    convs += n.kind == OpKind::kConv2D;
    adds += n.kind == OpKind::kElementwise;
  }
  // 53 convolutions (1 stem + 16 blocks x 3 + 4 projections) and one
  // residual join per block.
  EXPECT_EQ(convs, 53);
  EXPECT_EQ(adds, 16);
}

TEST(Zoo, Resnet50HasDegreeThreeJoins) {
  const Graph g = models::resnet50();
  i64 joins = 0;
  for (const Node& n : g.nodes())
    if (n.kind == OpKind::kElementwise && g.degree(n.id) >= 3) ++joins;
  EXPECT_EQ(joins, 16);
}

TEST(Zoo, Resnet50OrderingStaysCheap) {
  // Skip connections only bump dependent sets slightly; GenerateSeq keeps
  // the DP tractable.
  const Graph g = models::resnet50();
  EXPECT_LE(max_dependent_set_size(g, generate_seq(g)), 3);
}

TEST(Zoo, Vgg16IsAPathGraph) {
  const Graph g = models::vgg16();
  EXPECT_TRUE(g.weakly_connected());
  for (const Node& n : g.nodes()) EXPECT_LE(g.degree(n.id), 2) << n.name;
  EXPECT_LE(max_dependent_set_size(g, generate_seq(g)), 1);
  EXPECT_EQ(g.num_nodes(), 22);  // 13 conv + 5 pool + 3 FC + softmax
}

TEST(Zoo, SolverBeatsDataParallelismOnZooModels) {
  for (const Graph& g : {models::resnet50(32), models::vgg16(32)}) {
    DpOptions opt;
    opt.config_options.max_devices = 8;
    opt.cost_params = CostParams::for_machine(MachineSpec::gtx1080ti(8));
    const DpResult r = find_best_strategy(g, opt);
    ASSERT_EQ(r.status, DpStatus::kOk);
    const CostModel cm(g, opt.cost_params);
    EXPECT_LE(r.best_cost,
              cm.total_cost(data_parallel_strategy(g, 8)) * (1 + 1e-9));
    EXPECT_LE(r.best_cost, cm.total_cost(owt_strategy(g, 8)) * (1 + 1e-9));
  }
}

TEST(Zoo, Vgg16FcLayersGoParameterParallel) {
  // VGG's 100M-parameter FC1 makes batch parallelism expensive — the OWT
  // motivation; the solver must avoid replicating it.
  const Graph g = models::vgg16();
  DpOptions opt;
  opt.config_options.max_devices = 32;
  opt.cost_params = CostParams::for_machine(MachineSpec::gtx1080ti(32));
  const DpResult r = find_best_strategy(g, opt);
  ASSERT_EQ(r.status, DpStatus::kOk);
  for (const Node& n : g.nodes()) {
    if (n.kind != OpKind::kFullyConnected) continue;
    const Config& c = r.strategy[static_cast<size_t>(n.id)];
    EXPECT_GE(c[1] * c[2], 8) << n.name;  // n x c split dominates
  }
}

TEST(Zoo, BatchPropagates) {
  const Graph g = models::resnet50(64);
  for (const Node& n : g.nodes()) {
    const i64 b = n.space.find("b");
    ASSERT_GE(b, 0) << n.name;
    EXPECT_EQ(n.space.dim(b).size, 64) << n.name;
  }
}


TEST(Zoo, MobileNetStructure) {
  const Graph g = models::mobilenet_v1();
  EXPECT_TRUE(g.weakly_connected());
  i64 dw = 0;
  for (const Node& n : g.nodes())
    if (n.name.rfind("DwConv", 0) == 0) ++dw;
  EXPECT_EQ(dw, 13);
  EXPECT_EQ(g.num_nodes(), 1 + 13 * 2 + 3);  // stem + blocks + head
}

TEST(Zoo, DepthwiseChannelSplitIsCommunicationFree) {
  const Node dw = ops::depthwise_conv2d("d", 8, 64, 16, 16, 3, 3);
  CostParams p;
  p.r = 1000.0;
  // Splitting channels shards the per-channel filters perfectly: no
  // gradient sync, no reduction; cost is pure compute.
  EXPECT_DOUBLE_EQ(layer_cost(dw, Config{1, 8, 1, 1, 1, 1}, p),
                   layer_flops(dw, Config{1, 8, 1, 1, 1, 1}, p));
}

TEST(Zoo, GnmtStructureAndSolvability) {
  const Graph g = models::gnmt();
  EXPECT_TRUE(g.weakly_connected());
  EXPECT_EQ(g.num_nodes(), 7);
  DpOptions opt;
  opt.config_options.max_devices = 8;
  opt.cost_params = CostParams::for_machine(MachineSpec::gtx1080ti(8));
  const DpResult r = find_best_strategy(g, opt);
  ASSERT_EQ(r.status, DpStatus::kOk);
  const CostModel cm(g, opt.cost_params);
  EXPECT_LE(r.best_cost,
            cm.total_cost(data_parallel_strategy(g, 8)) * (1 + 1e-9));
  EXPECT_LE(r.best_cost,
            cm.total_cost(expert_strategy(g, 8)) * (1 + 1e-9));
}

TEST(Zoo, GnmtEncoderDecoderSplitLayerDim) {
  const Graph g = models::gnmt();
  DpOptions opt;
  opt.config_options.max_devices = 32;
  opt.cost_params = CostParams::for_machine(MachineSpec::gtx1080ti(32));
  const DpResult r = find_best_strategy(g, opt);
  ASSERT_EQ(r.status, DpStatus::kOk);
  // The two LSTM stacks keep the pipeline-friendly layer split available;
  // whichever configuration wins must parallelize beyond pure batch.
  for (const Node& n : g.nodes())
    if (n.kind == OpKind::kLSTM)
      EXPECT_GT(r.strategy[static_cast<size_t>(n.id)].degree(), 1) << n.name;
}

}  // namespace
}  // namespace pase
