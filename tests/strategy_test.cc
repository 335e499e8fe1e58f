#include <gtest/gtest.h>

#include "core/strategy.h"
#include "models/models.h"
#include "search/baselines.h"

namespace pase {
namespace {

ConfigOptions copts(i64 p) {
  ConfigOptions o;
  o.max_devices = p;
  return o;
}

TEST(StrategyValid, AcceptsBaselines) {
  const Graph g = models::alexnet();
  EXPECT_TRUE(strategy_valid(g, data_parallel_strategy(g, 8), copts(8)));
  EXPECT_TRUE(strategy_valid(g, owt_strategy(g, 8), copts(8)));
}

TEST(StrategyValid, RejectsWrongSize) {
  const Graph g = models::alexnet();
  Strategy phi = data_parallel_strategy(g, 8);
  phi.pop_back();
  EXPECT_FALSE(strategy_valid(g, phi, copts(8)));
}

TEST(StrategyValid, RejectsWrongRank) {
  const Graph g = models::mlp(8, {16, 8});
  Strategy phi = data_parallel_strategy(g, 4);
  phi[0] = Config::ones(2);  // FC rank is 3
  EXPECT_FALSE(strategy_valid(g, phi, copts(4)));
}

TEST(StrategyValid, RejectsOverBudgetDegree) {
  const Graph g = models::mlp(64, {64, 64});
  Strategy phi = data_parallel_strategy(g, 4);
  phi[0] = Config{4, 4, 1};  // degree 16 > p = 4
  EXPECT_FALSE(strategy_valid(g, phi, copts(4)));
}

TEST(StrategyValid, RejectsNonPow2WhenRequired) {
  const Graph g = models::mlp(64, {64, 64});
  Strategy phi = data_parallel_strategy(g, 8);
  phi[0] = Config{3, 1, 1};
  EXPECT_FALSE(strategy_valid(g, phi, copts(8)));
  ConfigOptions relaxed = copts(8);
  relaxed.powers_of_two_only = false;
  EXPECT_TRUE(strategy_valid(g, phi, relaxed));
}

TEST(StrategyValid, RejectsSplitOfNonSplittableDim) {
  const Graph g = models::alexnet();
  Strategy phi = data_parallel_strategy(g, 8);
  phi[0] = Config{1, 1, 2, 1, 1, 1, 1};  // conv h is not splittable
  EXPECT_FALSE(strategy_valid(g, phi, copts(8)));
}

TEST(StrategyValid, RejectsOverExtentSplit) {
  const Graph g = models::mlp(2, {64, 64});
  Strategy phi = data_parallel_strategy(g, 8);
  phi[0] = Config{8, 1, 1};  // batch extent is only 2
  EXPECT_FALSE(strategy_valid(g, phi, copts(8)));
}

TEST(StrategyValid, FullUseRequiresExactDegree) {
  const Graph g = models::mlp(64, {64, 64});
  ConfigOptions full = copts(8);
  full.require_full_use = true;
  EXPECT_FALSE(
      strategy_valid(g, Strategy(2, Config::ones(3) /*softmax rank 2!*/),
                     full));
  Strategy phi = {Config{8, 1, 1}, Config{8, 1}};
  // mlp(64,{64,64}) = FC (b,n,c) + softmax (b,n).
  EXPECT_TRUE(strategy_valid(g, phi, full));
}

TEST(StrategyValid, AcceptsExactlyTheEnumeratedSpace) {
  // Validity is membership in what the solver enumerates, so the split-dim
  // gates count. First, every configuration of the widened space must be
  // accepted, tried one node at a time with the other nodes serial.
  const Graph g = *models::zoo_graph("resnet_large_p");
  ConfigOptions all = copts(4);
  all.split_dims = *parse_split_dims("all");
  Strategy serial;
  for (const Node& n : g.nodes()) serial.push_back(Config::ones(n.space.rank()));
  i64 widened = 0;
  for (const Node& n : g.nodes()) {
    for (const Config& c : enumerate_node_configs(n, all)) {
      Strategy phi = serial;
      phi[static_cast<size_t>(n.id)] = c;
      EXPECT_TRUE(strategy_valid(g, phi, all)) << n.name << c.to_string();
      for (i64 d = 0; d < c.rank(); ++d)
        if (c[d] > 1 && !n.space.dim(d).splittable) {
          ++widened;
          break;
        }
    }
  }
  EXPECT_GT(widened, 0);  // the gates really opened builder-locked dims

  // Second, a batch split is rejected once the batch gate is closed, and
  // a configuration the filter refuses is rejected too.
  const Graph mlp = models::mlp(64, {64, 64});
  const Strategy dp = data_parallel_strategy(mlp, 8);
  EXPECT_TRUE(strategy_valid(mlp, dp, copts(8)));
  ConfigOptions no_batch = copts(8);
  no_batch.split_dims = *parse_split_dims("param");
  EXPECT_FALSE(strategy_valid(mlp, dp, no_batch));
  ConfigOptions serial_only = copts(8);
  serial_only.filter = [](const Node&, const Config& c) {
    return c.degree() == 1;
  };
  EXPECT_FALSE(strategy_valid(mlp, dp, serial_only));
}

TEST(StrategyToString, ContainsAllNodes) {
  const Graph g = models::rnnlm();
  const std::string s =
      strategy_to_string(g, data_parallel_strategy(g, 8));
  for (const Node& n : g.nodes())
    EXPECT_NE(s.find(n.name), std::string::npos) << n.name;
}

TEST(StrategyTable, CollapsesRuns) {
  const Graph g = models::alexnet();
  const std::string t =
      strategy_table("AlexNet", g, data_parallel_strategy(g, 8));
  // Conv1..Pool5 all share bchwrs/bchwnrs? No: conv and pool spaces differ,
  // so runs break at kind changes, but FC1..FC2 share "bnc" + config.
  EXPECT_NE(t.find("AlexNet"), std::string::npos);
  EXPECT_NE(t.find("(8, 1, 1)"), std::string::npos);
  EXPECT_NE(t.find(".."), std::string::npos);  // at least one collapsed run
}

TEST(StrategyTable, SingletonRunsKeepPlainLabels) {
  const Graph g = models::rnnlm();
  const std::string t =
      strategy_table("RNNLM", g, data_parallel_strategy(g, 8));
  EXPECT_NE(t.find("LSTM"), std::string::npos);
  EXPECT_NE(t.find("lbsde"), std::string::npos);
}

}  // namespace
}  // namespace pase
