#include <gtest/gtest.h>

#include "core/dp_solver.h"
#include "core/strategy.h"
#include "models/models.h"
#include "search/baselines.h"
#include "search/brute_force.h"
#include "test_util.h"

namespace pase {
namespace {

DpOptions options_for(i64 p, OrderingKind ord = OrderingKind::kGenerateSeq) {
  DpOptions opt;
  opt.config_options.max_devices = p;
  opt.cost_params = CostParams::for_machine(MachineSpec::gtx1080ti(p));
  opt.ordering = ord;
  return opt;
}

// ---- Theorem 1 end-to-end: the DP optimum equals the brute-force optimum.

struct OptimalityCase {
  i64 nodes;
  i64 extra_edges;
  u64 seed;
  i64 p;
};

class OptimalitySweep : public ::testing::TestWithParam<OptimalityCase> {};

TEST_P(OptimalitySweep, DpMatchesBruteForce) {
  const auto& c = GetParam();
  const Graph g = testing::random_graph(c.nodes, c.extra_edges, c.seed);
  const DpOptions opt = options_for(c.p);
  const DpResult dp = find_best_strategy(g, opt);
  ASSERT_EQ(dp.status, DpStatus::kOk);
  const auto bf =
      brute_force_search(g, opt.config_options, opt.cost_params);
  ASSERT_TRUE(bf.has_value());
  EXPECT_NEAR(dp.best_cost, bf->best_cost, 1e-6 * bf->best_cost);
  // The extracted strategy achieves the reported cost under Eq. (1).
  const CostModel cm(g, opt.cost_params);
  EXPECT_NEAR(cm.total_cost(dp.strategy), dp.best_cost,
              1e-6 * dp.best_cost);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, OptimalitySweep,
    ::testing::Values(OptimalityCase{3, 1, 1, 4}, OptimalityCase{4, 2, 2, 4},
                      OptimalityCase{5, 2, 3, 4}, OptimalityCase{5, 3, 4, 2},
                      OptimalityCase{6, 2, 5, 2}, OptimalityCase{6, 4, 6, 2},
                      OptimalityCase{4, 0, 7, 8}, OptimalityCase{5, 1, 8, 4},
                      OptimalityCase{6, 0, 9, 4},
                      OptimalityCase{7, 3, 10, 2}));

TEST(DpSolver, MatchesBruteForceOnFig2ToyGraph) {
  const Graph g = testing::fig2_toy_graph();
  const DpOptions opt = options_for(2);  // 4^9 strategies: exhaustible
  const DpResult dp = find_best_strategy(g, opt);
  const auto bf =
      brute_force_search(g, opt.config_options, opt.cost_params);
  ASSERT_TRUE(bf.has_value());
  EXPECT_NEAR(dp.best_cost, bf->best_cost, 1e-6 * bf->best_cost);
}

TEST(DpSolver, MatchesBruteForceOnMlp) {
  const Graph g = models::mlp(16, {64, 64, 32, 32});
  const DpOptions opt = options_for(4);
  const DpResult dp = find_best_strategy(g, opt);
  const auto bf =
      brute_force_search(g, opt.config_options, opt.cost_params);
  ASSERT_TRUE(bf.has_value());
  EXPECT_NEAR(dp.best_cost, bf->best_cost, 1e-6 * bf->best_cost);
}

// ---- Ordering invariance: recurrence (4)'s optimum is the same for any
// ordering (Theorem 1 holds for every sequence V).

class OrderingInvarianceSweep : public ::testing::TestWithParam<u64> {};

TEST_P(OrderingInvarianceSweep, BothOrderingsAgree) {
  const Graph g = testing::random_graph(8, 3, GetParam());
  const DpResult gs =
      find_best_strategy(g, options_for(4, OrderingKind::kGenerateSeq));
  const DpResult bf =
      find_best_strategy(g, options_for(4, OrderingKind::kBreadthFirst));
  ASSERT_EQ(gs.status, DpStatus::kOk);
  ASSERT_EQ(bf.status, DpStatus::kOk);
  EXPECT_NEAR(gs.best_cost, bf.best_cost, 1e-6 * gs.best_cost);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderingInvarianceSweep,
                         ::testing::Range<u64>(1, 9));

TEST(DpSolver, OrderingsAgreeOnAlexNet) {
  const Graph g = models::alexnet();
  const double a =
      find_best_strategy(g, options_for(8, OrderingKind::kGenerateSeq))
          .best_cost;
  const double b =
      find_best_strategy(g, options_for(8, OrderingKind::kBreadthFirst))
          .best_cost;
  EXPECT_NEAR(a, b, 1e-6 * a);
}

// ---- Strategy quality and validity.

class BenchmarkSweep
    : public ::testing::TestWithParam<std::tuple<int, i64>> {};

TEST_P(BenchmarkSweep, StrategyValidAndBeatsBaselines) {
  const auto benchmarks = models::paper_benchmarks();
  const auto& bench = benchmarks[static_cast<size_t>(
      std::get<0>(GetParam()))];
  const i64 p = std::get<1>(GetParam());
  const DpOptions opt = options_for(p);
  const DpResult dp = find_best_strategy(bench.graph, opt);
  ASSERT_EQ(dp.status, DpStatus::kOk) << bench.name;
  EXPECT_TRUE(strategy_valid(bench.graph, dp.strategy, opt.config_options))
      << bench.name;

  const CostModel cm(bench.graph, opt.cost_params);
  EXPECT_NEAR(cm.total_cost(dp.strategy), dp.best_cost, 1e-6 * dp.best_cost);
  // The optimum can be no worse than any strategy in the space — in
  // particular data parallelism and the expert strategies (paper Fig. 6).
  const double eps = 1e-9;
  EXPECT_LE(dp.best_cost,
            cm.total_cost(data_parallel_strategy(bench.graph, p)) *
                (1 + eps));
  EXPECT_LE(dp.best_cost,
            cm.total_cost(expert_strategy(bench.graph, p)) * (1 + eps));
}

INSTANTIATE_TEST_SUITE_P(ModelsTimesP, BenchmarkSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values<i64>(4, 8,
                                                                   16)));

TEST(DpSolver, Deterministic) {
  const Graph g = models::transformer();
  const DpResult a = find_best_strategy(g, options_for(8));
  const DpResult b = find_best_strategy(g, options_for(8));
  EXPECT_EQ(a.best_cost, b.best_cost);
  ASSERT_EQ(a.strategy.size(), b.strategy.size());
  for (size_t i = 0; i < a.strategy.size(); ++i)
    EXPECT_EQ(a.strategy[i], b.strategy[i]);
}

TEST(DpSolver, SingleDeviceFindsSerialStrategy) {
  const Graph g = models::alexnet();
  const DpResult dp = find_best_strategy(g, options_for(1));
  ASSERT_EQ(dp.status, DpStatus::kOk);
  for (const Config& c : dp.strategy) EXPECT_EQ(c.degree(), 1);
}

TEST(DpSolver, SingleNodeGraph) {
  Graph g;
  g.add_node(ops::fully_connected("only", 64, 64, 64));
  const DpResult dp = find_best_strategy(g, options_for(8));
  ASSERT_EQ(dp.status, DpStatus::kOk);
  EXPECT_GT(dp.best_cost, 0.0);
  EXPECT_GT(dp.strategy[0].degree(), 1);  // splitting must pay off here
}

// ---- OOM guard (Table I's BF column).

TEST(DpSolver, BreadthFirstOomsOnInception) {
  const Graph g = models::inception_v3();
  const DpResult r =
      find_best_strategy(g, options_for(8, OrderingKind::kBreadthFirst));
  EXPECT_EQ(r.status, DpStatus::kOutOfMemory);
}

TEST(DpSolver, BreadthFirstOomsOnTransformer) {
  const Graph g = models::transformer();
  auto opt = options_for(8, OrderingKind::kBreadthFirst);
  opt.max_table_entries = 1 << 16;  // keep the failing run short
  const DpResult r = find_best_strategy(g, opt);
  EXPECT_EQ(r.status, DpStatus::kOutOfMemory);
}

TEST(DpSolver, GenerateSeqSucceedsWhereBreadthFirstOoms) {
  const Graph g = models::inception_v3();
  EXPECT_EQ(find_best_strategy(g, options_for(8)).status, DpStatus::kOk);
}

TEST(DpSolver, TinyGuardTripsEvenWithGenerateSeq) {
  const Graph g = models::inception_v3();
  auto opt = options_for(8);
  opt.max_combinations = 10;
  EXPECT_EQ(find_best_strategy(g, opt).status, DpStatus::kOutOfMemory);
}

TEST(DpSolver, GuardTripReportsReason) {
  const Graph g = models::inception_v3();
  auto opt = options_for(8);
  opt.max_combinations = 10;
  const DpResult r = find_best_strategy(g, opt);
  EXPECT_EQ(r.status, DpStatus::kOutOfMemory);
  EXPECT_FALSE(r.guard_reason.empty());
}

// ---- Graceful degradation: beam-search fallback on guard trips.

TEST(DpSolver, FallbackProducesValidStrategyOnDenseGraph) {
  // A dense random graph plus a tiny table guard forces the kOutOfMemory
  // path; with the fallback enabled the solver must degrade, not die.
  const Graph g = testing::random_graph(10, 20, 11);
  DpOptions opt = options_for(8);
  opt.max_table_entries = 4;  // trips at the first multi-node dependent set
  opt.degraded_fallback = true;
  const DpResult r = find_best_strategy(g, opt);
  ASSERT_EQ(r.status, DpStatus::kDegraded);
  EXPECT_FALSE(r.guard_reason.empty());
  EXPECT_TRUE(strategy_valid(g, r.strategy, opt.config_options));
  // The reported cost is the real Eq. (1) evaluation of the strategy.
  const CostModel cm(g, opt.cost_params);
  EXPECT_NEAR(cm.total_cost(r.strategy), r.best_cost, 1e-9 * r.best_cost);
}

TEST(DpSolver, FallbackWithinTenPercentOfBruteForce) {
  // Small reference graphs where the true optimum is computable: the
  // degraded answer must land within 10% of it.
  for (u64 seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    const Graph g = testing::random_graph(6, 6, seed);
    DpOptions opt = options_for(4);
    opt.max_combinations = 10;  // force the guard on every graph
    opt.degraded_fallback = true;
    const DpResult r = find_best_strategy(g, opt);
    ASSERT_EQ(r.status, DpStatus::kDegraded) << "seed " << seed;
    EXPECT_TRUE(strategy_valid(g, r.strategy, opt.config_options));
    const auto bf = brute_force_search(g, opt.config_options, opt.cost_params);
    ASSERT_TRUE(bf.has_value());
    EXPECT_LE(r.best_cost, 1.10 * bf->best_cost) << "seed " << seed;
    EXPECT_GE(r.best_cost, bf->best_cost * (1 - 1e-9)) << "seed " << seed;
  }
}

TEST(DpSolver, FallbackSolvesBreadthFirstInception) {
  // The paper's Table I failure case: BF ordering OOMs on InceptionV3. With
  // graceful degradation the same run yields a usable strategy.
  const Graph g = models::inception_v3();
  auto opt = options_for(8, OrderingKind::kBreadthFirst);
  opt.degraded_fallback = true;
  opt.beam_width = 64;  // keep the 218-node fallback fast
  const DpResult r = find_best_strategy(g, opt);
  ASSERT_EQ(r.status, DpStatus::kDegraded);
  EXPECT_TRUE(strategy_valid(g, r.strategy, opt.config_options));
  // Degraded but useful: no worse than plain data parallelism.
  const CostModel cm(g, opt.cost_params);
  EXPECT_LE(r.best_cost,
            cm.total_cost(data_parallel_strategy(g, 8)) * (1 + 1e-9));
}

TEST(DpSolver, FallbackIsDeterministic) {
  const Graph g = testing::random_graph(10, 20, 11);
  DpOptions opt = options_for(8);
  opt.max_table_entries = 4;
  opt.degraded_fallback = true;
  const DpResult a = find_best_strategy(g, opt);
  const DpResult b = find_best_strategy(g, opt);
  ASSERT_EQ(a.status, DpStatus::kDegraded);
  EXPECT_EQ(a.best_cost, b.best_cost);
  ASSERT_EQ(a.strategy.size(), b.strategy.size());
  for (size_t i = 0; i < a.strategy.size(); ++i)
    EXPECT_EQ(a.strategy[i], b.strategy[i]);
}

TEST(DpSolver, DeadlineExpiresIntoFallback) {
  const Graph g = models::inception_v3();
  auto opt = options_for(8);
  opt.deadline_seconds = 1e-9;  // expires immediately
  opt.degraded_fallback = true;
  opt.beam_width = 64;
  const DpResult r = find_best_strategy(g, opt);
  ASSERT_EQ(r.status, DpStatus::kDegraded);
  EXPECT_NE(r.guard_reason.find("deadline"), std::string::npos)
      << r.guard_reason;
  EXPECT_TRUE(strategy_valid(g, r.strategy, opt.config_options));
}

TEST(DpSolver, DeadlineWithoutFallbackFailsWithReason) {
  const Graph g = models::alexnet();
  auto opt = options_for(8);
  opt.deadline_seconds = 1e-9;
  const DpResult r = find_best_strategy(g, opt);
  EXPECT_EQ(r.status, DpStatus::kOutOfMemory);
  EXPECT_NE(r.guard_reason.find("deadline"), std::string::npos);
  EXPECT_EQ(r.trip_cause, DpResult::TripCause::kDeadline);
}

TEST(DpSolver, DeadlineHonoredInsideSingleLargeVertex) {
  // Granularity regression: with the guards lifted and every split factor
  // allowed (not only powers of two; K = 300), InceptionV3 at p = 32
  // spends its time *inside* individual vertices (large t_x matrices,
  // large substrategy tables x large config sets; the full solve takes
  // seconds), so a solver that only checked the deadline between vertices
  // would overrun a tight budget by orders of magnitude. The amortized
  // in-loop checks must trip it promptly mid-vertex.
  const Graph g = models::inception_v3();
  auto opt = options_for(32);
  opt.config_options.powers_of_two_only = false;
  opt.max_table_entries = u64{1} << 40;  // don't let the guards fire first
  opt.max_combinations = u64{1} << 50;
  opt.deadline_seconds = 0.05;
  opt.degraded_fallback = true;
  opt.beam_width = 32;
  const DpResult r = find_best_strategy(g, opt);
  ASSERT_EQ(r.status, DpStatus::kDegraded) << r.guard_reason;
  EXPECT_EQ(r.trip_cause, DpResult::TripCause::kDeadline);
  EXPECT_NE(r.guard_reason.find("deadline"), std::string::npos);
  // "Promptly": the in-loop checks bound the overrun to a few thousand
  // combinations plus the beam fallback.
  EXPECT_LT(r.elapsed_seconds, 10.0);
  EXPECT_TRUE(strategy_valid(g, r.strategy, opt.config_options));
}

TEST(DpSolver, PreSetCancelTokenAbortsWithCancelledCause) {
  const Graph g = models::alexnet();
  std::atomic<bool> cancel{true};  // cancelled before the solve starts
  auto opt = options_for(8);
  opt.cancel = &cancel;
  const DpResult r = find_best_strategy(g, opt);
  EXPECT_EQ(r.status, DpStatus::kOutOfMemory);
  EXPECT_EQ(r.trip_cause, DpResult::TripCause::kCancelled);
  EXPECT_NE(r.guard_reason.find("cancelled"), std::string::npos);

  // Cancellation beats the fallback too: the beam search honors the token,
  // so no strategy comes back even in degraded mode.
  opt.degraded_fallback = true;
  const DpResult rf = find_best_strategy(g, opt);
  EXPECT_EQ(rf.status, DpStatus::kOutOfMemory);
  EXPECT_EQ(rf.trip_cause, DpResult::TripCause::kCancelled);
  EXPECT_TRUE(rf.strategy.empty());
}

TEST(DpSolver, GuardTripsReportStructuralCauses) {
  const Graph g = models::inception_v3();
  auto opt = options_for(8);
  opt.max_table_entries = 4;  // absurdly small: first big vertex trips it
  const DpResult table = find_best_strategy(g, opt);
  EXPECT_EQ(table.status, DpStatus::kOutOfMemory);
  EXPECT_EQ(table.trip_cause, DpResult::TripCause::kTableGuard);

  opt = options_for(8);
  opt.max_combinations = 4;
  const DpResult work = find_best_strategy(g, opt);
  EXPECT_EQ(work.status, DpStatus::kOutOfMemory);
  EXPECT_EQ(work.trip_cause, DpResult::TripCause::kWorkGuard);
}

TEST(DpSolver, InfeasibleBeatsFallback) {
  // An unsatisfiable admission filter is a modeling problem, not a resource
  // problem: the solver must keep reporting kInfeasible, never degrade.
  const Graph g = models::alexnet();
  auto opt = options_for(8);
  opt.degraded_fallback = true;
  opt.config_options.filter = [](const Node&, const Config&) {
    return false;
  };
  EXPECT_EQ(find_best_strategy(g, opt).status, DpStatus::kInfeasible);
}

// ---- Diagnostics.

TEST(DpSolver, ReportsDependentSetSizes) {
  const Graph g = models::inception_v3();
  const DpResult r = find_best_strategy(g, options_for(8));
  ASSERT_EQ(static_cast<i64>(r.dependent_set_sizes.size()), g.num_nodes());
  i64 m = 0;
  for (i64 s : r.dependent_set_sizes) m = std::max(m, s);
  EXPECT_EQ(m, r.max_dependent_set);
  EXPECT_LE(m, 2);  // paper §III-C: |D(i) u {v}| <= 3
}

TEST(DpSolver, ReportsKAndWork) {
  const Graph g = models::alexnet();
  const DpResult r = find_best_strategy(g, options_for(8));
  EXPECT_GT(r.max_configs, 1);
  EXPECT_GT(r.max_combinations_analyzed, 0u);
  EXPECT_GE(r.elapsed_seconds, 0.0);
}

TEST(DpSolver, BackSubstitutionSurvivesDeepChains) {
  // transformer_stack(25000) is a chain of 150 004 positions whose S(i)
  // anchors nest once per layer: a back-substitution that recursed once
  // per anchor overflowed the default 8 MB stack long before the end.
  const Graph g = models::transformer_stack(25000);
  ASSERT_EQ(g.num_nodes(), 150004);
  const DpOptions opt = options_for(2);
  const DpResult r = find_best_strategy(g, opt);
  ASSERT_EQ(r.status, DpStatus::kOk);
  EXPECT_TRUE(strategy_valid(g, r.strategy, opt.config_options));
  const CostModel cm(g, opt.cost_params);
  EXPECT_NEAR(cm.total_cost(r.strategy), r.best_cost, 1e-9 * r.best_cost);
}

TEST(DpSolver, CostDecreasesWithMoreDevices) {
  const Graph g = models::alexnet();
  double prev = std::numeric_limits<double>::infinity();
  for (i64 p : {1LL, 2LL, 4LL, 8LL, 16LL}) {
    const double c = find_best_strategy(g, options_for(p)).best_cost;
    EXPECT_LE(c, prev * (1 + 1e-9)) << "p=" << p;
    prev = c;
  }
}

}  // namespace
}  // namespace pase
