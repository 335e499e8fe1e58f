// Determinism contract for the parallel search engines: at every thread
// count the chosen strategy, its cost and the solver status must be
// bit-identical to the sequential run (see docs/ARCHITECTURE.md and the
// contract comments in core/dp_solver.h and util/thread_pool.h).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/dp_solver.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "search/baselines.h"
#include "search/brute_force.h"
#include "search/mcmc.h"
#include "test_util.h"

namespace pase {
namespace {

DpOptions options_for(i64 p, i64 threads) {
  DpOptions o;
  o.config_options.max_devices = p;
  o.cost_params = CostParams::for_machine(MachineSpec::gtx1080ti(p));
  o.num_threads = threads;
  return o;
}

TEST(Determinism, DpSolverIdenticalAcrossThreadCounts) {
  struct Case {
    std::string name;
    Graph graph;
  };
  const Case cases[] = {
      {"alexnet", models::alexnet()},
      {"inception_v3", models::inception_v3()},
      {"transformer", models::transformer()},
      {"transformer_stack_16", models::transformer_stack(16)},
  };
  for (const Case& c : cases) {
    const DpResult base = find_best_strategy(c.graph, options_for(8, 1));
    for (const i64 threads : {2, 8}) {
      const DpResult r = find_best_strategy(c.graph, options_for(8, threads));
      ASSERT_EQ(r.status, base.status) << c.name << " threads=" << threads;
      // Exact double equality on purpose: the contract is bit-identical,
      // not approximately equal.
      EXPECT_EQ(r.best_cost, base.best_cost)
          << c.name << " threads=" << threads;
      EXPECT_EQ(r.strategy, base.strategy)
          << c.name << " threads=" << threads;
      EXPECT_EQ(r.threads_used, threads) << c.name;
    }
  }
}

TEST(Determinism, StructuralMetricsIdenticalAcrossThreadCounts) {
  // The observability contract (src/obs/metrics.h, DESIGN.md §9): every
  // counter and histogram the solver records — cost-cache hits/misses,
  // per-vertex substrategy counts, dependent-set sizes — is a pure function
  // of the input, so the structural JSON dump must be BYTE-identical at any
  // thread count. Gauges (timings) are exempt and not compared.
  const Graph g = models::inception_v3();
  std::string base_json;
  DpResult base;
  for (const i64 threads : {1, 4, 8}) {
    MetricsRegistry reg;
    DpOptions o = options_for(8, threads);
    o.metrics = &reg;
    const DpResult r = find_best_strategy(g, o);
    ASSERT_EQ(r.status, DpStatus::kOk) << "threads=" << threads;
    if (threads == 1) {
      base_json = reg.structural_json();
      base = r;
      continue;
    }
    EXPECT_EQ(reg.structural_json(), base_json) << "threads=" << threads;
    // The same quantities via the solver's own diagnostics.
    EXPECT_EQ(r.cost_cache_hits, base.cost_cache_hits)
        << "threads=" << threads;
    EXPECT_EQ(r.cost_cache_misses, base.cost_cache_misses)
        << "threads=" << threads;
    EXPECT_EQ(r.dependent_set_sizes, base.dependent_set_sizes)
        << "threads=" << threads;
    EXPECT_EQ(r.max_combinations_analyzed, base.max_combinations_analyzed)
        << "threads=" << threads;
  }
}

TEST(Determinism, DpSolverCacheDoesNotChangeResults) {
  // Threading and the cost cache compose: 8 threads + cache must still
  // match 1 thread without the cache.
  const Graph g = models::inception_v3();
  DpOptions plain = options_for(8, 1);
  plain.use_cost_cache = false;
  DpOptions fancy = options_for(8, 8);
  fancy.use_cost_cache = true;
  const DpResult a = find_best_strategy(g, plain);
  const DpResult b = find_best_strategy(g, fancy);
  ASSERT_EQ(a.status, b.status);
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.strategy, b.strategy);
}

TEST(Determinism, BruteForceIdenticalAcrossThreadCounts) {
  const Graph g = testing::random_graph(5, 2, 3);
  ConfigOptions copts;
  copts.max_devices = 4;
  const CostParams params = CostParams::for_machine(MachineSpec::gtx1080ti(4));
  const auto seq = brute_force_search(g, copts, params, u64{1} << 26, 1);
  ASSERT_TRUE(seq.has_value());
  for (const i64 threads : {2, 3, 8}) {
    const auto par =
        brute_force_search(g, copts, params, u64{1} << 26, threads);
    ASSERT_TRUE(par.has_value()) << "threads=" << threads;
    EXPECT_EQ(par->best_cost, seq->best_cost) << "threads=" << threads;
    EXPECT_EQ(par->best_strategy, seq->best_strategy)
        << "threads=" << threads;
    EXPECT_EQ(par->strategies_evaluated, seq->strategies_evaluated)
        << "threads=" << threads;
  }
}

TEST(Determinism, McmcChainsIdenticalAcrossThreadCounts) {
  const Graph g = models::alexnet();
  ConfigOptions copts;
  copts.max_devices = 8;
  const CostParams params = CostParams::for_machine(MachineSpec::gtx1080ti(8));
  const Strategy initial = expert_strategy(g, 8);

  McmcOptions opts;
  opts.max_iterations = 2000;
  opts.min_iterations = 500;
  opts.seed = 17;
  opts.num_chains = 4;

  opts.num_threads = 1;
  const McmcResult seq = mcmc_search(g, copts, params, initial, opts);
  opts.num_threads = 2;
  const McmcResult par = mcmc_search(g, copts, params, initial, opts);

  EXPECT_EQ(par.best_cost, seq.best_cost);
  EXPECT_EQ(par.best_strategy, seq.best_strategy);
  EXPECT_EQ(par.winning_chain, seq.winning_chain);
  EXPECT_EQ(par.iterations, seq.iterations);
}

}  // namespace
}  // namespace pase
