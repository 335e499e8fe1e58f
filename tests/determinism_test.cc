// Determinism contract for the parallel DP solver: at every thread count
// the chosen strategy, its cost and the solver status must be
// bit-identical to the sequential run (see docs/ARCHITECTURE.md and the
// contract comments in core/dp_solver.h and util/thread_pool.h).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/dp_solver.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "obs/trace.h"

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
  // 3 threads: the fan-out's grain is then no multiple of the reduce's
  // innermost radix, so chunks start mid-block.
  for (const Case& c : cases) {
    for (const i64 p : {8, 64}) {
      const DpResult base = find_best_strategy(c.graph, options_for(p, 1));
      for (const i64 threads : {2, 3, 8}) {
        const DpResult r =
            find_best_strategy(c.graph, options_for(p, threads));
        ASSERT_EQ(r.status, base.status)
            << c.name << " p=" << p << " threads=" << threads;
        // Exact double equality on purpose: the contract is bit-identical,
        // not approximately equal.
        EXPECT_EQ(r.best_cost, base.best_cost)
            << c.name << " p=" << p << " threads=" << threads;
        EXPECT_EQ(r.strategy, base.strategy)
            << c.name << " p=" << p << " threads=" << threads;
        EXPECT_EQ(r.threads_used, threads) << c.name;
      }
    }
  }
}

TEST(Determinism, StructuralMetricsIdenticalAcrossThreadCounts) {
  // The observability contract (src/obs/metrics.h, DESIGN.md §9): every
  // counter and histogram the solver records — per-class price reuse,
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
    EXPECT_EQ(r.dependent_set_sizes, base.dependent_set_sizes)
        << "threads=" << threads;
    EXPECT_EQ(r.max_combinations_analyzed, base.max_combinations_analyzed)
        << "threads=" << threads;
  }
}

TEST(Determinism, DpSolverCacheDoesNotChangeResults) {
  // Threading and the observability sinks compose: 8 threads with metrics
  // and a trace attached must still match a bare 1-thread solve.
  const Graph g = models::inception_v3();
  const DpOptions plain = options_for(8, 1);
  MetricsRegistry reg;
  TraceSession session;
  DpOptions fancy = options_for(8, 8);
  fancy.metrics = &reg;
  fancy.trace = &session;
  const DpResult a = find_best_strategy(g, plain);
  const DpResult b = find_best_strategy(g, fancy);
  ASSERT_EQ(a.status, b.status);
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.strategy, b.strategy);
}

}  // namespace
}  // namespace pase
