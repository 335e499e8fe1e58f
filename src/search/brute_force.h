// Exhaustive strategy search (paper §III-A's naive method, without the DP).
// Exponential in |V| — only usable on small graphs, where it provides the
// ground truth that the DP solver is verified against (Theorem 1 tests).
//
// Parallel sweep: the strategy space is a cross product of per-node
// configuration lists, so each strategy has a mixed-radix linear index.
// With num_threads != 1 the index range is chunked and swept on a
// thread pool; chunks are reduced in index order and ties broken by
// the lower strategy index, which is exactly the sequential loop's
// first-strict-improvement rule — the result is bit-identical at any
// thread count. Safe to call concurrently from multiple threads.
#pragma once

#include <optional>

#include "config/config_enum.h"
#include "cost/cost_model.h"
#include "graph/graph.h"
#include "util/types.h"

namespace pase {

struct BruteForceResult {
  double best_cost = 0.0;
  Strategy best_strategy;
  u64 strategies_evaluated = 0;
};

/// Enumerates every valid strategy and returns the minimum-cost one.
/// Returns nullopt if the total strategy count exceeds `max_strategies`.
/// `num_threads`: 1 = sequential, 0 = hardware concurrency, N = exactly N.
std::optional<BruteForceResult> brute_force_search(
    const Graph& graph, const ConfigOptions& config_options,
    const CostParams& cost_params, u64 max_strategies = u64{1} << 26,
    i64 num_threads = 1);

}  // namespace pase
