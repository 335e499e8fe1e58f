// Exhaustive strategy search (paper §III-A's naive method, without the DP).
// Exponential in |V| — only usable on small graphs, where it provides the
// ground truth that the DP solver is verified against (Theorem 1 tests).
//
// The strategy space is a cross product of per-node configuration lists,
// so each strategy has a mixed-radix linear index; one odometer sweeps
// them in index order and keeps the first strictly better strategy.
// Safe to call concurrently from multiple threads.
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
std::optional<BruteForceResult> brute_force_search(
    const Graph& graph, const ConfigOptions& config_options,
    const CostParams& cost_params, u64 max_strategies = u64{1} << 26);

}  // namespace pase
