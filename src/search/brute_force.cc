#include "search/brute_force.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "util/thread_pool.h"

namespace pase {

namespace {

/// Decodes strategy linear index `idx` (node 0 = fastest-varying digit)
/// into per-node config indices, filling `odo` and `out`.
void decode_strategy(const ConfigCache& configs, u64 idx,
                     std::vector<u32>& odo, Strategy& out) {
  for (size_t v = 0; v < odo.size(); ++v) {
    const auto& list = configs.at(static_cast<NodeId>(v));
    odo[v] = static_cast<u32>(idx % list.size());
    out[v] = list[odo[v]];
    idx /= list.size();
  }
}

/// Sweeps linear indices [i0, i1), returning the best (cost, index) with
/// the sequential tie-break: the first strictly better strategy wins, i.e.
/// the lowest index among equal-cost optima.
std::pair<double, u64> sweep_range(const ConfigCache& configs,
                                   const CostModel& cost, u64 i0, u64 i1) {
  const size_t n = static_cast<size_t>(configs.num_nodes());
  std::vector<u32> odo(n);
  Strategy current(n);
  decode_strategy(configs, i0, odo, current);

  double best_cost = std::numeric_limits<double>::infinity();
  u64 best_idx = i0;
  for (u64 idx = i0; idx < i1; ++idx) {
    const double c = cost.total_cost(current);
    if (c < best_cost) {
      best_cost = c;
      best_idx = idx;
    }
    // Advance the odometer.
    for (size_t k = 0; k < n; ++k) {
      const auto& list = configs.at(static_cast<NodeId>(k));
      if (++odo[k] < list.size()) {
        current[k] = list[odo[k]];
        break;
      }
      odo[k] = 0;
      current[k] = list[0];
    }
  }
  return {best_cost, best_idx};
}

}  // namespace

std::optional<BruteForceResult> brute_force_search(
    const Graph& graph, const ConfigOptions& config_options,
    const CostParams& cost_params, u64 max_strategies, i64 num_threads) {
  const ConfigCache configs(graph, config_options);
  const CostModel cost(graph, cost_params);

  const i64 n = graph.num_nodes();
  double total_d = 1.0;
  for (NodeId v = 0; v < n; ++v) {
    if (configs.at(v).empty()) return std::nullopt;
    total_d *= static_cast<double>(configs.at(v).size());
  }
  if (total_d > static_cast<double>(max_strategies)) return std::nullopt;
  const u64 total = static_cast<u64>(total_d);

  const i64 threads = ThreadPool::resolve(num_threads);
  std::pair<double, u64> best;
  if (threads > 1 && total >= 1024) {
    ThreadPool pool(threads);
    const i64 grain = std::max<i64>(
        256, ceil_div(static_cast<i64>(total), threads * 8));
    const i64 nchunks = ceil_div(static_cast<i64>(total), grain);
    // Per-chunk results land in chunk-indexed slots; the reduction below
    // walks them in index order, so the chosen strategy is the one the
    // sequential sweep would pick, at any thread count.
    std::vector<std::pair<double, u64>> partial(
        static_cast<size_t>(nchunks));
    pool.parallel_for(0, static_cast<i64>(total), grain, [&](i64 b0, i64 b1) {
      partial[static_cast<size_t>(b0 / grain)] = sweep_range(
          configs, cost, static_cast<u64>(b0), static_cast<u64>(b1));
    });
    best = {std::numeric_limits<double>::infinity(), 0};
    for (const auto& p : partial)
      if (p.first < best.first) best = p;  // ascending index: < keeps lowest
  } else {
    best = sweep_range(configs, cost, 0, total);
  }

  BruteForceResult result;
  result.best_cost = best.first;
  result.strategies_evaluated = total;
  result.best_strategy.resize(static_cast<size_t>(n));
  std::vector<u32> odo(static_cast<size_t>(n));
  decode_strategy(configs, best.second, odo, result.best_strategy);
  return result;
}

}  // namespace pase
