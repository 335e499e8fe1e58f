#include "search/brute_force.h"

#include <limits>
#include <optional>

namespace pase {

std::optional<BruteForceResult> brute_force_search(
    const Graph& graph, const ConfigOptions& config_options,
    const CostParams& cost_params, u64 max_strategies) {
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

  // Odometer over the mixed-radix strategy index, node 0 the
  // fastest-varying digit; the first strictly better strategy wins.
  std::vector<u32> odo(static_cast<size_t>(n), 0);
  Strategy current(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v)
    current[static_cast<size_t>(v)] = configs.at(v)[0];

  BruteForceResult result;
  result.best_cost = std::numeric_limits<double>::infinity();
  result.best_strategy = current;
  result.strategies_evaluated = total;
  for (u64 idx = 0; idx < total; ++idx) {
    const double c = cost.total_cost(current);
    if (c < result.best_cost) {
      result.best_cost = c;
      result.best_strategy = current;
    }
    for (size_t k = 0; k < odo.size(); ++k) {
      const auto& list = configs.at(static_cast<NodeId>(k));
      if (++odo[k] < list.size()) {
        current[k] = list[odo[k]];
        break;
      }
      odo[k] = 0;
      current[k] = list[0];
    }
  }
  return result;
}

}  // namespace pase
