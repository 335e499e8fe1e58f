#include "search/mcmc.h"

#include <cmath>

#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace pase {

McmcResult mcmc_search(const Graph& graph,
                       const ConfigOptions& config_options,
                       const CostParams& cost_params, const Strategy& initial,
                       const McmcOptions& options) {
  WallTimer timer;
  const ConfigCache configs(graph, config_options);
  const CostModel cost(graph, cost_params);
  Rng rng(options.seed);

  const auto evaluate = [&](const Strategy& phi) {
    return options.objective ? options.objective(phi)
                             : cost.total_cost(phi);
  };

  Strategy current = initial;
  PASE_CHECK(static_cast<i64>(current.size()) == graph.num_nodes());
  double current_cost = evaluate(current);

  McmcResult result;
  result.best_cost = current_cost;
  result.best_strategy = current;

  const double temperature =
      std::max(options.temperature_fraction * current_cost, 1e-30);

  u64 last_improvement = 0;
  u64 iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    if (options.stop_half_no_improvement && iter > options.min_iterations &&
        (iter - last_improvement) * 2 > iter)
      break;

    // Propose: random node, random configuration; accept on improvement or
    // with the Boltzmann probability.
    const NodeId v =
        static_cast<NodeId>(rng.uniform(static_cast<u64>(graph.num_nodes())));
    const auto& list = configs.at(v);
    const Config proposal = list[rng.uniform(list.size())];
    if (proposal == current[static_cast<size_t>(v)]) continue;

    double delta;
    if (options.full_evaluation || options.objective) {
      const Config saved = current[static_cast<size_t>(v)];
      current[static_cast<size_t>(v)] = proposal;
      delta = evaluate(current) - current_cost;
      current[static_cast<size_t>(v)] = saved;
    } else {
      delta = cost.delta_cost(current, v, proposal);
    }

    const bool accept =
        delta < 0.0 || rng.uniform_double() < std::exp(-delta / temperature);
    if (!accept) continue;

    current[static_cast<size_t>(v)] = proposal;
    current_cost += delta;
    ++result.accepted;
    if (current_cost < result.best_cost) {
      result.best_cost = current_cost;
      result.best_strategy = current;
      last_improvement = iter;
    }
  }

  result.iterations = iter;
  // Guard against accumulated floating-point drift in delta mode.
  result.best_cost = evaluate(result.best_strategy);
  result.elapsed_seconds = timer.elapsed_seconds();
  return result;
}

}  // namespace pase
