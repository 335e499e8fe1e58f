#include "search/mcmc.h"

#include <cmath>

#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace pase {

namespace {

/// One Metropolis chain (the seed implementation, unchanged): random node,
/// random configuration, accept on improvement or with the Boltzmann
/// probability. Reads `configs`/`cost` concurrently with other chains
/// (both are const and thread-safe); all mutable state is chain-local.
McmcResult run_chain(const Graph& graph, const ConfigCache& configs,
                     const CostModel& cost, const Strategy& initial,
                     const McmcOptions& options, u64 seed) {
  Rng rng(seed);

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

    // Propose: random node, random configuration.
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
  return result;
}

}  // namespace

McmcResult mcmc_search(const Graph& graph,
                       const ConfigOptions& config_options,
                       const CostParams& cost_params, const Strategy& initial,
                       const McmcOptions& options) {
  WallTimer timer;
  const ConfigCache configs(graph, config_options);

  const CostModel cost(graph, cost_params);

  const u64 chains = std::max<u64>(1, options.num_chains);
  std::vector<McmcResult> per_chain(chains);

  const i64 threads = ThreadPool::resolve(options.num_threads);
  if (chains > 1 && threads > 1) {
    ThreadPool pool(threads);
    // One task per chain; chain c is fully determined by seed + c, so the
    // assignment of chains to workers cannot influence any result.
    pool.parallel_for(0, static_cast<i64>(chains), 1, [&](i64 c0, i64 c1) {
      for (i64 c = c0; c < c1; ++c)
        per_chain[static_cast<size_t>(c)] =
            run_chain(graph, configs, cost, initial, options,
                      options.seed + static_cast<u64>(c));
    });
  } else {
    for (u64 c = 0; c < chains; ++c)
      per_chain[static_cast<size_t>(c)] = run_chain(
          graph, configs, cost, initial, options, options.seed + c);
  }

  // Reduce in chain order: strict less-than keeps the lowest-index winner.
  McmcResult result = per_chain[0];
  result.winning_chain = 0;
  for (u64 c = 1; c < chains; ++c) {
    if (per_chain[c].best_cost < result.best_cost) {
      result.best_cost = per_chain[c].best_cost;
      result.best_strategy = per_chain[c].best_strategy;
      result.winning_chain = c;
    }
    result.iterations += per_chain[c].iterations;
    result.accepted += per_chain[c].accepted;
  }
  result.elapsed_seconds = timer.elapsed_seconds();
  return result;
}

}  // namespace pase
