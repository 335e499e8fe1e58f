// FlexFlow-style Markov-Chain-Monte-Carlo strategy search (paper §IV):
// random-walk over the same configuration space the DP explores, Metropolis
// acceptance, started from an expert-designed candidate as [7, §6.2]
// suggests. The paper's stop criteria are implemented: the search ends when
// it has not improved the best discovered strategy for half the search so
// far, or after max_iterations (250,000 in the paper).
//
// FlexFlow evaluates each candidate with an execution simulator rather than
// an O(degree) incremental delta; `full_evaluation` (default on) mirrors
// that cost profile, which is what makes MCMC orders of magnitude slower
// than the DP in Table I. Turning it off gives the incremental-evaluation
// ablation.
#pragma once

#include <functional>

#include "config/config_enum.h"
#include "cost/cost_model.h"
#include "graph/graph.h"
#include "util/types.h"

namespace pase {

struct McmcOptions {
  u64 max_iterations = 250000;
  u64 seed = 1;
  /// Metropolis temperature as a fraction of the initial strategy cost.
  double temperature_fraction = 0.02;
  /// Stop when no improvement for half the iterations so far (after a
  /// minimum warm-up), matching [7, §6.2].
  bool stop_half_no_improvement = true;
  u64 min_iterations = 10000;
  /// Re-evaluate the full cost function each step (FlexFlow-like simulator
  /// cost profile) instead of applying an incremental delta.
  bool full_evaluation = true;

  /// Optional custom objective evaluated per candidate (e.g. the
  /// discrete-event simulator's step time — FlexFlow's actual architecture
  /// is exactly MCMC over an execution simulator). When set, it overrides
  /// the analytical cost function and forces full evaluation. It is called
  /// on the calling thread only.
  std::function<double(const Strategy&)> objective;
};

struct McmcResult {
  double best_cost = 0.0;
  Strategy best_strategy;
  u64 iterations = 0;
  u64 accepted = 0;
  double elapsed_seconds = 0.0;
};

/// Runs one Metropolis chain starting from `initial` (must be valid under
/// `config_options`). Deterministic for a fixed seed.
McmcResult mcmc_search(const Graph& graph,
                       const ConfigOptions& config_options,
                       const CostParams& cost_params, const Strategy& initial,
                       const McmcOptions& options);

}  // namespace pase
