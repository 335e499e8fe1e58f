// Robustness scoring: how a fixed strategy's simulated step time behaves
// when the cluster is unhealthy. A strategy chosen for the ideal machine
// can rank very differently once rank 0 straggles or a NIC degrades —
// wide layers wait on the slow prefix device while narrower or
// differently-split layers shrug it off — so the report is the basis for
// the robustness ranking in bench/ablation_faults.
#pragma once

#include "core/dp_solver.h"
#include "fault/fault_model.h"
#include "graph/graph.h"
#include "sim/simulator.h"
#include "util/types.h"

namespace pase {

struct RobustnessReport {
  SimResult healthy;   ///< ideal machine, no faults
  SimResult degraded;  ///< deterministic faults only (stragglers, links)
  /// Statistics of total per-step time (jittered simulation + amortized
  /// checkpoint/restart overhead) over the scenario distribution.
  double mean_step_time_s = 0.0;
  double worst_step_time_s = 0.0;
  double stddev_s = 0.0;
  /// Dropout overhead at the degraded (jitter-free) step time.
  double checkpoint_overhead_s = 0.0;
  i64 num_scenarios = 0;

  /// Expected slowdown versus the healthy machine; the robustness score
  /// (lower is more robust).
  double slowdown() const { return mean_step_time_s / healthy.step_time_s; }

  // Filled by evaluate_robustness_with_resolve only: what re-running the
  // DP against the *degraded* machine would buy.
  bool resolved = false;            ///< a degraded-machine re-solve ran
  DpStatus resolve_status = DpStatus::kOk;
  Strategy resolve_strategy;        ///< empty unless resolve_status is
                                    ///< kOk/kDegraded
  SimResult resolve_degraded;       ///< adapted strategy, degraded machine
  double resolve_seconds = 0.0;     ///< wall time of the re-solve

  /// Step-time ratio fixed-strategy / adapted-strategy on the degraded
  /// machine (> 1 = adapting to the faults beats keeping phi). 0 when no
  /// re-solve ran or it produced no strategy.
  double adaptation_gain() const {
    if (!resolved || resolve_degraded.step_time_s <= 0.0) return 0.0;
    return degraded.step_time_s / resolve_degraded.step_time_s;
  }
};

/// Simulates `phi` on the healthy machine, on the deterministically
/// degraded machine, and over `num_scenarios` jittered scenarios drawn from
/// `model`'s seed. Deterministic: identical inputs give a bit-identical
/// report. `comm_kind` selects the collective-pricing mode for every
/// simulation (src/comm); because the comm model is rebuilt from each
/// perturbed MachineSpec, link degradation composes with the algorithm
/// library — a degraded NIC slows the inter-node phase of a hierarchical
/// all-reduce, and kAuto may even switch algorithms under faults.
RobustnessReport evaluate_robustness(const Graph& graph,
                                     const MachineSpec& healthy,
                                     const Strategy& phi,
                                     const FaultModel& model,
                                     i64 num_scenarios = 16,
                                     CommModelKind comm_kind =
                                         CommModelKind::kSimple);

/// evaluate_robustness plus a degraded-machine re-solve: re-runs the DP
/// with `solve_options` against model.perturb(healthy) — cost params are
/// overridden to the degraded machine; everything else (ordering, guards,
/// threads) is taken from `solve_options` as-is — and simulates the
/// adapted strategy on the degraded machine. Deterministic for identical
/// inputs (resolve_seconds aside).
RobustnessReport evaluate_robustness_with_resolve(
    const Graph& graph, const MachineSpec& healthy, const Strategy& phi,
    const FaultModel& model, const DpOptions& solve_options,
    i64 num_scenarios = 16,
    CommModelKind comm_kind = CommModelKind::kSimple);

}  // namespace pase
