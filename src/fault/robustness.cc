#include "fault/robustness.h"

#include <cmath>

#include "hetero/hetero.h"
#include "util/check.h"

namespace pase {

RobustnessReport evaluate_robustness(const Graph& graph,
                                     const MachineSpec& healthy,
                                     const Strategy& phi,
                                     const FaultModel& model,
                                     i64 num_scenarios,
                                     CommModelKind comm_kind) {
  PASE_CHECK(num_scenarios >= 1);
  RobustnessReport report;
  report.num_scenarios = num_scenarios;

  const Simulator healthy_sim(graph, healthy, comm_kind);
  report.healthy = healthy_sim.simulate(phi);

  const MachineSpec degraded_machine = model.perturb(healthy);
  const Simulator degraded_sim(graph, degraded_machine, comm_kind);
  report.degraded = degraded_sim.simulate(phi);
  report.checkpoint_overhead_s =
      model.checkpoint_overhead_s(report.degraded.step_time_s);

  double sum = 0.0, sum_sq = 0.0;
  for (i64 k = 0; k < num_scenarios; ++k) {
    const SimPerturbation pert =
        model.scenario_perturbation(static_cast<u64>(k));
    const double sim_s =
        degraded_sim.simulate(phi, nullptr, &pert).step_time_s;
    const double total_s = sim_s + model.checkpoint_overhead_s(sim_s);
    sum += total_s;
    sum_sq += total_s * total_s;
    report.worst_step_time_s = std::max(report.worst_step_time_s, total_s);
  }
  const double n = static_cast<double>(num_scenarios);
  report.mean_step_time_s = sum / n;
  const double var =
      std::max(0.0, sum_sq / n - report.mean_step_time_s *
                                     report.mean_step_time_s);
  report.stddev_s = std::sqrt(var);
  return report;
}

RobustnessReport evaluate_robustness_with_resolve(
    const Graph& graph, const MachineSpec& healthy, const Strategy& phi,
    const FaultModel& model, const DpOptions& solve_options,
    i64 num_scenarios, CommModelKind comm_kind) {
  RobustnessReport report = evaluate_robustness(graph, healthy, phi, model,
                                                num_scenarios, comm_kind);

  // Re-solve against the machine the faults actually left us with. A
  // straggler-degraded cluster *is* a heterogeneous machine (DESIGN.md
  // §13), so the re-solve goes through hetero_cost_params — the same path
  // a plain solve on that machine takes (for a fault that degrades every
  // device equally the spec stays uniform and this is the legacy params,
  // bit-identically).
  const MachineSpec degraded_machine = model.perturb(healthy);
  DpOptions options = solve_options;
  options.cost_params = hetero_cost_params(degraded_machine, comm_kind);
  const DpResult result = find_best_strategy(graph, options);

  report.resolved = true;
  report.resolve_status = result.status;
  report.resolve_seconds = result.elapsed_seconds;
  if (result.status == DpStatus::kOk || result.status == DpStatus::kDegraded) {
    report.resolve_strategy = result.strategy;
    const Simulator degraded_sim(graph, degraded_machine, comm_kind);
    report.resolve_degraded = degraded_sim.simulate(result.strategy);
  }
  return report;
}

}  // namespace pase
