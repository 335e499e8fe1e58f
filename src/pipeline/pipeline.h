// Inter-batch pipeline parallelism composed with PaSE (paper §VI):
//
//   "the computation graph can be first split into multiple stages using
//    the formulation proposed in [PipeDream] to achieve inter-batch
//    pipeline parallelism, and the subgraphs from each stage can be further
//    parallelized with data+parameter parallelism using our approach."
//
// find_best_pipelined_strategy is that composition, the one entry point
// for the pipeline-stage dimension. A pipeline partition cuts a fixed
// topological order of the graph into contiguous stages; each stage gets
// an equal share of the devices and its subgraph is parallelized by
// FindBestStrategy. Stage boundaries are chosen by dynamic programming to
// minimize the pipeline bottleneck (the steady-state step time of a
// PipeDream-style pipeline is governed by its slowest stage plus the
// activations it forwards).
#pragma once

#include <algorithm>
#include <vector>

#include "core/dp_solver.h"
#include "cost/machine.h"
#include "graph/graph.h"
#include "util/types.h"

namespace pase {

/// The boundary DP cuts the topological order only at multiples of
/// max(1, layers / kPipelineCuts), so it never weighs more than about this
/// many candidate cuts (the interval solves grow with their square).
inline constexpr i64 kPipelineCuts = 24;

/// The largest stage count the boundary DP takes for a graph of `layers`
/// nodes: a stage holds at least one node, and the coarsened boundaries
/// always leave at least this many intervals.
inline i64 max_pipeline_stages(i64 layers) {
  return std::min(layers, kPipelineCuts);
}

struct PipelineStage {
  std::vector<NodeId> nodes;  ///< original-graph ids, topological order
  Strategy strategy;          ///< configs indexed like `nodes`
  double compute_seconds = 0.0;   ///< Eq. (1) cost of the stage, in seconds
  double transfer_seconds = 0.0;  ///< activations forwarded to the next stage
  i64 max_configs = 0;            ///< K of the stage's solve
  i64 max_dependent_set = 0;      ///< M of the stage's solve
  double seconds() const { return compute_seconds + transfer_seconds; }
};

/// The pipeline-stage dimension of the searched strategy space
/// (--pipeline-stages): how many stages the graph-partition axis may use.
struct PipelineSearchOptions {
  /// 1 = no pipelining — find_best_strategy verbatim, bitwise (the
  /// default); 0 = auto (every power-of-two stage count dividing the
  /// device count, up to 8, 1 included); N > 1 = exactly N stages (must
  /// divide the device count; more than max_pipeline_stages(layers) is
  /// infeasible).
  i64 stages = 1;
  /// Micro-batches in flight; fill/drain overhead multiplies the bottleneck
  /// by (microbatches + stages - 1) / microbatches.
  i64 microbatches = 8;
};

/// find_best_strategy generalized with the inter-stage pipeline dimension.
/// Unlike the per-layer split dims, pipelining is a graph-partition choice:
/// one cut assignment for the whole graph, searched by the boundary DP,
/// with each stage's subgraph re-parallelized under `solver` (split-dim
/// gates included) on its share of the devices. Every seconds field is
/// an Eq. (1) cost divided by `solver.cost_params.seconds_to_flops`, the
/// scale the cost model prices compute at.
struct PipelinedSearchResult {
  /// Full-graph result. PipelineSearchOptions::stages == 1:
  /// find_best_strategy's DpResult, bit-identical. Otherwise (a searched
  /// stage count, even one that settles on one stage): strategy is the
  /// per-stage configs scattered back to original node ids, best_cost its
  /// Eq. (1) evaluation, max_configs and max_dependent_set the largest over
  /// the stage solves, threads_used the solver's, elapsed_seconds the whole
  /// search's wall time. kInfeasible when no partition exists (no interval
  /// solve succeeded, or too many stages for the graph). When any solve of
  /// the search tripped a guard or the deadline, or never ran because the
  /// deadline was spent, kDegraded with a guard_reason naming the pipeline
  /// partition, and, if the trip left no partition whole, the single-stage
  /// solve's strategy (stages == 1); kOutOfMemory, with no strategy, under
  /// the cancellation token or without DpOptions::degraded_fallback.
  DpResult dp;
  i64 stages = 1;
  i64 devices_per_stage = 0;
  /// Chosen stage partition; empty when PipelineSearchOptions::stages == 1.
  std::vector<PipelineStage> stage_details;
  double bottleneck_seconds = 0.0;   ///< slowest stage, steady state
  double step_seconds = 0.0;         ///< pipeline step estimate (fill/drain in)
  /// Single-stage reference; 0 unless its solve was exact.
  double no_pipeline_seconds = 0.0;
};

/// Searches the pipeline-stage dimension. `solver.config_options
/// .max_devices` is overridden per stage; all other solver options (cost
/// params, split-dim gates, threads, guards) thread through to every stage
/// solve, except that `solver.deadline_seconds` bounds the whole search:
/// each solve gets what remains of it, and none starts once it is spent.
/// With popts.stages == 1 this is find_best_strategy plus the derived
/// seconds fields — the disabled-dimension bitwise contract.
PipelinedSearchResult find_best_pipelined_strategy(
    const Graph& graph, const MachineSpec& m, const DpOptions& solver,
    const PipelineSearchOptions& popts);

/// Builds the subgraph induced by `nodes` (which must be closed under the
/// original graph's edges in the sense that only edges with both endpoints
/// inside are kept). `remap[v]` receives the new id of original node v.
Graph induced_subgraph(const Graph& graph, const std::vector<NodeId>& nodes,
                       std::vector<NodeId>& remap);

}  // namespace pase
