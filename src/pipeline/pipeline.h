// Inter-batch pipeline parallelism composed with PaSE (paper §VI):
//
//   "the computation graph can be first split into multiple stages using
//    the formulation proposed in [PipeDream] to achieve inter-batch
//    pipeline parallelism, and the subgraphs from each stage can be further
//    parallelized with data+parameter parallelism using our approach."
//
// This module implements that composition. A pipeline partition cuts a
// fixed topological order of the graph into contiguous stages; each stage
// gets an equal share of the devices and its subgraph is parallelized by
// FindBestStrategy. Stage boundaries are chosen by dynamic programming to
// minimize the pipeline bottleneck (the steady-state step time of a
// PipeDream-style pipeline is governed by its slowest stage plus the
// activations it forwards).
#pragma once

#include <vector>

#include "core/dp_solver.h"
#include "cost/machine.h"
#include "graph/graph.h"
#include "util/types.h"

namespace pase {

struct PipelineOptions {
  /// Stage counts to consider; each must divide the device count. The best
  /// count (including 1 = no pipeline, pure PaSE) is selected.
  std::vector<i64> stage_counts = {1, 2, 4};
  /// Micro-batches in flight; fill/drain overhead multiplies the bottleneck
  /// by (microbatches + stages - 1) / microbatches.
  i64 microbatches = 8;
  /// Per-stage strategy search settings (max_devices is set per stage).
  DpOptions solver;
};

struct PipelineStage {
  std::vector<NodeId> nodes;  ///< original-graph ids, topological order
  Strategy strategy;          ///< configs indexed like `nodes`
  double compute_seconds = 0.0;   ///< Eq. (1) cost of the stage / F
  double transfer_seconds = 0.0;  ///< activations forwarded to the next stage
  double seconds() const { return compute_seconds + transfer_seconds; }
};

struct PipelineResult {
  /// Empty = no feasible partition (no requested stage count divides the
  /// device count and fits the boundary budget, or every interval solve
  /// failed under the memory filter / cancellation token).
  std::vector<PipelineStage> stages;
  i64 devices_per_stage = 0;
  double bottleneck_seconds = 0.0;  ///< slowest stage, steady state
  /// Estimated per-step time including fill/drain overhead.
  double step_seconds = 0.0;
  /// Step time of the best single-stage (pure PaSE) alternative, for
  /// comparison.
  double no_pipeline_seconds = 0.0;
};

/// Partitions `graph` into pipeline stages and parallelizes each stage with
/// FindBestStrategy, evaluating every requested stage count and returning
/// the best. The machine's devices are split evenly across stages.
PipelineResult partition_pipeline(const Graph& graph, const MachineSpec& m,
                                  const PipelineOptions& options);

/// The pipeline-stage dimension of the searched strategy space
/// (--pipeline-stages): how many stages the graph-partition axis may use.
struct PipelineSearchOptions {
  /// 1 = no pipelining — find_best_strategy verbatim, bitwise (the
  /// default); 0 = auto (every power-of-two stage count dividing the
  /// device count, up to 8); N > 1 = exactly N stages (must divide the
  /// device count).
  i64 stages = 1;
  /// Micro-batches in flight (fill/drain overhead).
  i64 microbatches = 8;
};

/// find_best_strategy generalized with the inter-stage pipeline dimension.
/// Unlike the per-layer split dims, pipelining is a graph-partition choice:
/// one cut assignment for the whole graph, searched by the boundary DP of
/// partition_pipeline, with each stage's subgraph re-parallelized under
/// `solver` (split-dim gates included) on its share of the devices.
struct PipelinedSearchResult {
  /// Full-graph result. stages == 1: find_best_strategy's DpResult,
  /// bit-identical. stages > 1: strategy is the per-stage configs scattered
  /// back to original node ids, best_cost its Eq. (1) evaluation,
  /// elapsed_seconds the whole search's wall time.
  DpResult dp;
  i64 stages = 1;
  i64 devices_per_stage = 0;
  /// Chosen stage partition; empty when stages == 1.
  std::vector<PipelineStage> stage_details;
  double bottleneck_seconds = 0.0;   ///< slowest stage, steady state
  double step_seconds = 0.0;         ///< pipeline step estimate (fill/drain in)
  double no_pipeline_seconds = 0.0;  ///< single-stage reference
};

/// Searches the pipeline-stage dimension. `solver.config_options
/// .max_devices` is overridden per stage; all other solver options (cost
/// params, split-dim gates, threads, guards) thread through to every stage
/// solve. With popts.stages == 1 this is find_best_strategy plus two
/// derived seconds fields — the disabled-dimension bitwise contract.
PipelinedSearchResult find_best_pipelined_strategy(
    const Graph& graph, const MachineSpec& m, const DpOptions& solver,
    const PipelineSearchOptions& popts);

/// Builds the subgraph induced by `nodes` (which must be closed under the
/// original graph's edges in the sense that only edges with both endpoints
/// inside are kept). `remap[v]` receives the new id of original node v.
Graph induced_subgraph(const Graph& graph, const std::vector<NodeId>& nodes,
                       std::vector<NodeId>& remap);

}  // namespace pase
