// FindBestStrategy (paper Fig. 4): dynamic programming over recurrence (4).
//
// For each vertex v^(i) in the sequence, the solver enumerates every valid
// substrategy phi of the dependent set D(i); for each it finds the
// configuration C of v^(i) minimizing
//
//   H(i, phi U {(v^(i),C)}) + sum_{X(j) in S(i)} R(j, phi''),
//
// where H is the layer cost of v^(i) plus its transfer costs to later
// neighbors, and the R(j, .) values are read from the DP tables of the
// connected-subset anchors. D(i) and S(i) come from one pass over the
// sequence (compute_all_vertex_sets), and the H terms are priced once per
// structural class of layer and edge (CostCache::node_class/edge_class):
// vertices of the same class share their t_l vector and t_x matrices.
// Tables are dense vectors indexed by the configuration choices of the
// dependent-set nodes (see dp_solver.cc). A table/work guard reports the same
// out-of-memory outcome the paper observes for breadth-first ordering on
// InceptionV3 and Transformer (Table I) without actually exhausting RAM;
// with DpOptions::degraded_fallback, a tripped guard (or an expired
// wall-clock deadline) instead degrades gracefully to a bounded beam search
// over the same vertex ordering and costs, returning a valid but possibly
// suboptimal strategy with status kDegraded.
//
// Parallel execution and determinism contract
// -------------------------------------------
// The per-vertex inner loop of recurrence (4) is embarrassingly parallel:
// every substrategy phi of D(i) is evaluated independently and written to
// its own slot of a dense mixed-radix table (earlier vertices' tables are
// only read). With DpOptions::num_threads != 1 the solver fans these
// evaluations across a work-stealing ThreadPool, decomposing the phi index
// range into fixed chunks by index — never by scheduling — and each phi's
// minimization scans configurations in enumeration order with strict
// less-than, exactly as the sequential loop does. Consequently the returned
// strategy, cost, status and diagnostics are BIT-IDENTICAL at every thread
// count (verified by tests/determinism_test.cc); only elapsed_seconds
// varies. The cost-model memoization cache (DpOptions::use_cost_cache) is
// likewise invisible in the results: cost functions are pure, so cache hits
// return the same bits a recomputation would.
//
// find_best_strategy() itself is a pure function of (graph, options) plus
// wall-clock effects (deadline): concurrent calls from different threads
// are safe, as each call owns all of its mutable state.
#pragma once

#include <atomic>
#include <limits>
#include <string>
#include <vector>

#include "config/config_enum.h"
#include "core/ordering.h"
#include "cost/cost_model.h"
#include "graph/graph.h"
#include "util/types.h"

namespace pase {

class MetricsRegistry;
class TraceSession;

struct DpOptions {
  ConfigOptions config_options;
  CostParams cost_params;
  OrderingKind ordering = OrderingKind::kGenerateSeq;

  /// OOM guard: maximum substrategy-table entries for a single vertex.
  u64 max_table_entries = u64{1} << 23;
  /// Work guard: maximum (substrategies x configurations) combinations
  /// analyzed for a single vertex.
  u64 max_combinations = u64{2} << 30;

  /// Wall-clock budget for the exact DP; 0 = unlimited. Expiry is treated
  /// like a tripped guard (fallback or kOutOfMemory). Checked between
  /// vertices, inside the precompute loops, and (amortized, every few
  /// thousand combinations) inside the table-fill inner loop, so even a
  /// single-large-vertex model honors a tight budget promptly.
  double deadline_seconds = 0.0;
  /// Optional external cancellation token (e.g. a serving watchdog). When
  /// non-null and set, the solve aborts at the next cancellation point and
  /// is treated exactly like a deadline expiry (fallback or kOutOfMemory),
  /// except the beam-search fallback also honors the token and may return
  /// kOutOfMemory if cancelled before producing a strategy. The pointee
  /// must outlive the call.
  const std::atomic<bool>* cancel = nullptr;
  /// Graceful degradation: when a guard or the deadline trips, run a
  /// bounded beam search over the same ordering and recurrence costs
  /// instead of returning no strategy (status kDegraded). Off by default so
  /// the paper-reproduction benches keep reporting the Table I OOM outcome;
  /// pase_cli enables it.
  bool degraded_fallback = false;
  /// Partial strategies kept per vertex by the fallback beam search.
  i64 beam_width = 256;

  /// Worker threads for the per-vertex configuration x substrategy fan-out:
  /// 1 = sequential (no pool), 0 = hardware concurrency, N = exactly N.
  /// Results are bit-identical at any setting (see file comment).
  i64 num_threads = 1;

  /// Memoize t_l/t_x across structurally identical layers and edges (see
  /// cost/cost_cache.h). Never changes results; pase_cli --no-cost-cache
  /// disables it for ablation. The per-class sharing every solve does
  /// (file comment) is independent of this flag: it already serves most
  /// in-solve repeats, so the memo pays off mainly when shared across
  /// solves. The shared cache's classes, when given, also key that sharing.
  bool use_cost_cache = true;
  /// Optional caller-owned cost cache shared across solves (the serving
  /// daemon keeps one warm per (graph signature, cost params) pair so a hot
  /// re-query skips every t_l/t_x recomputation). When non-null (and
  /// use_cost_cache is true) the solver uses it instead of constructing a
  /// fresh per-solve cache; DpResult hit/miss stats then report this
  /// solve's *delta* only. Contract: the cache must have been built against
  /// a graph structurally identical to `graph` (same nodes/edges in the
  /// same order) under identical CostParams — see cost/cost_cache.h. The
  /// cache is thread-safe; it never changes results (cost functions are
  /// pure). Must outlive the call.
  CostCache* shared_cost_cache = nullptr;

  /// Optional observability sinks (src/obs); either or both may be null.
  /// `trace` records phase and per-vertex spans (ordering, dep_sets,
  /// table_fill, back_substitution, worker task spans); `metrics` collects
  /// dp.* counters/histograms/gauges. Attaching them never changes results,
  /// and every structural metric recorded is bit-identical across thread
  /// counts (see src/obs/metrics.h and DESIGN.md §9). Both must outlive the
  /// solve.
  TraceSession* trace = nullptr;
  MetricsRegistry* metrics = nullptr;
};

enum class DpStatus {
  kOk,
  kOutOfMemory,  ///< a resource guard tripped (table size, work, or
                 ///< deadline) with the fallback disabled; no strategy
  kInfeasible,   ///< a node has no admissible configuration (e.g. every
                 ///< choice violates the per-device memory cap)
  kDegraded,     ///< a guard tripped, but the beam-search fallback produced
                 ///< a valid (not necessarily optimal) strategy
};

struct DpResult {
  DpStatus status = DpStatus::kOk;
  double best_cost = std::numeric_limits<double>::infinity();
  Strategy strategy;  ///< configuration per node, indexed by NodeId

  // Diagnostics (paper §III-C / Table I discussion).
  i64 max_dependent_set = 0;          ///< M for the ordering used
  u64 max_combinations_analyzed = 0;  ///< max_i |Phi(D(i))| * |C(v^(i))|
  i64 max_configs = 0;                ///< K
  double elapsed_seconds = 0.0;
  std::vector<i64> dependent_set_sizes;  ///< |D(i)| per position

  /// Which guard tripped, human-readable (set for kOutOfMemory/kDegraded).
  std::string guard_reason;
  /// Machine-readable guard classification (mirrors guard_reason). The
  /// serving layer uses this to decide cacheability: kTableGuard/kWorkGuard
  /// trips are pure functions of (graph, options) and may be cached, while
  /// kDeadline/kCancelled depend on wall-clock timing and must not be.
  enum class TripCause { kNone, kTableGuard, kWorkGuard, kDeadline,
                         kCancelled };
  TripCause trip_cause = TripCause::kNone;

  /// Worker threads actually used (DpOptions::num_threads resolved).
  i64 threads_used = 1;
  /// Cost-cache statistics (both zero when the cache is disabled).
  u64 cost_cache_hits = 0;
  u64 cost_cache_misses = 0;
};

/// Stable wire name for a trip cause ("table_guard", "deadline", ...;
/// "none" for kNone) — what the serve event log and traces emit.
const char* trip_cause_name(DpResult::TripCause cause);

/// Runs FindBestStrategy on `graph`. Deterministic: ties are broken by
/// configuration enumeration order.
DpResult find_best_strategy(const Graph& graph, const DpOptions& options);

}  // namespace pase
