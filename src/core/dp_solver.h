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
// sequence (compute_all_vertex_sets). Each vertex is then handled in two
// steps (dp_solver.cc):
//   pricing  the H terms — the t_l vector of v^(i) and the t_x matrix of
//            each later edge — priced once per structural class of layer
//            and edge (LayerClasses): vertices of the same class share them;
//   reduce   a min-plus kernel that, for one phi at a time, adds those
//            prices and the anchors' R values into a |C(v^(i))| array and
//            keeps its first strict minimum.
// Tables are dense vectors indexed by the configuration choices of the
// dependent-set nodes. A table/work guard reports the same
// out-of-memory outcome the paper observes for breadth-first ordering on
// InceptionV3 and Transformer (Table I) without actually exhausting RAM;
// with DpOptions::degraded_fallback, a tripped guard (or an expired
// wall-clock deadline) instead degrades gracefully to a bounded beam search
// over the same vertex ordering and the same class-shared prices, returning
// a valid but possibly suboptimal strategy with status kDegraded. After a
// deadline trip the beam narrows its width to finish within a fixed share
// of the deadline (DESIGN.md §7.2).
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
// varies. Pricing runs on the calling thread before each vertex's fan-out.
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
  /// vertices, inside pricing (every 256 cost evaluations), and (amortized,
  /// every few thousand combinations) inside the reduce, so even a
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
  /// Partial strategies kept per vertex by the fallback beam search. After
  /// a guard trip the fallback keeps exactly this many (deterministic);
  /// after a deadline trip it may narrow the width, never below 1, to fit
  /// its fixed share of deadline_seconds (DESIGN.md §7.2).
  i64 beam_width = 256;

  /// Worker threads for the per-vertex configuration x substrategy fan-out:
  /// 1 = sequential (no pool), 0 = hardware concurrency, N = exactly N.
  /// Results are bit-identical at any setting (see file comment).
  i64 num_threads = 1;

  /// Optional observability sinks (src/obs); either or both may be null.
  /// `trace` records phase and per-vertex spans (ordering, configs,
  /// dep_sets, table_fill with its nested pricing and reduce,
  /// back_substitution, worker task spans); `metrics` collects
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
  /// Width the beam fallback ran at, 0 when it did not run. Below
  /// DpOptions::beam_width only after a deadline trip, when the fallback
  /// narrowed it to finish within its share of the deadline.
  i64 beam_width_used = 0;
};

/// Stable wire name for a trip cause ("table_guard", "deadline", ...;
/// "none" for kNone) — what the serve event log and traces emit.
const char* trip_cause_name(DpResult::TripCause cause);

/// Runs FindBestStrategy on `graph`. Deterministic: ties are broken by
/// configuration enumeration order.
DpResult find_best_strategy(const Graph& graph, const DpOptions& options);

}  // namespace pase
