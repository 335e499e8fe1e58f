// (graph signature, machine, p, ...) -> DpResult cache for the serving
// daemon: the AMP-style hot re-query (same graph, new machine or p — or
// the same query again) must come back at interactive latency instead of
// re-running the DP.
//
// Keying. graph_signature() hashes every field the solver's result depends
// on — op kinds, iteration spaces, FLOP densities, parameter tensors,
// reduction dims, halos, outputs, and the full edge structure — but NOT
// node names: two graphs that differ only in labels get the same strategy,
// so they share an entry (the strategy is stored as per-NodeId configs and
// re-rendered against the requesting graph's names). The full cache key
// adds machine, devices, memory cap, comm model and beam width. The
// request deadline is deliberately NOT part of the key; see the
// cacheability rule below.
//
// Cacheability and determinism. Only results that are pure functions of
// (graph, options) are stored: kOk solves and kDegraded results whose trip
// cause is a table/work guard. Deadline- or watchdog-caused degradation
// depends on wall-clock timing and is never cached — otherwise one slow
// moment would pin a suboptimal strategy for every later caller. This rule
// is what makes a cache hit byte-identical to a fresh solve.
//
// Integrity (verify-on-hit). Every entry stores check_cost, the Eq. (1)
// evaluation of its strategy at store time. On a hit the server re-prices
// the strategy (O(V+E), pure, so bit-identical by construction) and
// compares; a mismatch means the entry is corrupt (exercised by the
// --inject poison mode), the entry is dropped and the solve re-runs. The
// corrupt() hook exists solely for that fault path.
//
// Thread-safety: all members are internally synchronized (single mutex;
// entries are small and lookups copy out).
#pragma once

#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "config/config.h"
#include "core/dp_solver.h"
#include "graph/graph.h"
#include "util/types.h"

namespace pase::serve {

/// Structural hash of a graph: everything the cost model and solver read,
/// excluding node names.
u64 graph_signature(const Graph& graph);

struct ResultKey {
  u64 graph_sig = 0;
  std::string machine;
  i64 devices = 0;
  double memory_gb = 0.0;
  std::string comm_model;
  i64 beam_width = 0;
  /// Canonical split-dim spelling (ServeRequest::split_dims): equivalent
  /// client spellings were already canonicalized at parse time, so they
  /// land on the same entry; different searched spaces never share one.
  std::string split_dims;
  i64 pipeline_stages = 0;
  /// Part of the key only because the fill/drain factor steers which stage
  /// partition wins when pipeline_stages != 1.
  i64 microbatches = 0;

  u64 hash() const;
};

class ResultCache {
 public:
  /// Keeps at most `max_entries` results, evicting least-recently-used.
  explicit ResultCache(i64 max_entries);

  struct Entry {
    DpStatus status = DpStatus::kOk;
    DpResult::TripCause trip_cause = DpResult::TripCause::kNone;
    double best_cost = 0.0;
    double check_cost = 0.0;  ///< integrity check value (see file comment)
    Strategy strategy;        ///< per-NodeId configs
    std::string guard_reason;
  };

  /// True iff `status`/`cause` may be stored (see cacheability rule).
  static bool cacheable(DpStatus status, DpResult::TripCause cause) {
    if (status == DpStatus::kOk || status == DpStatus::kInfeasible)
      return true;
    return status == DpStatus::kDegraded &&
           (cause == DpResult::TripCause::kTableGuard ||
            cause == DpResult::TripCause::kWorkGuard);
  }

  /// Copies the entry out on a hit and marks it most-recently-used.
  bool lookup(u64 key, Entry* out);
  void store(u64 key, Entry entry);
  /// Drops one entry (verify-on-hit failure path).
  void erase(u64 key);
  /// Fault injection: flips low mantissa bits of the stored check_cost so
  /// the next verify-on-hit deterministically detects corruption. No-op if
  /// the key is absent.
  void corrupt(u64 key);

  i64 size() const;

 private:
  struct Slot {
    u64 key;
    Entry entry;
  };

  mutable std::mutex mu_;
  i64 max_entries_;
  std::list<Slot> lru_;  ///< front = most recent
  std::unordered_map<u64, std::list<Slot>::iterator> index_;
};

}  // namespace pase::serve
