// RollingHistogram: windowed quantile estimation over the last N samples,
// for rolling SLO metrics (p50/p95/p99 latency over the most recent
// requests) in long-running processes where lifetime aggregates hide
// recent regressions.
//
// Model: a fixed-size ring of the raw samples. record() overwrites the
// oldest sample once the window is full; quantile(q) sorts a snapshot of
// the window and returns the nearest-rank element. pase_loadgen's report
// and bench_serve call the same nearest_rank() below, so client-side and
// server-side percentiles are comparable by construction. The state (and
// therefore every quantile) is a pure function of the sample sequence:
// deterministic given request order, independent of wall-clock (the
// samples themselves are of course timing data — see DESIGN.md §11 for
// what that means for tests).
//
// Cost: record() is O(1); quantile()/snapshot() are O(N log N) for window
// size N. Windows are small (hundreds), and snapshots are taken on the
// metrics path, not the request hot path.
//
// Thread-safety: all members are safe to call concurrently (one internal
// mutex).
#pragma once

#include <mutex>
#include <vector>

#include "util/types.h"

namespace pase {

/// Nearest-rank quantile of an ascending sample: sorted[floor(q*(n-1))],
/// q clamped to [0, 1]. 0.0 for an empty sample.
double nearest_rank(const std::vector<double>& sorted, double q);

class RollingHistogram {
 public:
  /// Window of the last `window` samples (clamped to >= 1).
  explicit RollingHistogram(i64 window = 512);

  void record(double value);

  /// Samples currently in the window (<= window size).
  i64 count() const;
  /// Lifetime samples recorded (monotone, never truncated).
  u64 total() const;
  i64 window() const { return window_; }

  /// Nearest-rank quantile over the current window: sorted[floor(q*(n-1))]
  /// for q in [0, 1]. Returns 0.0 on an empty window.
  double quantile(double q) const;

  struct Snapshot {
    i64 window = 0;
    i64 count = 0;  ///< samples in the window
    u64 total = 0;  ///< lifetime samples
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  /// One consistent read of count/total and the three SLO quantiles.
  Snapshot snapshot() const;

 private:
  /// Caller must hold mu_. Sorted copy of the live window.
  std::vector<double> sorted_window_locked() const;

  mutable std::mutex mu_;
  i64 window_;
  std::vector<double> ring_;  ///< grows to window_, then cycles
  size_t next_ = 0;           ///< overwrite position once full
  u64 total_ = 0;
};

}  // namespace pase
