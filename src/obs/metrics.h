// MetricsRegistry: named counters, gauges and histograms with a
// deterministic, canonically-ordered snapshot dump.
//
// Metric taxonomy — this split is what makes the registry usable as a
// regression tripwire (see DESIGN.md §9):
//  * counters    — monotonic u64 *structural* quantities (vertices
//                  processed, substrategies enumerated, cache hits,
//                  comm-algorithm selections). Contract: every counter in
//                  the registry must be bit-identical across thread counts
//                  for the same input.
//  * histograms  — distributions of structural i64 samples (dependent-set
//                  sizes, per-vertex substrategy counts) in power-of-two
//                  buckets; same determinism contract as counters.
//  * gauges      — *volatile* doubles (elapsed seconds, thread counts,
//                  phase times). No cross-run or cross-thread-count
//                  stability is promised.
//
// Snapshots (to_json / to_text) list sections in the fixed order counters,
// histograms, gauges, each alphabetically sorted, one metric per line —
// so the structural part of a dump is a byte-stable prefix and "strip the
// gauges section" is all a consumer needs to diff two runs
// (structural_json() does exactly that).
//
// Thread-safety: all members are safe to call concurrently (one internal
// mutex; the hot paths increment per solver *phase*, not per inner-loop
// iteration, so contention is negligible).
#pragma once

#include <array>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/types.h"

namespace pase {

class MetricsRegistry {
 public:
  /// Adds `delta` to the named counter (created at zero on first use).
  void add_counter(const std::string& name, u64 delta);
  /// Sets / accumulates the named gauge.
  void set_gauge(const std::string& name, double value);
  void add_gauge(const std::string& name, double delta);
  /// Records one sample into the named histogram. Samples must be >= 0
  /// (structural quantities are counts); negative values clamp to 0.
  void record(const std::string& name, i64 value);

  /// A power-of-two histogram held outside the registry: bucket k counts
  /// samples whose bit width is k, i.e. bucket 0 holds {0}, bucket k>=1
  /// holds [2^(k-1), 2^k). A loop that records a sample per iteration
  /// fills one of these and hands it over once with add_histogram — one
  /// lock and one name lookup in all, and the same snapshot as recording
  /// each sample.
  struct Histogram {
    u64 count = 0;
    i64 sum = 0;
    std::array<u64, 64> buckets{};

    void record(i64 value);
  };
  /// Adds every sample of `h` to the named histogram; a histogram with no
  /// samples adds nothing (and creates no metric).
  void add_histogram(const std::string& name, const Histogram& h);

  /// Reads (0 / empty when the metric does not exist).
  u64 counter(const std::string& name) const;
  double gauge(const std::string& name) const;

  struct HistogramSnapshot {
    u64 count = 0;
    i64 sum = 0;
    /// Non-empty power-of-two buckets as (lower bound, count), ascending.
    std::vector<std::pair<i64, u64>> buckets;
  };
  HistogramSnapshot histogram(const std::string& name) const;

  i64 num_metrics() const;

  /// Canonical JSON dump (see the file comment for the layout contract).
  /// With include_gauges = false the volatile section is omitted entirely.
  std::string to_json(bool include_gauges = true) const;
  /// The deterministic part only: counters + histograms. Bit-identical
  /// across thread counts by contract; what the determinism tests diff.
  std::string structural_json() const { return to_json(false); }
  /// Aligned human-readable dump, same ordering as to_json.
  std::string to_text() const;

  /// Prometheus text exposition format (version 0.0.4). Metric names are
  /// prefixed with "pase_" and sanitized ('.' and any other non
  /// [a-zA-Z0-9_] byte become '_'). Section order matches to_json —
  /// counters, histograms, then gauges — so stripping everything from the
  /// first `# TYPE ... gauge` line onward yields the same structural
  /// (thread-count-invariant) prefix contract as structural_json().
  /// Histograms emit cumulative `_bucket{le="..."}` series at the
  /// inclusive upper bound of each non-empty power-of-two bucket
  /// (bucket 0 -> le="0", bucket k -> le="2^k - 1") plus `+Inf`, `_sum`
  /// and `_count`. With include_gauges = false the gauge section is
  /// omitted entirely.
  std::string to_prometheus(bool include_gauges = true) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, u64> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> hists_;
};

}  // namespace pase
