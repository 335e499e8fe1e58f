// TraceSession: thread-safe recording of nested spans for the search-side
// hot path (DP solver phases, thread-pool tasks), rendered as Chrome
// trace-event JSON through the shared emitter (obs/chrome_trace.h) — the
// same format the simulator's per-layer timeline uses, so one viewer loads
// both.
//
// Model: each thread that opens a span gets its own *lane* (a tid in the
// emitted trace). Spans are strictly nested per lane (RAII — a child Span
// is destroyed before its parent), timestamps come from one steady clock
// shared by the whole session, and every record is appended at span *open*,
// so a lane's records are in start order: per-tid timestamps in the emitted
// JSON are monotone non-decreasing and sibling/child ranges nest exactly —
// the properties tests/obs_test.cc asserts on the parsed output.
//
// Determinism contract: span *timestamps and lane ids* are wall-clock and
// scheduling dependent (volatile). The span *structure produced by the
// calling thread* — which phases appear, how many per-vertex spans, their
// nesting and integer args — is a pure function of the input, independent
// of thread count; worker-lane "task" spans are the one scheduling-
// dependent part (chunk decomposition varies with the configured thread
// count). Structural regression tests therefore key on phase names and
// counts, never on lane ids or times (see DESIGN.md §9).
//
// Thread-safety: any number of threads may open/close spans concurrently.
// Snapshot accessors (to_chrome_json, phase_totals, ...) must not run
// concurrently with span activity — callers snapshot after the traced work
// has joined, which is how the solver and CLI use it.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/chrome_trace.h"
#include "util/types.h"

namespace pase {

class MetricsRegistry;
struct TraceLane;

class TraceSession {
 public:
  TraceSession();
  ~TraceSession();  // out of line: TraceLane is incomplete here
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// RAII span: opens on construction, closes on destruction. A null
  /// `session` makes every operation a no-op, so instrumentation sites can
  /// pass through an optional pointer unconditionally.
  class Span {
   public:
    Span(TraceSession* session, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Attaches an integer arg to the span (shown in the trace viewer).
    /// Args are emitted in attachment order.
    void arg(const char* key, i64 value);

   private:
    TraceLane* lane_ = nullptr;
    size_t slot_ = 0;
  };

  i64 num_lanes() const;
  /// Completed spans across all lanes.
  i64 num_spans() const;

  /// All completed spans as Chrome events: tid = lane id, timestamps in
  /// microseconds since session construction, per-lane start order.
  std::vector<ChromeEvent> events() const;
  std::string to_chrome_json() const;

  /// Aggregate duration per span name across all lanes, sorted by name —
  /// the "where did the search's time go" summary bench/table1 prints.
  struct PhaseTotal {
    std::string name;
    u64 count = 0;
    double total_us = 0.0;
  };
  std::vector<PhaseTotal> phase_totals() const;

 private:
  friend class Span;

  TraceLane* lane_for_current_thread();

  const u64 id_;  ///< globally unique, for the per-thread lane cache
  const double start_ns_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceLane>> lanes_;
};

/// A phase's seconds gauge summed over many PhaseScopes — the solver's
/// per-vertex phases — and written to its registry once, by flush(): one
/// locked registry call per solve instead of one per scope. A null
/// registry makes the scopes read no clock.
class PhaseGauge {
 public:
  PhaseGauge(MetricsRegistry* metrics, const char* gauge_name)
      : metrics_(metrics), gauge_name_(gauge_name) {}

  bool enabled() const { return metrics_ != nullptr; }
  void add(double seconds) {
    seconds_ += seconds;
    ++scopes_;
  }
  /// Adds the summed seconds to the gauge, if any scope ran.
  void flush() const;

 private:
  MetricsRegistry* metrics_;
  const char* gauge_name_;
  double seconds_ = 0.0;
  u64 scopes_ = 0;
};

/// Combined phase instrumentation: a TraceSession span plus an accumulated
/// `<gauge_name>` seconds gauge in a MetricsRegistry. Either sink (or both)
/// may be null. This is what the DP solver wraps its phases in, so the
/// trace file and the metrics snapshot are guaranteed to describe the same
/// phase boundaries.
class PhaseScope {
 public:
  PhaseScope(TraceSession* trace, MetricsRegistry* metrics,
             const char* span_name, const char* gauge_name);
  /// Per-iteration form: the span as above, and the elapsed seconds added
  /// to `gauge`, which writes its registry once (PhaseGauge::flush).
  PhaseScope(TraceSession* trace, PhaseGauge& gauge, const char* span_name);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  void arg(const char* key, i64 value) { span_.arg(key, value); }

 private:
  TraceSession::Span span_;
  MetricsRegistry* metrics_;
  const char* gauge_name_;
  PhaseGauge* gauge_ = nullptr;
  double start_ns_;
};

}  // namespace pase
