#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>

#include "obs/metrics.h"

namespace pase {

namespace {

double steady_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Session ids are globally unique, never reused; the per-thread lane cache
/// keys on them so a stale cache entry for a destroyed session can never
/// alias a live one allocated at the same address.
std::atomic<u64> next_session_id{1};

}  // namespace

/// One thread's spans. Only the owning thread appends (no lock); snapshot
/// readers run after the traced work has joined (see the header contract).
struct TraceLane {
  struct Record {
    const char* name;
    double ts_us;           ///< relative to session start
    double open_ns;         ///< absolute steady-clock open time
    double dur_us = -1.0;   ///< -1 while the span is open
    std::vector<std::pair<std::string, i64>> args;
  };
  i64 lane_id = 0;
  std::vector<Record> records;
};

TraceSession::TraceSession()
    : id_(next_session_id.fetch_add(1, std::memory_order_relaxed)),
      start_ns_(steady_ns()) {}

TraceSession::~TraceSession() = default;

TraceLane* TraceSession::lane_for_current_thread() {
  struct CacheEntry {
    u64 session_id;
    TraceLane* lane;
  };
  // Per-thread cache of (session -> lane); bounded so threads that outlive
  // many sessions (e.g. the main thread across repeated solves) don't
  // accumulate stale entries without end.
  static thread_local std::vector<CacheEntry> cache;
  for (const CacheEntry& e : cache)
    if (e.session_id == id_) return e.lane;
  std::lock_guard<std::mutex> lock(mu_);
  lanes_.push_back(std::make_unique<TraceLane>());
  lanes_.back()->lane_id = static_cast<i64>(lanes_.size()) - 1;
  if (cache.size() >= 64) cache.erase(cache.begin());
  cache.push_back({id_, lanes_.back().get()});
  return lanes_.back().get();
}

TraceSession::Span::Span(TraceSession* session, const char* name) {
  if (!session) return;
  lane_ = session->lane_for_current_thread();
  slot_ = lane_->records.size();
  const double open = steady_ns();
  lane_->records.push_back(
      {name, (open - session->start_ns_) / 1e3, open, -1.0, {}});
}

TraceSession::Span::~Span() {
  if (!lane_) return;
  TraceLane::Record& r = lane_->records[slot_];
  // Same steady clock as the open: children (destroyed first) always close
  // at or before their parent, so per-lane ranges nest exactly.
  r.dur_us = (steady_ns() - r.open_ns) / 1e3;
}

void TraceSession::Span::arg(const char* key, i64 value) {
  if (!lane_) return;
  lane_->records[slot_].args.emplace_back(key, value);
}

i64 TraceSession::num_lanes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<i64>(lanes_.size());
}

i64 TraceSession::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  i64 n = 0;
  for (const auto& lane : lanes_)
    for (const TraceLane::Record& r : lane->records)
      if (r.dur_us >= 0.0) ++n;
  return n;
}

std::vector<ChromeEvent> TraceSession::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ChromeEvent> out;
  for (const auto& lane : lanes_) {
    for (const TraceLane::Record& r : lane->records) {
      if (r.dur_us < 0.0) continue;  // still open: skip, keep output valid
      ChromeEvent e;
      e.name = r.name;
      e.tid = lane->lane_id;
      e.ts_us = r.ts_us;
      e.dur_us = r.dur_us;
      e.args = r.args;
      out.push_back(std::move(e));
    }
  }
  return out;
}

std::string TraceSession::to_chrome_json() const {
  return to_chrome_trace_json(events());
}

std::vector<TraceSession::PhaseTotal> TraceSession::phase_totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, PhaseTotal> by_name;
  for (const auto& lane : lanes_) {
    for (const TraceLane::Record& r : lane->records) {
      if (r.dur_us < 0.0) continue;
      PhaseTotal& t = by_name[r.name];
      t.name = r.name;
      ++t.count;
      t.total_us += r.dur_us;
    }
  }
  std::vector<PhaseTotal> out;
  out.reserve(by_name.size());
  for (auto& [name, total] : by_name) out.push_back(std::move(total));
  return out;
}

PhaseScope::PhaseScope(TraceSession* trace, MetricsRegistry* metrics,
                       const char* span_name, const char* gauge_name)
    : span_(trace, span_name),
      metrics_(metrics),
      gauge_name_(gauge_name),
      start_ns_(metrics ? steady_ns() : 0.0) {}

PhaseScope::PhaseScope(TraceSession* trace, PhaseGauge& gauge,
                       const char* span_name)
    : span_(trace, span_name),
      metrics_(nullptr),
      gauge_name_(nullptr),
      gauge_(&gauge),
      start_ns_(gauge.enabled() ? steady_ns() : 0.0) {}

PhaseScope::~PhaseScope() {
  if (gauge_) {
    if (gauge_->enabled()) gauge_->add((steady_ns() - start_ns_) / 1e9);
  } else if (metrics_ && gauge_name_) {
    metrics_->add_gauge(gauge_name_, (steady_ns() - start_ns_) / 1e9);
  }
}

void PhaseGauge::flush() const {
  if (metrics_ && scopes_ > 0) metrics_->add_gauge(gauge_name_, seconds_);
}

}  // namespace pase
