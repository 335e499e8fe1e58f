#include "obs/rolling.h"

#include <algorithm>
#include <cmath>

namespace pase {

double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

RollingHistogram::RollingHistogram(i64 window)
    : window_(window < 1 ? 1 : window) {
  ring_.reserve(static_cast<size_t>(window_));
}

void RollingHistogram::record(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<i64>(ring_.size()) < window_) {
    ring_.push_back(value);
  } else {
    ring_[next_] = value;
    next_ = (next_ + 1) % ring_.size();
  }
  ++total_;
}

i64 RollingHistogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<i64>(ring_.size());
}

u64 RollingHistogram::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::vector<double> RollingHistogram::sorted_window_locked() const {
  std::vector<double> sorted = ring_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

double RollingHistogram::quantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  return nearest_rank(sorted_window_locked(), q);
}

RollingHistogram::Snapshot RollingHistogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.window = window_;
  snap.count = static_cast<i64>(ring_.size());
  snap.total = total_;
  const std::vector<double> sorted = sorted_window_locked();
  snap.p50 = nearest_rank(sorted, 0.5);
  snap.p95 = nearest_rank(sorted, 0.95);
  snap.p99 = nearest_rank(sorted, 0.99);
  return snap;
}

}  // namespace pase
