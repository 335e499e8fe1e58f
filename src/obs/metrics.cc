#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

namespace pase {

namespace {

size_t bucket_of(i64 value) {
  if (value <= 0) return 0;
  size_t k = 0;
  for (u64 v = static_cast<u64>(value); v > 0; v >>= 1) ++k;
  return std::min<size_t>(k, 63);
}

i64 bucket_lower_bound(size_t k) {
  return k == 0 ? 0 : static_cast<i64>(u64{1} << (k - 1));
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

void MetricsRegistry::add_counter(const std::string& name, u64 delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

void MetricsRegistry::add_gauge(const std::string& name, double delta) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] += delta;
}

void MetricsRegistry::Histogram::record(i64 value) {
  ++count;
  sum += std::max<i64>(value, 0);
  ++buckets[bucket_of(value)];
}

void MetricsRegistry::record(const std::string& name, i64 value) {
  std::lock_guard<std::mutex> lock(mu_);
  hists_[name].record(value);
}

void MetricsRegistry::add_histogram(const std::string& name,
                                    const Histogram& h) {
  if (h.count == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  Histogram& into = hists_[name];
  into.count += h.count;
  into.sum += h.sum;
  for (size_t k = 0; k < h.buckets.size(); ++k)
    into.buckets[k] += h.buckets[k];
}

u64 MetricsRegistry::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

MetricsRegistry::HistogramSnapshot MetricsRegistry::histogram(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  HistogramSnapshot snap;
  const auto it = hists_.find(name);
  if (it == hists_.end()) return snap;
  snap.count = it->second.count;
  snap.sum = it->second.sum;
  for (size_t k = 0; k < it->second.buckets.size(); ++k)
    if (it->second.buckets[k] > 0)
      snap.buckets.emplace_back(bucket_lower_bound(k), it->second.buckets[k]);
  return snap;
}

i64 MetricsRegistry::num_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<i64>(counters_.size() + gauges_.size() + hists_.size());
}

std::string MetricsRegistry::to_json(bool include_gauges) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n";
  char buf[64];

  out += "\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    std::snprintf(buf, sizeof(buf), "%s\n  \"", first ? "" : ",");
    out += buf;
    out += name;
    std::snprintf(buf, sizeof(buf), "\": %llu",
                  static_cast<unsigned long long>(value));
    out += buf;
    first = false;
  }
  out += first ? "},\n" : "\n},\n";

  out += "\"histograms\":{";
  first = true;
  for (const auto& [name, h] : hists_) {
    out += first ? "\n  \"" : ",\n  \"";
    out += name;
    std::snprintf(buf, sizeof(buf),
                  "\": {\"count\": %llu, \"sum\": %lld, \"buckets\": [",
                  static_cast<unsigned long long>(h.count),
                  static_cast<long long>(h.sum));
    out += buf;
    bool first_bucket = true;
    for (size_t k = 0; k < h.buckets.size(); ++k) {
      if (h.buckets[k] == 0) continue;
      std::snprintf(buf, sizeof(buf), "%s[%lld,%llu]",
                    first_bucket ? "" : ",",
                    static_cast<long long>(bucket_lower_bound(k)),
                    static_cast<unsigned long long>(h.buckets[k]));
      out += buf;
      first_bucket = false;
    }
    out += "]}";
    first = false;
  }
  out += first ? "}" : "\n}";

  if (include_gauges) {
    out += ",\n\"gauges\":{";
    first = true;
    for (const auto& [name, value] : gauges_) {
      out += first ? "\n  \"" : ",\n  \"";
      out += name;
      out += "\": " + fmt_double(value);
      first = false;
    }
    out += first ? "}" : "\n}";
  }
  out += "\n}\n";
  return out;
}

namespace {

std::string prom_name(const std::string& name) {
  std::string out = "pase_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::to_prometheus(bool include_gauges) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char buf[96];

  for (const auto& [name, value] : counters_) {
    const std::string pn = prom_name(name);
    out += "# TYPE " + pn + " counter\n";
    std::snprintf(buf, sizeof(buf), " %llu\n",
                  static_cast<unsigned long long>(value));
    out += pn + buf;
  }

  for (const auto& [name, h] : hists_) {
    const std::string pn = prom_name(name);
    out += "# TYPE " + pn + " histogram\n";
    u64 cumulative = 0;
    for (size_t k = 0; k < h.buckets.size(); ++k) {
      if (h.buckets[k] == 0) continue;
      cumulative += h.buckets[k];
      // Inclusive upper bound of bucket k: 0 for {0}, 2^k - 1 for
      // [2^(k-1), 2^k).
      const i64 le =
          k == 0 ? 0 : static_cast<i64>((u64{1} << k) - 1);
      std::snprintf(buf, sizeof(buf), "_bucket{le=\"%lld\"} %llu\n",
                    static_cast<long long>(le),
                    static_cast<unsigned long long>(cumulative));
      out += pn + buf;
    }
    std::snprintf(buf, sizeof(buf), "_bucket{le=\"+Inf\"} %llu\n",
                  static_cast<unsigned long long>(h.count));
    out += pn + buf;
    std::snprintf(buf, sizeof(buf), "_sum %lld\n",
                  static_cast<long long>(h.sum));
    out += pn + buf;
    std::snprintf(buf, sizeof(buf), "_count %llu\n",
                  static_cast<unsigned long long>(h.count));
    out += pn + buf;
  }

  if (include_gauges) {
    for (const auto& [name, value] : gauges_) {
      const std::string pn = prom_name(name);
      out += "# TYPE " + pn + " gauge\n";
      out += pn + " " + fmt_double(value) + "\n";
    }
  }
  return out;
}

std::string MetricsRegistry::to_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t width = 0;
  for (const auto& [name, value] : counters_) width = std::max(width, name.size());
  for (const auto& [name, h] : hists_) width = std::max(width, name.size());
  for (const auto& [name, value] : gauges_) width = std::max(width, name.size());

  std::string out;
  char buf[96];
  auto pad = [&](const std::string& name) {
    std::string p = name;
    p.resize(width, ' ');
    return p;
  };
  for (const auto& [name, value] : counters_) {
    std::snprintf(buf, sizeof(buf), "counter    %s  %llu\n",
                  pad(name).c_str(), static_cast<unsigned long long>(value));
    out += buf;
  }
  for (const auto& [name, h] : hists_) {
    std::snprintf(buf, sizeof(buf),
                  "histogram  %s  count=%llu sum=%lld\n", pad(name).c_str(),
                  static_cast<unsigned long long>(h.count),
                  static_cast<long long>(h.sum));
    out += buf;
  }
  for (const auto& [name, value] : gauges_) {
    std::snprintf(buf, sizeof(buf), "gauge      %s  %s\n", pad(name).c_str(),
                  fmt_double(value).c_str());
    out += buf;
  }
  return out;
}

}  // namespace pase
