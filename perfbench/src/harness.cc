#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "serve/json.h"

namespace perfbench {

double median(std::vector<double> v) {
  const size_t n = v.size();
  std::sort(v.begin(), v.end());
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

namespace {

/// 1-based nearest rank of quantile q in a sample of n.
i64 nearest_rank(i64 n, double q) {
  const i64 r = static_cast<i64>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<i64>(r, 1, n);
}

constexpr i64 kMinBeyond = 10;

}  // namespace

std::optional<double> tail_percentile(std::vector<double> v, double q) {
  const i64 n = static_cast<i64>(v.size());
  if (n == 0) return std::nullopt;
  const i64 rank = nearest_rank(n, q);
  if (n - rank < kMinBeyond) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[static_cast<size_t>(rank - 1)];
}

i64 min_samples_for(double q) {
  i64 n = 1;
  while (n - nearest_rank(n, q) < kMinBeyond) ++n;
  return n;
}

namespace {

constexpr size_t kProbeColumns = 256;
constexpr size_t kProbeRows = 4096;
constexpr size_t kProbeColumnsPerSample = 128;
constexpr size_t kProbeSortSize = 50000;
/// Room for a run's samples, reserved up front so sampling never allocates.
constexpr size_t kProbeMaxSamples = 1 << 12;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

HostProbe::HostProbe()
    : table_(kProbeColumns * kProbeRows),
      row_(kProbeRows),
      unsorted_(kProbeSortSize),
      sorted_(kProbeSortSize) {
  pase::Rng rng(0x686f7374u);
  for (double& x : table_) x = rng.uniform_double();
  for (double& x : row_) x = rng.uniform_double();
  for (u64& x : unsorted_) x = rng.next();
  ms_.reserve(kProbeMaxSamples);
}

double HostProbe::sample() {
  const double t0 = now_s();
  // Column-wise min over rows: each step is a 2 KB-strided gather, as when
  // the solver reduces a sub-table over one vertex's configurations.
  double total = 0.0;
  for (size_t j = 0; j < kProbeColumnsPerSample; ++j) {
    double best = std::numeric_limits<double>::infinity();
    for (size_t k = 0; k < kProbeRows; ++k)
      best = std::min(best, table_[k * kProbeColumns + j] + row_[k]);
    total += best;
  }
  std::copy(unsorted_.begin(), unsorted_.end(), sorted_.begin());
  std::sort(sorted_.begin(), sorted_.end());
  total += static_cast<double>(sorted_[kProbeSortSize / 2] >> 40);
  sink_ += total;
  last_end_s_ = now_s();
  const double ms = 1e3 * (last_end_s_ - t0);
  if (ms_.size() < kProbeMaxSamples) ms_.push_back(ms);
  return ms;
}

double HostProbe::sample_if_due(double gap_s) {
  const double due = std::floor((now_s() - last_end_s_) / gap_s);
  double spent = 0.0;
  for (int i = 0; i < std::min(due, 4.0); ++i) spent += sample();
  return spent;
}

double HostProbe::slowdown(i64 first) const {
  return median(std::vector<double>(ms_.begin() + first, ms_.end())) /
         kReferenceMs;
}

double HostProbe::resident_mb() const {
  const size_t bytes = (table_.size() + row_.size()) * sizeof(double) +
                       (unsorted_.size() + sorted_.size()) * sizeof(u64) +
                       ms_.size() * sizeof(double);
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

std::vector<i64> SeededOrders::next() {
  std::vector<i64> order(static_cast<size_t>(n_));
  for (i64 i = 0; i < n_; ++i) order[static_cast<size_t>(i)] = i;
  for (i64 i = n_ - 1; i > 0; --i)
    std::swap(order[static_cast<size_t>(i)],
              order[rng_.uniform(static_cast<u64>(i + 1))]);
  return order;
}

ZipfStream::ZipfStream(u64 seed, i64 keys)
    : order_(0x626c6f63u), rng_(seed) {
  constexpr double kBlock = 1024.0;
  double harmonic = 0.0;
  for (i64 k = 1; k <= keys; ++k) harmonic += 1.0 / static_cast<double>(k);
  for (i64 k = 0; k < keys; ++k) {
    const i64 count = std::max<i64>(
        1, std::llround(kBlock / (harmonic * static_cast<double>(k + 1))));
    ranks_.insert(ranks_.end(), static_cast<size_t>(count), k);
  }
}

i64 ZipfStream::next() {
  if (pos_ == block_.size()) {
    block_ = ranks_;
    for (size_t i = block_.size() - 1; i > 0; --i)
      std::swap(block_[i], block_[order_.uniform(i + 1)]);
    for (size_t w = 0; w < block_.size(); w += kWindow) {
      const size_t end = std::min(block_.size(), w + kWindow);
      for (size_t i = end - 1; i > w; --i)
        std::swap(block_[i], block_[w + rng_.uniform(i - w + 1)]);
    }
    pos_ = 0;
  }
  return block_[pos_++];
}

u64 fnv1a(std::string_view bytes) {
  u64 h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

Answer make_answer(std::string status, double cost,
                   std::string_view strategy) {
  Answer a;
  a.status = std::move(status);
  std::memcpy(&a.cost_bits, &cost, sizeof cost);
  a.strategy_digest = fnv1a(strategy);
  return a;
}

bool AnswerBook::load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open expected answers " + path;
    return false;
  }
  answers_.clear();
  std::string line;
  i64 line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, status, cost_hex, digest_hex;
    if (!std::getline(fields, name, '\t') ||
        !std::getline(fields, status, '\t') ||
        !std::getline(fields, cost_hex, '\t') ||
        !std::getline(fields, digest_hex)) {
      *error = path + ":" + std::to_string(line_no) + ": malformed line";
      return false;
    }
    Answer a;
    a.status = status;
    try {
      a.cost_bits = std::stoull(cost_hex, nullptr, 16);
      a.strategy_digest = std::stoull(digest_hex, nullptr, 16);
    } catch (const std::exception&) {
      *error = path + ":" + std::to_string(line_no) + ": malformed number";
      return false;
    }
    answers_[name] = a;
  }
  return true;
}

bool AnswerBook::matches(const std::string& name, const Answer& got) const {
  const auto it = answers_.find(name);
  return it != answers_.end() && it->second == got;
}

std::string AnswerBook::format_line(const std::string& name,
                                    const Answer& a) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llx\t%016llx",
                static_cast<unsigned long long>(a.cost_bits),
                static_cast<unsigned long long>(a.strategy_digest));
  return name + "\t" + a.status + "\t" + buf;
}

std::string result_json(const Report& report) {
  using pase::serve::Json;
  Json metrics = Json::make_object();
  for (const Metric& m : report.metrics) {
    Json entry = Json::make_object();
    entry.object["value"] = Json::make_number(m.value);
    entry.object["unit"] = Json::make_string(m.unit);
    metrics.object[m.name] = std::move(entry);
  }
  Json out = Json::make_object();
  out.object["correct"] = Json::make_bool(report.correct());
  out.object["attempted"] =
      Json::make_number(static_cast<double>(report.attempted));
  out.object["failed"] = Json::make_number(static_cast<double>(report.failed));
  out.object["metrics"] = std::move(metrics);
  return pase::serve::write_json(out);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
