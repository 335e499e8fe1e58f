// Building blocks of the repository benchmark that carry no knowledge of a
// particular workload: order statistics, the seeded input generators, the
// stored-answer book and the result line.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/rng.h"
#include "util/types.h"

namespace perfbench {

using pase::i64;
using pase::u64;

// ---------------------------------------------------------------------------
// Order statistics

/// Median of a non-empty sample (mean of the two middle values when even).
double median(std::vector<double> v);

/// Geometric mean of a non-empty sample of positive values.
double geomean(const std::vector<double>& v);

/// Nearest-rank percentile `q` in (0, 1) of `v`, or nullopt when fewer than
/// ten samples lie above it: a tail percentile is only reported when it is
/// backed by at least ten slower operations.
std::optional<double> tail_percentile(std::vector<double> v, double q);

/// Smallest sample size for which tail_percentile(v, q) reports a value.
i64 min_samples_for(double q);

// ---------------------------------------------------------------------------
// Host speed

/// Fixed, seeded work with the shapes of the solver's own — a min-plus
/// gather over an 8 MB table (table fill) and a sort of 50 000 integers
/// (branchy, cache-resident work like ordering and vertex sets) — timed
/// between a run's operations. It allocates nothing after construction, so
/// it leaves the heap the program under test uses alone. It moves with the
/// shared host's speed, not with the program under test, so a run's times
/// divided by its slowdown compare across runs made while the host ran at
/// different speeds.
class HostProbe {
 public:
  HostProbe();
  /// Runs the probe once; returns and records its time in ms.
  double sample();
  /// Takes one sample for each `gap_s` seconds that have passed since the
  /// last sample ended, at most four, so a long operation is followed by
  /// several; returns the ms spent (0 when none was due).
  double sample_if_due(double gap_s);
  i64 samples() const { return static_cast<i64>(ms_.size()); }
  /// Median time of samples [first, samples()) over the reference host's
  /// (kReferenceMs): above 1 when this host ran slower. Needs a sample there.
  double slowdown(i64 first = 0) const;
  /// Resident size of the probe's data, which the run's peak RSS includes.
  double resident_mb() const;

  /// Median probe time on the reference host (README.md, "Host speed").
  static constexpr double kReferenceMs = 6.0;

 private:
  std::vector<double> table_, row_;
  std::vector<u64> unsorted_, sorted_;
  std::vector<double> ms_;
  double last_end_s_ = 0.0;
  double sink_ = 0.0;
};

// ---------------------------------------------------------------------------
// Seeded inputs. The program under test only ever sees what these produce.

/// Visiting orders of n inputs: each next() is a fresh seeded permutation of
/// 0..n-1.
class SeededOrders {
 public:
  SeededOrders(u64 seed, i64 n) : rng_(seed), n_(n) {}
  std::vector<i64> next();

 private:
  pase::Rng rng_;
  i64 n_;
};

/// A Zipf(s = 1) request stream over `keys` ranks (0 = hottest). The stream
/// is a run of blocks, each holding rank k round(1024 / (H * (k + 1)))
/// times (at least once), so every prefix keeps close to the exact Zipf
/// frequencies. The blocks' order is the same for every seed; the seed
/// shuffles each window of kWindow consecutive requests. Every seed thus
/// sends the same requests in nearly the same order, and the result cache
/// and the daemon's warm state evolve alike from seed to seed.
class ZipfStream {
 public:
  static constexpr size_t kWindow = 32;

  ZipfStream(u64 seed, i64 keys);
  i64 next();

 private:
  pase::Rng order_;  ///< the blocks' seed-independent order
  pase::Rng rng_;    ///< the seeded shuffles within windows
  std::vector<i64> ranks_;  ///< one block's ranks, sorted
  std::vector<i64> block_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Stored answers

/// 64-bit FNV-1a.
u64 fnv1a(std::string_view bytes);

/// What an operation answered: a status or response code, the cost bit for
/// bit, and a digest of the strategy text.
struct Answer {
  std::string status;
  u64 cost_bits = 0;
  u64 strategy_digest = 0;

  bool operator==(const Answer&) const = default;
};

Answer make_answer(std::string status, double cost, std::string_view strategy);

/// Expected answers keyed by input name, one tab-separated line per input:
/// `name  status  cost-bits(hex)  strategy-digest(hex)`.
class AnswerBook {
 public:
  /// False (with a reason) when the file is missing or malformed.
  bool load(const std::string& path, std::string* error);
  /// True when `name` has an expected answer equal to `got`.
  bool matches(const std::string& name, const Answer& got) const;

  static std::string format_line(const std::string& name, const Answer& a);

 private:
  std::unordered_map<std::string, Answer> answers_;
};

// ---------------------------------------------------------------------------
// Result line

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Operations behind the value (0 = not a sampled quantity); printed on
  /// the detail lines, not in the result object.
  i64 samples = 0;
};

struct Report {
  i64 attempted = 0;
  i64 failed = 0;
  std::vector<Metric> metrics;
  /// HostProbe::slowdown() of an untraced run's timed phase and of its
  /// set-ups (0 in a traced run): the timed phase's times are divided by the
  /// first and its rates multiplied by it; setup_s is divided by the second.
  double host_slowdown = 0.0;
  double setup_slowdown = 0.0;
  i64 probe_samples = 0;
  bool correct() const { return attempted > 0 && failed == 0; }
};

/// The benchmark's last output line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
std::string result_json(const Report& report);

/// Peak resident set of this process in MB (VmHWM), 0 when unavailable.
double peak_rss_mb();

}  // namespace perfbench
