// The three workloads of the repository benchmark (see perfbench/README.md
// for why each exists and which layer each one exercises or bypasses).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Holds the inline model texts and expected_answers.tsv.
  std::string data_dir;
  /// Expected answers to check against; empty = data_dir's.
  std::string expected_path;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<std::string>& workload_names();

/// What every untraced run prints, on every workload.
const std::vector<MetricSpec>& end_to_end_metrics();
/// What every traced run prints, on every workload; a layer the workload
/// does not exercise (or does not time from outside) reads 0.
const std::vector<MetricSpec>& per_layer_metrics();

/// Runs one workload. False (with a reason) when the run cannot start or
/// cannot reach the sample counts its metrics need; answer mismatches are
/// not errors but land in report->failed.
bool run_workload(const RunConfig& config, Report* report, std::string* error);

/// Solves every benchmark input and serve key once, from scratch, and
/// writes the expected-answer file (AnswerBook format) to `out`.
bool record_answers(const std::string& data_dir, std::ostream& out,
                    std::string* error);

// Exposed for the self-tests.

/// The serve_zipf request line for each key, in rank order (rank 0 is the
/// hottest key), and each key's answer name.
struct ServeKeys {
  std::vector<std::string> lines;
  std::vector<std::string> names;
};
bool serve_keys(const std::string& data_dir, ServeKeys* keys,
                std::string* error);

}  // namespace perfbench
