// Golden-output regression harness: runs the real pase_cli binary (path
// injected by CMake as PASE_CLI_PATH) over the corpus models plus a curated
// zoo subset, normalizes the volatile fields (wall-clock search time,
// temp-file paths), and diffs the result against the expect files under
// tests/corpus/golden/. Any textual drift in the CLI's report — table
// layout, cost figures, simulated step times, strategy choices — fails
// here with a unified context diff.
//
// Updating intentionally-changed output:
//   PASE_UPDATE_GOLDEN=1 ctest -R Golden    # rewrites the expect files
// then review the diff in git like any other source change.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace pase {
namespace {

#ifndef PASE_CLI_PATH
#error "PASE_CLI_PATH must be defined by the build"
#endif
#ifndef PASE_SOURCE_DIR
#error "PASE_SOURCE_DIR must be defined by the build"
#endif

std::string golden_dir() {
  return std::string(PASE_SOURCE_DIR) + "/tests/corpus/golden/";
}

/// Runs `cmd` (stderr folded into stdout) and returns (exit code, output).
std::pair<int, std::string> run_command(const std::string& cmd) {
  std::FILE* pipe = ::popen((cmd + " 2>&1").c_str(), "r");
  if (!pipe) return {-1, "popen failed"};
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  const int status = ::pclose(pipe);
  return {status, out};
}

/// Scratch directory for per-test output files the CLI writes.
std::string temp_dir() {
  const char* base = std::getenv("TMPDIR");
  std::string dir = std::string(base ? base : "/tmp") + "/pase_golden";
  const std::string cmd = "mkdir -p '" + dir + "'";
  if (std::system(cmd.c_str()) != 0) ADD_FAILURE() << "cannot create " << dir;
  return dir;
}

/// Blanks the volatile fields so the remainder is a pure function of the
/// input: wall-clock search times ("search: 12.3 ms" -> "search: X ms") and
/// the scratch paths of written files.
std::string normalize(std::string text, const std::string& scratch) {
  // Replace every occurrence of the scratch dir first, so path suffixes
  // stay comparable ("<TMP>/metrics.json"). Ditto the source dir, which
  // the CLI echoes for --machine-spec files.
  for (size_t at = text.find(scratch); at != std::string::npos;
       at = text.find(scratch, at))
    text.replace(at, scratch.size(), "<TMP>");
  const std::string src = PASE_SOURCE_DIR;
  for (size_t at = text.find(src); at != std::string::npos;
       at = text.find(src, at))
    text.replace(at, src.size(), "<SRC>");

  std::istringstream in(text);
  std::string out, line;
  while (std::getline(in, line)) {
    const size_t s = line.find("search: ");
    if (s != std::string::npos) {
      const size_t from = s + std::string("search: ").size();
      const size_t ms = line.find(" ms", from);
      if (ms != std::string::npos) line.replace(from, ms - from, "X");
    }
    out += line;
    out += '\n';
  }
  return out;
}

void compare_to_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_dir() + name;
  if (std::getenv("PASE_UPDATE_GOLDEN")) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "updated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — run with PASE_UPDATE_GOLDEN=1 to create it";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(actual, want.str()) << "output drifted from " << path
                                << " (PASE_UPDATE_GOLDEN=1 to accept)";
}

/// One CLI invocation checked against a golden expect file.
struct CliCase {
  const char* golden;  ///< expect file name under tests/corpus/golden/
  const char* args;    ///< everything after the binary; %SRC% = source dir
};

class Golden : public ::testing::TestWithParam<CliCase> {};

TEST_P(Golden, CliOutputMatches) {
  const CliCase& c = GetParam();
  std::string args = c.args;
  for (size_t at = args.find("%SRC%"); at != std::string::npos;
       at = args.find("%SRC%", at))
    args.replace(at, 5, PASE_SOURCE_DIR);

  const auto [status, raw] =
      run_command(std::string(PASE_CLI_PATH) + " " + args);
  EXPECT_EQ(status, 0) << "pase_cli failed:\n" << raw;
  compare_to_golden(c.golden, normalize(raw, temp_dir()));
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, Golden,
    ::testing::Values(
        CliCase{"example_model.txt",
                "%SRC%/tools/example_model.pase --devices 8 --threads 2 "
                "--baseline"},
        CliCase{"dense_model.txt",
                "%SRC%/tools/dense_model.pase --devices 8 --threads 2"},
        CliCase{"valid_tiny.txt",
                "%SRC%/tests/corpus/valid_tiny.pase --devices 4 --threads 1"},
        CliCase{"valid_tiny_machine_spec.txt",
                "%SRC%/tests/corpus/valid_tiny.pase --machine-spec "
                "%SRC%/tests/corpus/machine_valid.json --threads 1"},
        CliCase{"zoo_alexnet_p8.txt",
                "%SRC%/tests/corpus/zoo_alexnet.pase --devices 8 "
                "--threads 2 --baseline"},
        CliCase{"zoo_transformer_block_p8.txt",
                "%SRC%/tests/corpus/zoo_transformer_block.pase --devices 8 "
                "--threads 1 --comm-model auto"},
        CliCase{"zoo_resnet_large_p_splits_p8.txt",
                "--zoo resnet_large_p --devices 8 --threads 2 --split-dims "
                "batch,param,spatial,channel"},
        CliCase{"zoo_transformer_pipelined_stages_p8.txt",
                "--zoo transformer_pipelined --devices 8 --threads 2 "
                "--pipeline-stages 2"}),
    [](const ::testing::TestParamInfo<CliCase>& info) {
      std::string name = info.param.golden;
      return name.substr(0, name.find('.'));
    });

// The metrics snapshot's structural section (counters + histograms) is a
// golden artifact too: bit-identical across thread counts by contract, so
// the expect file pins it. Gauges (timings) are stripped before comparing.
TEST(GoldenMetrics, StructuralSnapshotMatches) {
  const std::string scratch = temp_dir();
  const std::string metrics_path = scratch + "/example_metrics.json";
  const auto [status, raw] = run_command(
      std::string(PASE_CLI_PATH) + " " + PASE_SOURCE_DIR +
      "/tools/example_model.pase --devices 8 --threads 2 --metrics-out " +
      metrics_path);
  ASSERT_EQ(status, 0) << raw;

  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good()) << "CLI did not write " << metrics_path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string snapshot = buf.str();
  // Structural prefix: everything before the volatile gauges section.
  const size_t gauges = snapshot.find("\"gauges\"");
  ASSERT_NE(gauges, std::string::npos) << snapshot;
  compare_to_golden("example_model_metrics.txt",
                    snapshot.substr(0, gauges) + "...gauges stripped...\n");
}

// Same contract for the Prometheus exposition (--metrics-format prom):
// counters and histograms are emitted before any gauge, so stripping from
// the first gauge TYPE line leaves the thread-count-invariant prefix.
TEST(GoldenMetrics, PrometheusSnapshotMatches) {
  const std::string scratch = temp_dir();
  const std::string metrics_path = scratch + "/example_metrics.prom";
  const auto [status, raw] = run_command(
      std::string(PASE_CLI_PATH) + " " + PASE_SOURCE_DIR +
      "/tools/example_model.pase --devices 8 --threads 2 --metrics-out " +
      metrics_path + " --metrics-format prom");
  ASSERT_EQ(status, 0) << raw;

  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good()) << "CLI did not write " << metrics_path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string snapshot = buf.str();
  // Find the first gauge TYPE header and cut at its line start.
  size_t cut = snapshot.find(" gauge\n");
  ASSERT_NE(cut, std::string::npos) << snapshot;
  cut = snapshot.rfind("# TYPE", cut);
  ASSERT_NE(cut, std::string::npos);
  compare_to_golden("example_model_metrics_prom.txt",
                    snapshot.substr(0, cut) + "...gauges stripped...\n");
}

}  // namespace
}  // namespace pase
