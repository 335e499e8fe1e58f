// Self-tests of the repository benchmark: the percentile rule, seeded input
// generation, the answer check, and the metric lists each workload prints.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "harness.h"
#include "serve/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

const std::string kData = PERFBENCH_DATA_DIR;

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, RefusesWithFewerThanTenSamplesBeyond) {
  EXPECT_FALSE(tail_percentile(ramp(19), 0.50));
  EXPECT_EQ(tail_percentile(ramp(20), 0.50), 10.0);
  EXPECT_FALSE(tail_percentile(ramp(199), 0.95));
  EXPECT_EQ(tail_percentile(ramp(200), 0.95), 190.0);
  EXPECT_FALSE(tail_percentile(ramp(999), 0.99));
  EXPECT_EQ(tail_percentile(ramp(1000), 0.99), 990.0);
  EXPECT_EQ(min_samples_for(0.50), 20);
  EXPECT_EQ(min_samples_for(0.95), 200);
  EXPECT_EQ(min_samples_for(0.99), 1000);
}

TEST(HostProbe, SlowdownIsTheMedianOverTheReference) {
  HostProbe probe;
  const double a = probe.sample();
  const double b = probe.sample();
  const double c = probe.sample();
  EXPECT_EQ(probe.samples(), 3);
  EXPECT_GT(a, 0.0);
  EXPECT_DOUBLE_EQ(probe.slowdown(),
                   median({a, b, c}) / HostProbe::kReferenceMs);
  // The last sample just ended, so a long gap is not yet due.
  EXPECT_EQ(probe.sample_if_due(3600.0), 0.0);
  EXPECT_EQ(probe.samples(), 3);
  EXPECT_GE(probe.resident_mb(), 8.0);
}

std::string order_bytes(u64 seed) {
  SeededOrders orders(seed, 12);
  std::string bytes;
  for (int round = 0; round < 50; ++round)
    for (const i64 i : orders.next()) bytes += std::to_string(i) + ",";
  return bytes;
}

std::string stream_bytes(u64 seed) {
  ServeKeys keys;
  std::string error;
  EXPECT_TRUE(serve_keys(kData, &keys, &error)) << error;
  ZipfStream stream(seed, static_cast<i64>(keys.lines.size()));
  std::string bytes;
  for (int i = 0; i < 3000; ++i)
    bytes += keys.lines[static_cast<size_t>(stream.next())] + "\n";
  return bytes;
}

TEST(Seeds, SameSeedSameInputsOtherSeedOtherInputs) {
  EXPECT_EQ(order_bytes(7), order_bytes(7));
  EXPECT_NE(order_bytes(7), order_bytes(8));
  EXPECT_EQ(stream_bytes(7), stream_bytes(7));
  EXPECT_NE(stream_bytes(7), stream_bytes(8));
}

TEST(Seeds, StreamKeepsZipfFrequencies) {
  ZipfStream stream(3, 224);
  std::vector<int> counts(224);
  for (int i = 0; i < 4 * 1024; ++i) ++counts[static_cast<size_t>(stream.next())];
  for (size_t k = 1; k < counts.size(); ++k)
    EXPECT_LE(counts[k], counts[k - 1] + 4) << "rank " << k;
  for (const int c : counts) EXPECT_GE(c, 1);
}

RunConfig quick(const std::string& workload, bool trace) {
  RunConfig cfg;
  cfg.workload = workload;
  cfg.seed = 5;
  cfg.seconds = 0.2;
  cfg.trace = trace;
  cfg.data_dir = kData;
  return cfg;
}

TEST(AnswerCheck, FailsWhenOneExpectedCostIsPerturbed) {
  std::ifstream in(kData + "/expected_answers.tsv");
  ASSERT_TRUE(in);
  const std::string perturbed = ::testing::TempDir() + "perturbed.tsv";
  std::ofstream out(perturbed);
  std::string line;
  bool done = false;
  while (std::getline(in, line)) {
    if (!done && line.rfind("table1/alexnet/p8\t", 0) == 0) {
      // Change the last hex digit of the stored cost bits.
      const size_t cost_at = line.find('\t', line.find('\t') + 1) + 1;
      char& last = line[cost_at + 15];
      last = last == '0' ? '1' : '0';
      done = true;
    }
    out << line << "\n";
  }
  out.close();
  ASSERT_TRUE(done);

  Report report;
  std::string error;
  RunConfig cfg = quick("table1_sweep", false);
  ASSERT_TRUE(run_workload(cfg, &report, &error)) << error;
  EXPECT_TRUE(report.correct());
  EXPECT_EQ(report.failed, 0);

  cfg.expected_path = perturbed;
  ASSERT_TRUE(run_workload(cfg, &report, &error)) << error;
  EXPECT_FALSE(report.correct());
  EXPECT_GT(report.failed, 0);
  std::remove(perturbed.c_str());
}

/// (name, unit) pairs of one BENCHMARK.json list.
std::vector<std::pair<std::string, std::string>> declared(
    const std::string& list) {
  std::ifstream in(kData + "/../../BENCHMARK.json");
  std::ostringstream text;
  text << in.rdbuf();
  const auto doc = pase::serve::parse_json(text.str());
  std::vector<std::pair<std::string, std::string>> out;
  if (!doc || doc->get(list) == nullptr) return out;
  for (const auto& m : doc->get(list)->array)
    out.emplace_back(m.get_string("name"), m.get_string("unit"));
  return out;
}

std::vector<std::pair<std::string, std::string>> printed(const Report& r) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Metric& m : r.metrics) out.emplace_back(m.name, m.unit);
  return out;
}

class EveryWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryWorkload, PrintsExactlyTheDeclaredMetrics) {
  for (const bool trace : {false, true}) {
    Report report;
    std::string error;
    ASSERT_TRUE(run_workload(quick(GetParam(), trace), &report, &error))
        << error;
    EXPECT_TRUE(report.correct());
    const auto want = declared(trace ? "per_layer" : "end_to_end");
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(printed(report), want) << (trace ? "traced" : "untraced");
    if (!trace) {
      for (const Metric& m : report.metrics) EXPECT_GT(m.value, 0.0) << m.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Perfbench, EveryWorkload,
                         ::testing::ValuesIn(workload_names()));

}  // namespace
}  // namespace perfbench
