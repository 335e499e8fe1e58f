// pase_perfbench: runs one workload of the repository benchmark and prints
// its metrics; perfbench/run.py builds it and is the usual entry point.
//
//   pase_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --data DIR [--expected FILE]
//   pase_perfbench --record FILE --data DIR
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the lines before it repeat
// each metric with the number of operations behind it. Exit status: 0 when
// every checked answer matched, 1 when one did not, 2 on a usage or set-up
// error (then no result line is printed).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--data DIR [--expected FILE]\n"
               "       %s --record FILE --data DIR\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string record;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      cfg.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      cfg.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      cfg.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--data") == 0) {
      cfg.data_dir = value;
    } else if (std::strcmp(flag, "--expected") == 0) {
      cfg.expected_path = value;
    } else if (std::strcmp(flag, "--record") == 0) {
      record = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (cfg.data_dir.empty()) return usage(argv[0]);

  std::string error;
  if (!record.empty()) {
    std::ofstream out(record);
    if (!out || !perfbench::record_answers(cfg.data_dir, out, &error)) {
      std::fprintf(stderr, "pase_perfbench: %s\n",
                   error.empty() ? ("cannot write " + record).c_str()
                                 : error.c_str());
      return 2;
    }
    return 0;
  }

  if (cfg.workload.empty() || !(cfg.seconds > 0.0)) return usage(argv[0]);
  perfbench::Report report;
  if (!perfbench::run_workload(cfg, &report, &error)) {
    std::fprintf(stderr, "pase_perfbench: %s\n", error.c_str());
    return 2;
  }
  if (report.host_slowdown > 0.0) {
    std::printf("# %-30s %14.6g %-6s n=%lld\n", "host_slowdown",
                report.host_slowdown, "ratio",
                static_cast<long long>(report.probe_samples));
    std::printf("# %-30s %14.6g %-6s\n", "setup_slowdown",
                report.setup_slowdown, "ratio");
  }
  for (const perfbench::Metric& m : report.metrics)
    std::printf("# %-30s %14.6g %-6s n=%lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  std::printf("%s\n", perfbench::result_json(report).c_str());
  if (!report.correct())
    std::fprintf(stderr, "pase_perfbench: %lld of %lld answers differ from "
                         "the expected answers\n",
                 static_cast<long long>(report.failed),
                 static_cast<long long>(report.attempted));
  return report.correct() ? 0 : 1;
}
