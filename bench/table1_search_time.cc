// Reproduces paper Table I: time taken by breadth-first-ordered DP (BF),
// the FlexFlow-like MCMC search, and PaSE (Ours) to find parallelization
// strategies for the four benchmarks at p = 4..64.
//
// Expected shape (the claim under test): BF matches Ours on the path graphs
// (AlexNet, RNNLM) but goes OOM on InceptionV3 and Transformer; the MCMC
// search is orders of magnitude slower than Ours; Ours grows with p but
// stays interactive.
//
// The "Ours/1t" vs "Ours/Nt" columns time the identical DP sequentially and
// with the threaded fan-out (see --threads below). The chosen strategy and
// cost are bit-identical by construction; this binary verifies that on
// every cell and aborts loudly on any mismatch.
//
// Usage: table1_search_time [--threads N]   (default 4; 0 = hardware
// concurrency). Speedups only materialize with as many cores as threads.
#include <cstring>

#include "bench_common.h"
#include "obs/metrics.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace pase;

int main(int argc, char** argv) {
  i64 threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoll(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--threads N]\n", argv[0]);
      return 2;
    }
  }
  threads = ThreadPool::resolve(threads);

  const auto benchmarks = models::paper_benchmarks();

  TextTable table(
      "Table I: time to find parallelization strategies "
      "(mins:secs.msecs; OOM = table guard tripped; Nt = " +
      std::to_string(threads) + " threads)");
  std::vector<std::string> header = {"p"};
  for (const auto& b : benchmarks) {
    header.push_back(b.name + "/BF");
    header.push_back(b.name + "/FlexFlow-like");
    header.push_back(b.name + "/Ours-1t");
    header.push_back(b.name + "/Ours-" + std::to_string(threads) + "t");
  }
  table.set_header(header);

  // Per-benchmark totals across p for the thread-speedup summary.
  std::vector<double> total_1t(benchmarks.size(), 0.0);
  std::vector<double> total_nt(benchmarks.size(), 0.0);
  bool deterministic = true;

  // One registry per benchmark, attached to the threaded "Ours" runs and
  // accumulated across p — the phase-breakdown summary below reads the same
  // dp.phase.* gauges and dp.* counters pase_cli --metrics-out dumps.
  std::vector<MetricsRegistry> metrics(benchmarks.size());

  for (const i64 p : bench::device_counts()) {
    const MachineSpec m = MachineSpec::gtx1080ti(p);
    std::vector<std::string> row = {std::to_string(p)};
    for (size_t bi = 0; bi < benchmarks.size(); ++bi) {
      const auto& b = benchmarks[bi];
      // BF ordering (the paper's naive recurrence): a modest table guard
      // keeps the OOM outcome fast instead of actually exhausting RAM.
      auto bf_opt = bench::dp_options(m, OrderingKind::kBreadthFirst);
      bf_opt.max_table_entries = u64{1} << 20;
      const DpResult bf = find_best_strategy(b.graph, bf_opt);
      row.push_back(bf.status == DpStatus::kOk
                        ? format_mins_secs(bf.elapsed_seconds)
                        : "OOM");

      const McmcResult mc = bench::run_flexflow_like(b.graph, m);
      row.push_back(format_mins_secs(mc.elapsed_seconds));

      const DpResult seq = find_best_strategy(
          b.graph, bench::dp_options(m, OrderingKind::kGenerateSeq, 1));
      row.push_back(seq.status == DpStatus::kOk
                        ? format_mins_secs(seq.elapsed_seconds)
                        : "OOM");

      auto par_opt = bench::dp_options(m, OrderingKind::kGenerateSeq, threads);
      par_opt.metrics = &metrics[bi];
      const DpResult par = find_best_strategy(b.graph, par_opt);
      row.push_back(par.status == DpStatus::kOk
                        ? format_mins_secs(par.elapsed_seconds)
                        : "OOM");

      total_1t[bi] += seq.elapsed_seconds;
      total_nt[bi] += par.elapsed_seconds;
      // Bit-identical determinism contract: same status, cost and strategy
      // at every thread count.
      if (seq.status != par.status || seq.best_cost != par.best_cost ||
          seq.strategy != par.strategy) {
        deterministic = false;
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: %s at p=%lld differs between "
                     "1 and %lld threads\n",
                     b.name.c_str(), static_cast<long long>(p),
                     static_cast<long long>(threads));
      }
    }
    table.add_row(row);
  }
  table.print();

  std::printf("\nThread speedup (sum over p, 1t / %lldt):\n",
              static_cast<long long>(threads));
  for (size_t bi = 0; bi < benchmarks.size(); ++bi)
    std::printf("  %-14s %6.2fx  (%s -> %s)\n", benchmarks[bi].name.c_str(),
                total_nt[bi] > 0 ? total_1t[bi] / total_nt[bi] : 1.0,
                format_mins_secs(total_1t[bi]).c_str(),
                format_mins_secs(total_nt[bi]).c_str());
  std::printf("determinism check: %s (strategy, cost and status %s across "
              "thread counts)\n",
              deterministic ? "PASS" : "FAIL",
              deterministic ? "bit-identical" : "DIFFER");

  std::printf("\nPhase breakdown (Ours-%lldt, summed over p):\n",
              static_cast<long long>(threads));
  // pricing and reduce are the two halves of table_fill.
  static constexpr const char* kPhases[] = {
      "ordering", "configs",  "dep_sets",         "table_fill",
      "pricing",  "reduce",   "back_substitution"};
  for (size_t bi = 0; bi < benchmarks.size(); ++bi) {
    const MetricsRegistry& reg = metrics[bi];
    std::printf("  %-14s", benchmarks[bi].name.c_str());
    const double elapsed = reg.gauge("dp.elapsed_seconds");
    for (const char* phase : kPhases) {
      const double s =
          reg.gauge(std::string("dp.phase.") + phase + "_seconds");
      std::printf(" %s=%.0f%%", phase,
                  elapsed > 0 ? 100.0 * s / elapsed : 0.0);
    }
    std::printf("  (substrategies %llu, combinations %llu)\n",
                static_cast<unsigned long long>(
                    reg.counter("dp.substrategies")),
                static_cast<unsigned long long>(
                    reg.counter("dp.combinations")));
  }

  std::printf(
      "\nNotes: the FlexFlow-like column runs the paper's MCMC (expert\n"
      "initial candidate, stop after no improvement for half the search or\n"
      "25k iterations) with full per-candidate evaluation, mirroring\n"
      "FlexFlow's simulator-based costing.\n");
  return deterministic ? 0 : 1;
}
