// Search-time ledger: cold solves of the paper's Table I models and of the
// generated transformer_stack family (docs/BENCHMARKS.md), the numbers the
// ROADMAP's BENCH_table1.json trajectory tracks.
//
// Section "table1": AlexNet, InceptionV3, RNNLM and Transformer at
// p in {8, 32, 64}, one solver thread (the per-combination cost, not the
// fan-out), exact solve with default options:
//   cold_ms      min of 3 trials
//   pricing_ms   the fastest trial's t_l/t_x pricing, from the solver's
//                dp.phase.pricing_seconds gauge
//   reduce_ms    the fastest trial's min-plus table reduce
//                (dp.phase.reduce_seconds)
//
// Section "models": for each N in {8, 100, 1000} (transformer_stack_<N>,
// 6N + 4 layers), at p = 8. The solver is given every hardware thread, but
// no vertex of these stacks is large enough to fan out to the pool, so the
// rows time one thread's work and cannot show a pool regression:
//   cold_ms           exact solve with default options, min of 3 trials
//   graph_phases_ms   the ordering + dep_sets phases of that trial, read
//                     from the solver's dp.phase.*_seconds gauges
//   graph_share       graph_phases_ms / cold_ms
//
// Output is one canonical JSON object on stdout (redirect to
// BENCH_table1.json); human-readable numbers go to stderr. The JSON
// carries a top-level "gated" path list, which is what tools/bench_gate
// diffs against the checked-in baseline (calibration-normalized via
// cpu_calib_ms, exactly like BENCH_serve.json).
//
// Structural claim enforced here (exit 1 on violation, so check.sh fails
// even before the gate runs): at N = 1000 the ordering and vertex-set
// phases take under 10% of the solve. Both are near-linear in the graph
// size, so the solve is dominated by pricing and the table reduce like
// any other model's.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "serve/json.h"

using namespace pase;
using pase::bench::calibrate_cpu_ms;
using pase::bench::now_ms;
using pase::serve::Json;
using pase::serve::write_json;

namespace {

/// Largest share of the N = 1000 solve the ordering and dep_sets phases
/// may take.
constexpr double kMaxGraphShare = 0.10;

struct Row {
  std::string name;
  i64 layers = 0;
  double cold_ms = 0.0;
  double graph_phases_ms = 0.0;
  double pricing_ms = 0.0;
  double reduce_ms = 0.0;
  bool ok = false;
};

/// Min-of-3 wall time of find_best_strategy, with the phase split of the
/// fastest trial.
Row timed_solve(std::string name, const Graph& graph, const DpOptions& base) {
  Row row;
  row.name = std::move(name);
  row.layers = graph.num_nodes();
  for (int t = 0; t < 3; ++t) {
    MetricsRegistry metrics;
    DpOptions options = base;
    options.metrics = &metrics;
    const double t0 = now_ms();
    const DpResult r = find_best_strategy(graph, options);
    const double ms = now_ms() - t0;
    if (t == 0 || ms < row.cold_ms) {
      row.cold_ms = ms;
      row.graph_phases_ms =
          1e3 * (metrics.gauge("dp.phase.ordering_seconds") +
                 metrics.gauge("dp.phase.dep_sets_seconds"));
      row.pricing_ms = 1e3 * metrics.gauge("dp.phase.pricing_seconds");
      row.reduce_ms = 1e3 * metrics.gauge("dp.phase.reduce_seconds");
    }
    row.ok = r.status == DpStatus::kOk;
  }
  if (!row.ok)
    std::fprintf(stderr, "FAIL: %s did not solve\n", row.name.c_str());
  return row;
}

Json number(double v) { return Json::make_number(v); }

}  // namespace

int main() {
  const double calib_ms = calibrate_cpu_ms(3);
  std::fprintf(stderr, "cpu calibration: %.3f ms (memory-bound spin)\n",
               calib_ms);
  bool ok = true;

  std::vector<Row> cells;
  std::fprintf(stderr, "%-20s %6s %10s %11s %10s\n", "table1 cell", "layers",
               "cold(ms)", "pricing(ms)", "reduce(ms)");
  for (const char* model : {"alexnet", "inception_v3", "rnnlm",
                            "transformer"}) {
    const Graph graph = *models::zoo_graph(model);
    for (const i64 p : {8, 32, 64}) {
      const DpOptions options = bench::dp_options(
          MachineSpec::gtx1080ti(p), OrderingKind::kGenerateSeq, 1);
      Row row = timed_solve(std::string(model) + "_p" + std::to_string(p),
                            graph, options);
      std::fprintf(stderr, "%-20s %6lld %10.2f %11.2f %10.2f\n",
                   row.name.c_str(), static_cast<long long>(row.layers),
                   row.cold_ms, row.pricing_ms, row.reduce_ms);
      ok = ok && row.ok;
      cells.push_back(std::move(row));
    }
  }

  const MachineSpec machine = MachineSpec::gtx1080ti(8);
  const DpOptions options = bench::dp_options(machine);
  std::vector<Row> stacks;
  std::fprintf(stderr, "\n%-24s %6s %12s %14s %8s\n", "model", "layers",
               "cold(ms)", "graph(ms)", "share");
  for (const i64 n : {8, 100, 1000}) {
    Row row = timed_solve("transformer_stack_" + std::to_string(n),
                          models::transformer_stack(n), options);
    std::fprintf(stderr, "%-24s %6lld %12.1f %14.2f %7.1f%%\n",
                 row.name.c_str(), static_cast<long long>(row.layers),
                 row.cold_ms, row.graph_phases_ms,
                 100.0 * row.graph_phases_ms / row.cold_ms);
    ok = ok && row.ok;
    stacks.push_back(std::move(row));
  }

  const Row& big = stacks.back();
  const double big_share = big.graph_phases_ms / big.cold_ms;
  if (!(big_share < kMaxGraphShare)) {
    std::fprintf(stderr,
                 "FAIL: ordering + dep_sets take %.1f%% of the N=1000 solve "
                 "(bar: %.0f%%)\n",
                 100.0 * big_share, 100.0 * kMaxGraphShare);
    ok = false;
  }

  Json table1_json = Json::make_object();
  for (const Row& row : cells) {
    Json entry = Json::make_object();
    entry.object["layers"] = number(static_cast<double>(row.layers));
    entry.object["cold_ms"] = number(row.cold_ms);
    entry.object["pricing_ms"] = number(row.pricing_ms);
    entry.object["reduce_ms"] = number(row.reduce_ms);
    table1_json.object[row.name] = std::move(entry);
  }
  Json models_json = Json::make_object();
  for (const Row& row : stacks) {
    Json entry = Json::make_object();
    entry.object["layers"] = number(static_cast<double>(row.layers));
    entry.object["cold_ms"] = number(row.cold_ms);
    entry.object["graph_phases_ms"] = number(row.graph_phases_ms);
    entry.object["graph_share"] = number(row.graph_phases_ms / row.cold_ms);
    models_json.object[row.name] = std::move(entry);
  }

  // The gate bands the absolute search times of the big instances: the
  // four p = 64 Table I cells and the two big stacks. The smaller cells
  // and the N=8 row are informational (a few milliseconds, too close to
  // scheduler noise), and the phase share is enforced as a hard claim
  // above instead — the gate's regression/stale bands are built for
  // "lower is better" latencies, not ratios.
  Json gated = Json::make_array();
  for (const char* path : {"table1.alexnet_p64.cold_ms",
                           "table1.inception_v3_p64.cold_ms",
                           "table1.rnnlm_p64.cold_ms",
                           "table1.transformer_p64.cold_ms",
                           "models.transformer_stack_100.cold_ms",
                           "models.transformer_stack_1000.cold_ms"})
    gated.array.push_back(Json::make_string(path));

  Json report = Json::make_object();
  report.object["bench"] = Json::make_string("table1_scaling");
  report.object["cpu_calib_ms"] = number(calib_ms);
  report.object["devices"] = number(static_cast<double>(machine.num_devices));
  report.object["gated"] = std::move(gated);
  report.object["models"] = std::move(models_json);
  report.object["table1"] = std::move(table1_json);
  std::printf("%s\n", write_json(report).c_str());
  return ok ? 0 : 1;
}
