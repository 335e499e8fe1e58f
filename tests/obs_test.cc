// Observability subsystem (src/obs) tests: the shared Chrome trace emitter's
// byte format, MetricsRegistry semantics and canonical dumps, TraceSession
// span recording, and — the integration half — parse-back validity of the
// traces a simulate run and a DP run actually emit, using the minimal JSON
// reader in mini_json.h. The ObsZoo suite sweeps every paper-benchmark zoo
// model and is labeled `slow` in ctest (tools/check.sh excludes it from the
// sanitizer lanes).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/dp_solver.h"
#include "mini_json.h"
#include "models/models.h"
#include "obs/chrome_trace.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/rolling.h"
#include "obs/trace.h"
#include "search/baselines.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace pase {
namespace {

// ---------------------------------------------------------------------------
// Shared emitter: the byte format is a contract (golden trace diffs depend
// on it), so lock it down exactly.

TEST(ChromeTrace, EmitterByteFormat) {
  std::vector<ChromeEvent> events(2);
  events[0].name = "alpha";
  events[0].ts_us = 1.5;
  events[0].dur_us = 2.25;
  events[0].args.emplace_back("devices", 8);
  events[1].name = "beta";
  events[1].tid = 3;
  events[1].ts_us = 4.0;
  events[1].dur_us = 0.125;

  EXPECT_EQ(to_chrome_trace_json(events),
            "[\n"
            "{\"name\":\"alpha\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
            "\"ts\":1.500,\"dur\":2.250,\"args\":{\"devices\":8}},\n"
            "{\"name\":\"beta\",\"ph\":\"X\",\"pid\":0,\"tid\":3,"
            "\"ts\":4.000,\"dur\":0.125,\"args\":{}}\n"
            "]\n");
}

TEST(ChromeTrace, EmptyEventListIsValidJson) {
  const std::string json = to_chrome_trace_json(std::vector<ChromeEvent>{});
  EXPECT_EQ(json, "[\n]\n");
  // "[\n]\n" must still parse (Chrome accepts it).
  EXPECT_TRUE(testing::JsonParser::parse(json).has_value());
}

// ---------------------------------------------------------------------------
// MetricsRegistry semantics.

TEST(Metrics, CountersGaugesHistograms) {
  MetricsRegistry reg;
  reg.add_counter("c.one", 1);
  reg.add_counter("c.one", 2);
  reg.set_gauge("g.x", 1.5);
  reg.add_gauge("g.x", 0.25);
  reg.record("h.sizes", 0);
  reg.record("h.sizes", 1);
  reg.record("h.sizes", 5);
  reg.record("h.sizes", 5);

  EXPECT_EQ(reg.counter("c.one"), 3u);
  EXPECT_EQ(reg.counter("absent"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("g.x"), 1.75);
  const auto h = reg.histogram("h.sizes");
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 11);
  // Power-of-two buckets: {0} -> lower 0, {1} -> lower 1, {4..7} -> lower 4.
  const std::vector<std::pair<i64, u64>> want = {{0, 1}, {1, 1}, {4, 2}};
  EXPECT_EQ(h.buckets, want);
  EXPECT_EQ(reg.num_metrics(), 3);
}

TEST(Metrics, JsonIsCanonicalAndGaugesStripCleanly) {
  MetricsRegistry reg;
  // Insert out of alphabetical order; the dump must sort.
  reg.add_counter("z.last", 1);
  reg.add_counter("a.first", 2);
  reg.record("h.only", 3);
  reg.set_gauge("g.volatile", 0.5);

  const std::string full = reg.to_json();
  const std::string structural = reg.structural_json();
  // The structural dump is a prefix of the full dump up to the gauges
  // section — the property check.sh's thread-count diff relies on.
  EXPECT_NE(full.find("\"gauges\""), std::string::npos);
  EXPECT_EQ(structural.find("\"gauges\""), std::string::npos);
  EXPECT_EQ(full.substr(0, full.find("\"gauges\"") - 2),
            structural.substr(0, structural.rfind("\n}\n")));
  EXPECT_LT(full.find("a.first"), full.find("z.last"));

  // Both dumps parse, with the right values in the right sections.
  const auto parsed = testing::JsonParser::parse(full);
  ASSERT_TRUE(parsed.has_value());
  const auto* counters = parsed->get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->get("a.first")->number, 2.0);
  const auto* hist = parsed->get("histograms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->get("h.only")->get("count")->number, 1.0);
  const auto* gauges = parsed->get("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->get("g.volatile")->number, 0.5);
  ASSERT_TRUE(testing::JsonParser::parse(structural).has_value());
}

TEST(Metrics, IdenticalContentsProduceIdenticalBytes) {
  // Canonical ordering: insertion order must not leak into the dump.
  MetricsRegistry a, b;
  a.add_counter("x", 1);
  a.add_counter("y", 2);
  b.add_counter("y", 2);
  b.add_counter("x", 1);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_text(), b.to_text());
}

TEST(Metrics, TextDumpListsEverySection) {
  MetricsRegistry reg;
  reg.add_counter("c", 7);
  reg.record("h", 2);
  reg.set_gauge("g", 1.0);
  const std::string text = reg.to_text();
  EXPECT_NE(text.find("counter"), std::string::npos);
  EXPECT_NE(text.find("histogram"), std::string::npos);
  EXPECT_NE(text.find("gauge"), std::string::npos);
}

TEST(Metrics, PrometheusByteFormat) {
  // The Prometheus exposition is a byte contract like to_json():
  // counters, then histograms (cumulative buckets at le = 2^k - 1,
  // then +Inf/_sum/_count), then gauges strictly last.
  MetricsRegistry reg;
  reg.add_counter("c.req", 7);
  reg.record("h.sz", 0);
  reg.record("h.sz", 1);
  reg.record("h.sz", 2);
  reg.record("h.sz", 5);
  reg.set_gauge("g.load", 1.5);

  EXPECT_EQ(reg.to_prometheus(),
            "# TYPE pase_c_req counter\n"
            "pase_c_req 7\n"
            "# TYPE pase_h_sz histogram\n"
            "pase_h_sz_bucket{le=\"0\"} 1\n"
            "pase_h_sz_bucket{le=\"1\"} 2\n"
            "pase_h_sz_bucket{le=\"3\"} 3\n"
            "pase_h_sz_bucket{le=\"7\"} 4\n"
            "pase_h_sz_bucket{le=\"+Inf\"} 4\n"
            "pase_h_sz_sum 8\n"
            "pase_h_sz_count 4\n"
            "# TYPE pase_g_load gauge\n"
            "pase_g_load 1.5\n");

  // Gauges strip cleanly: the gauge-free dump is the exact prefix up to
  // the first gauge TYPE line — the prom analogue of structural_json().
  const std::string full = reg.to_prometheus();
  const std::string structural = reg.to_prometheus(/*include_gauges=*/false);
  EXPECT_EQ(structural, full.substr(0, full.find("# TYPE pase_g_load")));
}

// ---------------------------------------------------------------------------
// RollingHistogram: the windowed SLO quantile estimator.

TEST(RollingHistogram, WindowedQuantilesAreDeterministic) {
  RollingHistogram roll(4);
  for (int v = 1; v <= 10; ++v) roll.record(static_cast<double>(v));
  // The ring holds exactly the last 4 samples {7,8,9,10}; total counts
  // everything ever recorded.
  EXPECT_EQ(roll.count(), 4);
  EXPECT_EQ(roll.total(), 10u);
  EXPECT_EQ(roll.window(), 4);
  // Nearest-rank on the sorted window: index floor(q * (n - 1)).
  EXPECT_DOUBLE_EQ(roll.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(roll.quantile(0.5), 8.0);
  EXPECT_DOUBLE_EQ(roll.quantile(0.99), 9.0);
  EXPECT_DOUBLE_EQ(roll.quantile(1.0), 10.0);

  const RollingHistogram::Snapshot snap = roll.snapshot();
  EXPECT_EQ(snap.window, 4);
  EXPECT_EQ(snap.count, 4);
  EXPECT_EQ(snap.total, 10u);
  EXPECT_DOUBLE_EQ(snap.p50, 8.0);
  EXPECT_DOUBLE_EQ(snap.p95, 9.0);
  EXPECT_DOUBLE_EQ(snap.p99, 9.0);

  // Same request order -> bit-identical snapshot (the determinism the
  // event-log/SLO contract in DESIGN.md §11 promises).
  RollingHistogram again(4);
  for (int v = 1; v <= 10; ++v) again.record(static_cast<double>(v));
  const RollingHistogram::Snapshot snap2 = again.snapshot();
  EXPECT_EQ(snap.p50, snap2.p50);
  EXPECT_EQ(snap.p95, snap2.p95);
  EXPECT_EQ(snap.p99, snap2.p99);
}

TEST(RollingHistogram, EmptyAndPartialWindows) {
  RollingHistogram roll(8);
  EXPECT_EQ(roll.count(), 0);
  EXPECT_DOUBLE_EQ(roll.quantile(0.5), 0.0);  // empty -> 0, not NaN
  const RollingHistogram::Snapshot empty = roll.snapshot();
  EXPECT_EQ(empty.count, 0);
  EXPECT_DOUBLE_EQ(empty.p99, 0.0);

  roll.record(3.0);
  // A single sample answers every quantile.
  EXPECT_DOUBLE_EQ(roll.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(roll.quantile(0.99), 3.0);
}

// ---------------------------------------------------------------------------
// EventLog: bounded memory ring + optional per-line-flushed sink.

TEST(EventLog, MemoryRingKeepsTailAndCountsTotal) {
  EventLog log(2);
  log.append("{\"seq\":0}");
  log.append("{\"seq\":1}");
  log.append("{\"seq\":2}");
  EXPECT_EQ(log.total(), 3u);
  const std::vector<std::string> tail = log.tail();
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0], "{\"seq\":1}");
  EXPECT_EQ(tail[1], "{\"seq\":2}");
}

TEST(EventLog, SinkStreamsOneLinePerAppend) {
  const std::string path = ::testing::TempDir() + "pase_event_log_test.jsonl";
  EventLog log(8);
  std::string error;
  ASSERT_TRUE(log.open_sink(path, &error)) << error;
  log.append("{\"seq\":0}");
  log.append("{\"seq\":1}");
  // Flushed per line: readable while the log is still open (that is what
  // lets pase_loadgen cross-check a live daemon).
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"seq\":0}");
  EXPECT_EQ(lines[1], "{\"seq\":1}");
  std::remove(path.c_str());

  // An unwritable sink reports the path instead of silently dropping.
  EventLog bad(2);
  EXPECT_FALSE(bad.open_sink("/nonexistent-dir/event.log", &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// TraceSession: span recording, nesting, null-sink no-ops.

TEST(TraceSession, RecordsNestedSpansInStartOrder) {
  TraceSession session;
  {
    TraceSession::Span outer(&session, "outer");
    outer.arg("k", 42);
    { TraceSession::Span inner(&session, "inner"); }
    { TraceSession::Span inner2(&session, "inner"); }
  }
  EXPECT_EQ(session.num_lanes(), 1);
  EXPECT_EQ(session.num_spans(), 3);

  const auto events = session.events();
  ASSERT_EQ(events.size(), 3u);
  // Records append at open: outer first, then the two inners in order.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[2].name, "inner");
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].first, "k");
  EXPECT_EQ(events[0].args[0].second, 42);
  // Exact containment: children open later and close earlier.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_us, events[0].ts_us);
    EXPECT_LE(events[i].ts_us + events[i].dur_us,
              events[0].ts_us + events[0].dur_us);
  }
  EXPECT_LE(events[1].ts_us, events[2].ts_us);  // monotone per lane

  const auto totals = session.phase_totals();
  ASSERT_EQ(totals.size(), 2u);  // sorted by name
  EXPECT_EQ(totals[0].name, "inner");
  EXPECT_EQ(totals[0].count, 2u);
  EXPECT_EQ(totals[1].name, "outer");
  EXPECT_EQ(totals[1].count, 1u);
}

TEST(TraceSession, NullSessionIsANoOp) {
  TraceSession::Span span(nullptr, "nothing");
  span.arg("k", 1);  // must not crash
  PhaseScope phase(nullptr, nullptr, "nothing", "g");
  phase.arg("k", 2);
}

TEST(TraceSession, PhaseScopeFeedsBothSinks) {
  TraceSession session;
  MetricsRegistry reg;
  {
    PhaseScope phase(&session, &reg, "phase_x", "phase_x_seconds");
    phase.arg("n", 3);
  }
  EXPECT_EQ(session.num_spans(), 1);
  EXPECT_EQ(session.events()[0].name, "phase_x");
  EXPECT_GE(reg.gauge("phase_x_seconds"), 0.0);
}

// ---------------------------------------------------------------------------
// Parse-back validity of emitted traces (mini_json.h).

/// Checks the event invariants the emitters promise on a parsed Chrome
/// trace: every event is a complete slice with numeric ts/dur >= 0 and,
/// per tid, start-ordered timestamps. Returns the events grouped by tid;
/// the returned pointers alias `parsed`, which the caller must keep alive.
std::map<i64, std::vector<const testing::JsonValue*>> parse_and_check_trace(
    const testing::JsonValue& parsed) {
  std::map<i64, std::vector<const testing::JsonValue*>> by_tid;
  EXPECT_TRUE(parsed.is_array()) << "trace is not a JSON array";
  if (!parsed.is_array()) return by_tid;
  for (const auto& e : parsed.array) {
    EXPECT_TRUE(e.is_object());
    EXPECT_EQ(e.get("ph")->string, "X");
    EXPECT_TRUE(e.get("name")->is_string());
    EXPECT_FALSE(e.get("name")->string.empty());
    EXPECT_TRUE(e.get("ts")->is_number());
    EXPECT_TRUE(e.get("dur")->is_number());
    EXPECT_GE(e.get("ts")->number, 0.0);
    EXPECT_GE(e.get("dur")->number, 0.0);
    by_tid[static_cast<i64>(e.get("tid")->number)].push_back(&e);
  }
  for (const auto& [tid, events] : by_tid)
    for (size_t i = 1; i < events.size(); ++i)
      EXPECT_GE(events[i]->get("ts")->number,
                events[i - 1]->get("ts")->number)
          << "timestamps not monotone within tid " << tid;
  return by_tid;
}

/// Balanced nesting per tid: events arrive in start order, so a stack of
/// open intervals must contain every event's full range. The emitter rounds
/// to 3 decimals, so allow rounding slack of one ulp of that (0.001 us).
void check_nesting(
    const std::map<i64, std::vector<const testing::JsonValue*>>& by_tid) {
  constexpr double kSlackUs = 0.0011;
  for (const auto& [tid, events] : by_tid) {
    std::vector<std::pair<double, double>> open;  // (start, end)
    for (const auto* e : events) {
      const double ts = e->get("ts")->number;
      const double end = ts + e->get("dur")->number;
      while (!open.empty() && ts >= open.back().second - kSlackUs)
        open.pop_back();
      if (!open.empty()) {
        EXPECT_LE(end, open.back().second + kSlackUs)
            << "span \"" << e->get("name")->string << "\" escapes its parent"
            << " on tid " << tid;
      }
      open.emplace_back(ts, end);
    }
  }
}

TEST(ObsTrace, SimulatorTraceParses) {
  const Graph g = models::alexnet();
  const Simulator sim(g, MachineSpec::gtx1080ti(4));
  SimTrace trace;
  sim.simulate(data_parallel_strategy(g, 4), &trace);
  ASSERT_FALSE(trace.events.empty());

  const auto parsed = testing::JsonParser::parse(to_chrome_trace_json(trace));
  ASSERT_TRUE(parsed.has_value()) << "sim trace is not valid JSON";
  const auto by_tid = parse_and_check_trace(*parsed);
  // The sim timeline is single-lane and covers every graph layer's compute
  // slice (comm slices add " (comm)" twins).
  ASSERT_EQ(by_tid.size(), 1u);
  std::set<std::string> names;
  for (const auto* e : by_tid.at(0)) names.insert(e->get("name")->string);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_TRUE(names.count(g.node(v).name))
        << "layer " << g.node(v).name << " missing from the sim trace";
}

TEST(ObsTrace, DpTraceNestsAndCoversPhases) {
  const Graph g = models::alexnet();
  TraceSession session;
  DpOptions options;
  options.config_options.max_devices = 4;
  options.cost_params = CostParams::for_machine(MachineSpec::gtx1080ti(4));
  options.trace = &session;
  const DpResult r = find_best_strategy(g, options);
  ASSERT_EQ(r.status, DpStatus::kOk);

  const auto parsed = testing::JsonParser::parse(session.to_chrome_json());
  ASSERT_TRUE(parsed.has_value()) << "DP trace is not valid JSON";
  const auto by_tid = parse_and_check_trace(*parsed);
  check_nesting(by_tid);

  std::map<std::string, i64> counts;
  for (const auto& [tid, events] : by_tid)
    for (const auto* e : events) ++counts[e->get("name")->string];
  EXPECT_EQ(counts["ordering"], 1);
  EXPECT_EQ(counts["configs"], 1);
  EXPECT_EQ(counts["back_substitution"], 1);
  EXPECT_EQ(counts["dep_sets"], 1);
  EXPECT_EQ(counts["table_fill"], g.num_nodes());
  // Each vertex's fill splits into pricing and the reduce, nested inside
  // its table_fill span (check_nesting above).
  EXPECT_EQ(counts["pricing"], g.num_nodes());
  EXPECT_EQ(counts["reduce"], g.num_nodes());

  // Each vertex's table_fill span carries |D(i)|.
  for (const auto& [tid, events] : by_tid)
    for (const auto* e : events) {
      if (e->get("name")->string != "table_fill") continue;
      const auto* args = e->get("args");
      ASSERT_NE(args, nullptr);
      const auto vertex = static_cast<size_t>(args->get("vertex")->number);
      EXPECT_EQ(args->get("dep_set")->number,
                static_cast<double>(r.dependent_set_sizes.at(vertex)));
    }
}

TEST(ObsTrace, BeamFallbackSpanOverlapsNoTableFill) {
  // The table guard trips inside a vertex's table_fill scope; the fallback
  // must run after that scope closes, or its time is counted twice.
  const Graph g = testing::random_graph(10, 20, 11);
  TraceSession session;
  MetricsRegistry reg;
  DpOptions options;
  options.config_options.max_devices = 8;
  options.cost_params = CostParams::for_machine(MachineSpec::gtx1080ti(8));
  options.max_table_entries = 4;
  options.degraded_fallback = true;
  options.trace = &session;
  options.metrics = &reg;
  const DpResult r = find_best_strategy(g, options);
  ASSERT_EQ(r.status, DpStatus::kDegraded);
  ASSERT_EQ(r.trip_cause, DpResult::TripCause::kTableGuard);

  const auto parsed = testing::JsonParser::parse(session.to_chrome_json());
  ASSERT_TRUE(parsed.has_value());
  const auto by_tid = parse_and_check_trace(*parsed);
  check_nesting(by_tid);
  std::vector<std::pair<double, double>> fills, fallbacks;
  for (const auto& [tid, events] : by_tid)
    for (const auto* e : events) {
      const double ts = e->get("ts")->number;
      const std::pair<double, double> span{ts, ts + e->get("dur")->number};
      if (e->get("name")->string == "table_fill") fills.push_back(span);
      if (e->get("name")->string == "beam_fallback") {
        fallbacks.push_back(span);
        EXPECT_EQ(e->get("args")->get("width")->number,
                  static_cast<double>(options.beam_width));
      }
    }
  ASSERT_EQ(fallbacks.size(), 1u);
  ASSERT_FALSE(fills.empty());
  constexpr double kSlackUs = 0.0011;
  for (const auto& fill : fills)
    EXPECT_TRUE(fill.second <= fallbacks[0].first + kSlackUs ||
                fill.first >= fallbacks[0].second - kSlackUs)
        << "table_fill [" << fill.first << ", " << fill.second
        << "] overlaps beam_fallback [" << fallbacks[0].first << ", "
        << fallbacks[0].second << "]";
  // So the two phase gauges add up to no more than the whole solve.
  EXPECT_LE(reg.gauge("dp.phase.table_fill_seconds") +
                reg.gauge("dp.phase.beam_fallback_seconds"),
            r.elapsed_seconds + 1e-4);
}

// Every zoo model the paper evaluates gets a full DP run with both sinks
// attached; labeled slow (tests/CMakeLists.txt).
TEST(ObsZoo, EveryPaperBenchmarkEmitsValidTraceAndMetrics) {
  for (const auto& b : models::paper_benchmarks()) {
    TraceSession session;
    MetricsRegistry reg;
    DpOptions options;
    options.config_options.max_devices = 4;
    options.cost_params = CostParams::for_machine(MachineSpec::gtx1080ti(4));
    options.trace = &session;
    options.metrics = &reg;
    const DpResult r = find_best_strategy(b.graph, options);
    ASSERT_EQ(r.status, DpStatus::kOk) << b.name;

    const auto parsed = testing::JsonParser::parse(session.to_chrome_json());
    ASSERT_TRUE(parsed.has_value()) << b.name << ": trace is not valid JSON";
    const auto by_tid = parse_and_check_trace(*parsed);
    check_nesting(by_tid);
    ASSERT_FALSE(by_tid.empty()) << b.name;

    // Non-empty phase coverage on the main lane, per model.
    std::map<std::string, i64> counts;
    for (const auto& [tid, events] : by_tid)
      for (const auto* e : events) ++counts[e->get("name")->string];
    for (const char* phase :
         {"ordering", "configs", "dep_sets", "table_fill",
          "back_substitution"})
      EXPECT_GE(counts[phase], 1) << b.name << " missing phase " << phase;
    EXPECT_EQ(counts["dep_sets"], 1) << b.name;
    EXPECT_EQ(counts["table_fill"], b.graph.num_nodes()) << b.name;

    // The metrics snapshot agrees with the solver's own diagnostics.
    EXPECT_EQ(reg.counter("dp.status.ok"), 1u) << b.name;
    EXPECT_EQ(reg.counter("dp.vertices"),
              static_cast<u64>(b.graph.num_nodes()))
        << b.name;
    EXPECT_EQ(reg.histogram("dp.dep_set_size").count,
              static_cast<u64>(b.graph.num_nodes()))
        << b.name;
    ASSERT_TRUE(
        testing::JsonParser::parse(reg.to_json()).has_value())
        << b.name;
  }
}

}  // namespace
}  // namespace pase
