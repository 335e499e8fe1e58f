#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>

#include "config/config_enum.h"
#include "core/dp_solver.h"
#include "core/ordering.h"
#include "cost/cost_model.h"
#include "cost/machine.h"
#include "io/model_parser.h"
#include "io/strategy_io.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "serve/json.h"
#include "serve/result_cache.h"
#include "serve/server.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using pase::serve::Json;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-up repetitions per untraced run; setup_s is their median.
constexpr int kSetups = 9;
/// An untraced run probes the host's speed after each set-up and after each
/// timed operation, once for every this many seconds since the last probe
/// (at least once after a set-up). setup_s is scaled by the set-up probes,
/// the timed metrics by the timed-phase probes.
constexpr double kProbeGapS = 0.2;
/// Traced solve runs repeat every input at least this often, so each
/// per-input figure is a median.
constexpr int kMinTracedRounds = 2;
/// Outside-timing repetitions of the cheap per-source calls in serve_zipf.
constexpr int kProbeReps = 5;
/// The serve_zipf stream opens with the hottest keys once each, in rank
/// order; every set-up replays this untimed, seed-independent prefix.
constexpr i64 kServePrefix = 32;
constexpr double kServeDeadlineMs = 30000.0;

/// Results of calls timed only for their duration land here, so the
/// compiler cannot drop the calls.
volatile double g_sink = 0.0;

void add(Report* r, const char* name, double value, const char* unit,
         i64 samples = 0) {
  r->metrics.push_back({name, value, unit, samples});
}

double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

/// Σ over inputs of each input's median.
double sum_of_medians(const std::vector<std::vector<double>>& per_input) {
  double s = 0.0;
  for (const auto& v : per_input)
    if (!v.empty()) s += median(v);
  return s;
}

/// Every metric of `specs` the workload did not measure reads 0, so each run
/// prints the full list in the declared order.
void complete(Report* r, const std::vector<MetricSpec>& specs) {
  std::vector<Metric> ordered;
  for (const MetricSpec& s : specs) {
    Metric m{s.name, 0.0, s.unit, 0};
    for (const Metric& got : r->metrics)
      if (got.name == s.name) m = got;
    ordered.push_back(m);
  }
  r->metrics = std::move(ordered);
}

const char* status_name(pase::DpStatus s) {
  switch (s) {
    case pase::DpStatus::kOk: return "ok";
    case pase::DpStatus::kOutOfMemory: return "oom";
    case pase::DpStatus::kInfeasible: return "infeasible";
    case pase::DpStatus::kDegraded: return "degraded";
  }
  return "ok";
}

// ---------------------------------------------------------------------------
// Library solves: table1_sweep and deep_stack

struct SolveInput {
  std::string name;  ///< answer-book key
  std::string model;  ///< zoo name
  i64 devices = 8;
};

std::vector<SolveInput> solve_inputs(const std::string& workload) {
  std::vector<SolveInput> inputs;
  if (workload == "table1_sweep") {
    for (const char* m : {"alexnet", "inception_v3", "rnnlm", "transformer"})
      for (const i64 p : {8, 32, 64})
        inputs.push_back({std::string("table1/") + m + "/p" + std::to_string(p),
                          m, p});
  } else {
    for (const char* m : {"transformer_stack_250", "transformer_stack_500",
                          "transformer_stack_1000"})
      inputs.push_back({std::string("deep/") + m + "/p8", m, 8});
  }
  return inputs;
}

/// The benchmark sets only the device count, the machine (1080Ti) and the
/// comm model (the default, simple) plus num_threads and metrics; every
/// other solver option stays at its default.
pase::DpOptions solve_options(i64 devices) {
  pase::DpOptions o;
  o.config_options.max_devices = devices;
  o.cost_params =
      pase::CostParams::for_machine(pase::MachineSpec::gtx1080ti(devices));
  o.num_threads = 1;
  return o;
}

Answer solve_answer(const pase::Graph& g, const pase::DpResult& r) {
  return make_answer(status_name(r.status), r.best_cost,
                     r.strategy.empty() ? std::string()
                                        : pase::write_strategy(g, r.strategy));
}

struct SolveSet {
  std::vector<SolveInput> inputs;
  std::vector<pase::Graph> graphs;
  std::vector<pase::DpOptions> options;
};

/// One set-up: build every input graph, then the untimed warm-up (a pass
/// over all inputs for table1_sweep, one solve of the smallest stack for
/// deep_stack). Warm-up answers are checked like timed ones.
SolveSet solve_setup(const std::string& workload, const AnswerBook& book,
                     Report* report) {
  SolveSet set;
  set.inputs = solve_inputs(workload);
  for (const SolveInput& in : set.inputs) {
    set.graphs.push_back(*pase::models::zoo_graph(in.model));
    set.options.push_back(solve_options(in.devices));
  }
  const size_t warm = workload == "table1_sweep" ? set.inputs.size() : 1;
  for (size_t i = 0; i < warm; ++i) {
    const pase::DpResult r =
        pase::find_best_strategy(set.graphs[i], set.options[i]);
    ++report->attempted;
    if (!book.matches(set.inputs[i].name, solve_answer(set.graphs[i], r)))
      ++report->failed;
  }
  return set;
}

void run_solves(const RunConfig& cfg, const AnswerBook& book, Report* report) {
  HostProbe probe;
  std::vector<double> setups;
  SolveSet set;
  for (int s = 0; s < kSetups; ++s) {
    set = SolveSet();  // the previous set-up's teardown is not set-up time
    const auto t0 = Clock::now();
    set = solve_setup(cfg.workload, book, report);
    setups.push_back(seconds_since(t0));
    if (probe.sample_if_due(kProbeGapS) == 0.0) probe.sample();
  }

  const double setup_slow = probe.slowdown();

  const size_t n = set.inputs.size();
  std::vector<std::vector<double>> ms(n);
  i64 solves = 0;
  SeededOrders orders(cfg.seed, static_cast<i64>(n));
  const i64 first_timed_probe = probe.samples();
  const auto start = Clock::now();
  // Whole rounds only, so every input weighs the same.
  while (seconds_since(start) < cfg.seconds) {
    for (const i64 i : orders.next()) {
      const auto t0 = Clock::now();
      const pase::DpResult r =
          pase::find_best_strategy(set.graphs[i], set.options[i]);
      ms[i].push_back(ms_between(t0, Clock::now()));
      ++solves;
      ++report->attempted;
      if (!book.matches(set.inputs[i].name, solve_answer(set.graphs[i], r)))
        ++report->failed;
      probe.sample_if_due(kProbeGapS);
    }
  }
  if (probe.samples() == first_timed_probe) probe.sample();

  std::vector<double> medians;
  double round_ms = 0.0;
  for (const auto& v : ms) {
    medians.push_back(median(v));
    round_ms += medians.back();
  }
  const double slow = probe.slowdown(first_timed_probe);
  report->host_slowdown = slow;
  report->setup_slowdown = setup_slow;
  report->probe_samples = probe.samples() - first_timed_probe;
  add(report, "setup_s", median(setups) / setup_slow, "s", kSetups);
  add(report, "peak_rss_mb", peak_rss_mb() - probe.resident_mb(), "MB");
  add(report, "solve_ms_geomean", geomean(medians) / slow, "ms", solves);
  // A round at every input's median time.
  add(report, "req_per_s", slow * 1e3 * static_cast<double>(n) / round_ms,
      "1/s", solves);
}

/// Closed-form prices for every (v, C) and every (e, C_src, C_dst): the
/// work the solver's pricing does, timed from outside. Returns the number
/// of prices; `sink` keeps the sums observable.
i64 price_everything(const pase::Graph& g, const pase::DpOptions& o,
                     const std::vector<std::vector<pase::Config>>& configs,
                     double* sink) {
  i64 evals = 0;
  double total = 0.0;
  for (pase::NodeId v = 0; v < g.num_nodes(); ++v)
    for (const pase::Config& c : configs[static_cast<size_t>(v)]) {
      total += pase::layer_cost(g.node(v), c, o.cost_params);
      ++evals;
    }
  for (const pase::Edge& e : g.edges())
    for (const pase::Config& cs : configs[static_cast<size_t>(e.src)])
      for (const pase::Config& cd : configs[static_cast<size_t>(e.dst)]) {
        total += pase::edge_flop_byte_ratio(o.cost_params, cs, cd) *
                 pase::transfer_bytes(e, cs, cd, o.cost_params);
        ++evals;
      }
  *sink += total;
  return evals;
}

void trace_solves(const RunConfig& cfg, const AnswerBook& book,
                  Report* report) {
  SolveSet set = solve_setup(cfg.workload, book, report);
  const size_t n = set.inputs.size();

  // Per input: samples per round.
  std::vector<std::vector<double>> build(n), genseq(n), price(n), plain(n),
      traced(n), ordering(n), dep_sets(n), configs_ms(n), fill(n), back(n);
  std::vector<i64> max_dep(n), config_count(n), evals(n);
  std::vector<pase::u64> combos(n), hits(n), misses(n);
  double sink = 0.0;

  SeededOrders orders(cfg.seed, static_cast<i64>(n));
  const auto start = Clock::now();
  for (int round = 0;
       round < kMinTracedRounds || seconds_since(start) < cfg.seconds;
       ++round) {
    for (const i64 i : orders.next()) {
      const pase::Graph& g = set.graphs[i];
      const pase::DpOptions& o = set.options[i];

      auto t0 = Clock::now();
      const pase::Graph built = *pase::models::zoo_graph(set.inputs[i].model);
      build[i].push_back(ms_between(t0, Clock::now()));
      sink += static_cast<double>(built.num_nodes());

      t0 = Clock::now();
      const pase::Ordering order = pase::generate_seq(g);
      genseq[i].push_back(ms_between(t0, Clock::now()));
      sink += static_cast<double>(order.seq.size());

      std::vector<std::vector<pase::Config>> lists;
      i64 count = 0;
      for (pase::NodeId v = 0; v < g.num_nodes(); ++v) {
        lists.push_back(
            pase::enumerate_node_configs(g.node(v), o.config_options));
        count += static_cast<i64>(lists.back().size());
      }
      config_count[i] = count;
      t0 = Clock::now();
      evals[i] = price_everything(g, o, lists, &sink);
      price[i].push_back(ms_between(t0, Clock::now()));

      t0 = Clock::now();
      const pase::DpResult r = pase::find_best_strategy(g, o);
      plain[i].push_back(ms_between(t0, Clock::now()));
      ++report->attempted;
      if (!book.matches(set.inputs[i].name, solve_answer(g, r)))
        ++report->failed;

      pase::MetricsRegistry reg;
      pase::DpOptions traced_options = o;
      traced_options.metrics = &reg;
      t0 = Clock::now();
      const pase::DpResult rt = pase::find_best_strategy(g, traced_options);
      traced[i].push_back(ms_between(t0, Clock::now()));
      ++report->attempted;
      if (!book.matches(set.inputs[i].name, solve_answer(g, rt)))
        ++report->failed;

      ordering[i].push_back(1e3 * reg.gauge("dp.phase.ordering_seconds"));
      dep_sets[i].push_back(1e3 * reg.gauge("dp.phase.dep_sets_seconds"));
      configs_ms[i].push_back(1e3 * reg.gauge("dp.phase.configs_seconds"));
      fill[i].push_back(1e3 * reg.gauge("dp.phase.table_fill_seconds"));
      back[i].push_back(
          1e3 * reg.gauge("dp.phase.back_substitution_seconds"));
      max_dep[i] = rt.max_dependent_set;
      combos[i] = reg.counter("dp.combinations");
      hits[i] = reg.counter("dp.cost_cache.hits");
      misses[i] = reg.counter("dp.cost_cache.misses");
    }
  }
  g_sink = sink;

  double total_hits = 0.0, total_lookups = 0.0, total_combos = 0.0;
  i64 total_configs = 0, total_evals = 0, deepest = 0;
  for (size_t i = 0; i < n; ++i) {
    total_hits += static_cast<double>(hits[i]);
    total_lookups += static_cast<double>(hits[i] + misses[i]);
    total_combos += static_cast<double>(combos[i]);
    total_configs += config_count[i];
    total_evals += evals[i];
    deepest = std::max(deepest, max_dep[i]);
  }
  const i64 rounds = static_cast<i64>(plain[0].size());
  add(report, "models.build_ms", sum_of_medians(build), "ms", rounds);
  add(report, "ordering.generate_seq_ms", sum_of_medians(genseq), "ms",
      rounds);
  add(report, "ordering.max_dep_set", static_cast<double>(deepest), "count");
  add(report, "dp.phase.ordering_ms", sum_of_medians(ordering), "ms", rounds);
  add(report, "dp.phase.dep_sets_ms", sum_of_medians(dep_sets), "ms", rounds);
  add(report, "dp.phase.configs_ms", sum_of_medians(configs_ms), "ms",
      rounds);
  add(report, "config.count", static_cast<double>(total_configs), "count");
  add(report, "cost.price_ms", sum_of_medians(price), "ms", rounds);
  add(report, "cost.evals", static_cast<double>(total_evals), "count");
  add(report, "dp.cost_cache_hit_ratio", ratio(total_hits, total_lookups),
      "ratio");
  add(report, "dp.phase.table_fill_ms", sum_of_medians(fill), "ms", rounds);
  add(report, "dp.phase.back_substitution_ms", sum_of_medians(back), "ms",
      rounds);
  add(report, "dp.combinations", total_combos, "count");
  add(report, "dp.solve_ms", sum_of_medians(traced), "ms", rounds);
  add(report, "trace.overhead_ratio",
      ratio(sum_of_medians(traced), sum_of_medians(plain)), "ratio", rounds);
}

// ---------------------------------------------------------------------------
// The daemon: serve_zipf

struct Source {
  std::string name;  ///< zoo name, or the inline model's file stem
  std::string zoo;   ///< empty for inline models
  std::string text;  ///< inline pase-model text
};

bool serve_sources(const std::string& data_dir, std::vector<Source>* out,
                   std::string* error) {
  out->clear();
  for (const char* zoo :
       {"alexnet", "inception_v3", "rnnlm", "transformer", "resnet50", "vgg16",
        "mobilenet_v1", "gnmt", "mlp", "densenet", "transformer_stack_50",
        "transformer_stack_100"})
    out->push_back({zoo, zoo, ""});
  for (const char* stem : {"lenet", "transformer_block"}) {
    const std::string path = data_dir + "/" + stem + ".pase";
    std::ifstream in(path);
    if (!in) {
      *error = "cannot open inline model " + path;
      return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    out->push_back({stem, "", text.str()});
  }
  return true;
}

/// Key layout: source-major over sources × devices × machine × comm model.
/// Ranks are a fixed (seed-independent) shuffle of that layout, so the hot
/// keys mix cheap and expensive solves and a run's seed decides only the
/// request order.
constexpr pase::u64 kRankShuffleSeed = 0x7a697066u;

struct KeyRef {
  size_t source = 0;
  std::string name;
  std::string line;
};

bool build_keys(const std::string& data_dir, std::vector<Source>* sources,
                std::vector<KeyRef>* keys, std::string* error) {
  if (!serve_sources(data_dir, sources, error)) return false;
  std::vector<KeyRef> layout;
  for (size_t s = 0; s < sources->size(); ++s)
    for (const i64 p : {8, 16, 32, 64})
      for (const char* machine : {"1080ti", "mixed_pod"})
        for (const char* comm : {"simple", "auto"}) {
          const Source& src = (*sources)[s];
          Json req = Json::make_object();
          req.object["op"] = Json::make_string("solve");
          if (!src.zoo.empty())
            req.object["zoo"] = Json::make_string(src.zoo);
          else
            req.object["model"] = Json::make_string(src.text);
          req.object["devices"] = Json::make_number(static_cast<double>(p));
          req.object["machine"] = Json::make_string(machine);
          req.object["comm_model"] = Json::make_string(comm);
          req.object["deadline_ms"] = Json::make_number(kServeDeadlineMs);
          layout.push_back({s,
                            "serve/" + src.name + "/p" + std::to_string(p) +
                                "/" + machine + "/" + comm,
                            pase::serve::write_json(req)});
        }
  SeededOrders shuffle(kRankShuffleSeed, static_cast<i64>(layout.size()));
  keys->clear();
  for (const i64 i : shuffle.next()) keys->push_back(layout[i]);
  return true;
}

/// One daemon response, checked against the book.
struct Reply {
  bool ok = false;
  bool hit = false;
};

Reply check_reply(const std::string& response, const std::string& name,
                  const AnswerBook& book) {
  Reply r;
  const auto parsed = pase::serve::parse_json(response);
  if (!parsed) return r;
  r.hit = parsed->get_string("cache") == "hit";
  r.ok = book.matches(name, make_answer(parsed->get_string("code"),
                                        parsed->get_number("cost"),
                                        parsed->get_string("strategy")));
  return r;
}

pase::serve::ServeOptions serve_options(bool trace) {
  pase::serve::ServeOptions o;
  o.trace = trace;
  // A single closed-loop client: the ring only ever needs the last line.
  o.event_log_memory = 1;
  return o;
}

/// One set-up: a fresh daemon warmed by the untimed stream prefix.
std::unique_ptr<pase::serve::ServeCore> serve_setup(
    bool trace, const std::vector<KeyRef>& keys, const AnswerBook& book,
    Report* report) {
  auto core = std::make_unique<pase::serve::ServeCore>(serve_options(trace));
  for (i64 i = 0; i < kServePrefix; ++i) {
    const KeyRef& k = keys[static_cast<size_t>(i)];
    ++report->attempted;
    if (!check_reply(core->handle_line(k.line), k.name, book).ok)
      ++report->failed;
  }
  return core;
}

struct ServeSamples {
  std::vector<double> hit_ms, miss_ms;
  std::vector<i64> sent;  ///< key index per request, in order
  double wall_s = 0.0;
};

/// Sends requests until `seconds` have passed and the hit and miss samples
/// reach the given counts (bounded by max(3 × seconds, 30 s)). `also`, when
/// given, is called with each request's key after the timed call.
bool serve_timed(pase::serve::ServeCore& core, ZipfStream& stream,
                 const std::vector<KeyRef>& keys, const AnswerBook& book,
                 double seconds, i64 min_hits, i64 min_misses,
                 ServeSamples* out, Report* report, std::string* error,
                 const std::function<void(i64)>& also = nullptr) {
  const auto start = Clock::now();
  for (;;) {
    const double elapsed = seconds_since(start);
    const bool enough = static_cast<i64>(out->hit_ms.size()) >= min_hits &&
                        static_cast<i64>(out->miss_ms.size()) >= min_misses;
    if (elapsed >= seconds && enough) break;
    if (elapsed >= std::max(3.0 * seconds, 30.0)) {
      *error = "serve_zipf: " + std::to_string(out->hit_ms.size()) +
               " hits and " + std::to_string(out->miss_ms.size()) +
               " misses after " + std::to_string(elapsed) +
               " s; the percentiles need more";
      return false;
    }
    const i64 k = stream.next();
    const auto t0 = Clock::now();
    const std::string response = core.handle_line(keys[k].line);
    const double dt = ms_between(t0, Clock::now());
    const Reply r = check_reply(response, keys[k].name, book);
    ++report->attempted;
    if (!r.ok) ++report->failed;
    (r.hit ? out->hit_ms : out->miss_ms).push_back(dt);
    out->sent.push_back(k);
    if (also) also(k);
  }
  out->wall_s = seconds_since(start);
  return true;
}

bool run_serve(const RunConfig& cfg, const std::vector<KeyRef>& keys,
               const AnswerBook& book, Report* report, std::string* error) {
  HostProbe probe;
  std::vector<double> setups;
  std::unique_ptr<pase::serve::ServeCore> core;
  for (int s = 0; s < kSetups; ++s) {
    core.reset();  // the previous daemon's teardown is not set-up time
    const auto t0 = Clock::now();
    core = serve_setup(false, keys, book, report);
    setups.push_back(seconds_since(t0));
    if (probe.sample_if_due(kProbeGapS) == 0.0) probe.sample();
  }
  const double setup_slow = probe.slowdown();
  ZipfStream stream(cfg.seed, static_cast<i64>(keys.size()));
  ServeSamples samples;
  double probe_ms = 0.0;
  const i64 first_timed_probe = probe.samples();
  if (!serve_timed(*core, stream, keys, book, cfg.seconds, 1, 1, &samples,
                   report, error,
                   [&](i64) { probe_ms += probe.sample_if_due(kProbeGapS); }))
    return false;
  if (probe.samples() == first_timed_probe) probe.sample();
  const i64 misses = static_cast<i64>(samples.miss_ms.size());
  const i64 requests = static_cast<i64>(samples.sent.size());
  const double slow = probe.slowdown(first_timed_probe);
  report->host_slowdown = slow;
  report->setup_slowdown = setup_slow;
  report->probe_samples = probe.samples() - first_timed_probe;
  add(report, "setup_s", median(setups) / setup_slow, "s", kSetups);
  add(report, "peak_rss_mb", peak_rss_mb() - probe.resident_mb(), "MB");
  add(report, "solve_ms_geomean", geomean(samples.miss_ms) / slow, "ms",
      misses);
  add(report, "req_per_s",
      slow * static_cast<double>(requests) /
          (samples.wall_s - probe_ms / 1e3),
      "1/s", requests);
  return true;
}

/// Self time of every span of one request's session, by span name: the
/// span's duration minus what its direct children on the same lane cover.
void self_times(const std::vector<pase::ChromeEvent>& events,
                std::map<std::string, std::vector<double>>* out) {
  std::map<pase::i64, std::vector<const pase::ChromeEvent*>> lanes;
  for (const auto& e : events) lanes[e.tid].push_back(&e);
  for (auto& [tid, lane] : lanes) {
    // Records are in open order and nest exactly within a lane.
    struct Open {
      const pase::ChromeEvent* e;
      double children_us;
    };
    std::vector<Open> stack;
    auto close = [&](const Open& o) {
      (*out)[o.e->name].push_back((o.e->dur_us - o.children_us) / 1e3);
    };
    for (const pase::ChromeEvent* e : lane) {
      while (!stack.empty() &&
             stack.back().e->ts_us + stack.back().e->dur_us <= e->ts_us) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().children_us += e->dur_us;
      stack.push_back({e, 0.0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
}

bool trace_serve(const RunConfig& cfg, const std::vector<Source>& sources,
                 const std::vector<KeyRef>& keys, const AnswerBook& book,
                 Report* report, std::string* error) {
  // Outside timing of the model builders and the signature, per source.
  std::vector<double> signature_ms(sources.size());
  double build_ms = 0.0;
  double sink = 0.0;
  for (size_t s = 0; s < sources.size(); ++s) {
    std::vector<double> builds, sigs;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      pase::Graph g;
      const auto t0 = Clock::now();
      if (!sources[s].zoo.empty()) g = *pase::models::zoo_graph(sources[s].zoo);
      builds.push_back(ms_between(t0, Clock::now()));
      if (sources[s].zoo.empty()) g = pase::parse_model(sources[s].text).graph;
      const auto t1 = Clock::now();
      sink += static_cast<double>(pase::serve::graph_signature(g) & 1);
      sigs.push_back(ms_between(t1, Clock::now()));
    }
    if (!sources[s].zoo.empty()) build_ms += median(builds);
    signature_ms[s] = median(sigs);
  }

  // Two daemons with the same warm-up get the same requests in lockstep:
  // each request goes to the untraced one (whose latencies give the hit/miss
  // tails, sized so each percentile qualifies), then to the traced one, so
  // drift in host speed weighs on both alike. Only the daemons' own calls
  // count towards trace.overhead_ratio: whole handle_line calls untraced,
  // begin_request + handle_line + end_request traced.
  const auto plain = serve_setup(false, keys, book, report);
  const auto traced = serve_setup(true, keys, book, report);
  pase::MetricsRegistry& pm = plain->metrics();
  pase::MetricsRegistry& tm = traced->metrics();
  std::map<std::string, double> before;
  for (const char* c : {"serve.reuse.hits", "serve.reuse.misses", "dp.solves",
                        "dp.combinations", "dp.cost_cache.hits",
                        "dp.cost_cache.misses"})
    before[c] = static_cast<double>(tm.counter(c));
  std::map<std::string, double> gauges_before;
  for (const char* g :
       {"dp.elapsed_seconds", "dp.phase.ordering_seconds",
        "dp.phase.dep_sets_seconds", "dp.phase.configs_seconds",
        "dp.phase.table_fill_seconds", "dp.phase.back_substitution_seconds"})
    gauges_before[g] = tm.gauge(g);
  const double plain_hits_before =
      static_cast<double>(pm.counter("serve.cache.hits"));
  const double plain_misses_before =
      static_cast<double>(pm.counter("serve.cache.misses"));

  std::map<std::string, std::vector<double>> spans;
  std::vector<double> queue_ms, solve_ms, signature_per_request;
  double traced_ms = 0.0;
  auto send_traced = [&](i64 k) {
    auto t0 = Clock::now();
    pase::serve::ServeCore::RequestScope scope = traced->begin_request();
    const std::string response = traced->handle_line(keys[k].line, scope);
    traced_ms += ms_between(t0, Clock::now());
    self_times(scope.trace()->events(), &spans);
    t0 = Clock::now();
    traced->end_request(scope);
    traced_ms += ms_between(t0, Clock::now());
    ++report->attempted;
    if (!check_reply(response, keys[k].name, book).ok) ++report->failed;
    const std::vector<std::string> last = traced->event_log().tail();
    const auto ev = last.empty() ? std::nullopt
                                 : pase::serve::parse_json(last.back());
    if (ev && ev->get("solve_ms") != nullptr) {
      queue_ms.push_back(ev->get_number("queue_ms"));
      solve_ms.push_back(ev->get_number("solve_ms"));
    }
    signature_per_request.push_back(signature_ms[keys[k].source]);
  };
  ZipfStream stream(cfg.seed, static_cast<i64>(keys.size()));
  ServeSamples samples;
  if (!serve_timed(*plain, stream, keys, book, cfg.seconds,
                   min_samples_for(0.99), min_samples_for(0.95), &samples,
                   report, error, send_traced))
    return false;
  const double hit_count =
      static_cast<double>(pm.counter("serve.cache.hits")) - plain_hits_before;
  const double miss_count =
      static_cast<double>(pm.counter("serve.cache.misses")) -
      plain_misses_before;
  double plain_ms = 0.0;
  for (const double m : samples.hit_ms) plain_ms += m;
  for (const double m : samples.miss_ms) plain_ms += m;

  auto span_median = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : median(it->second);
  };
  auto span_count = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? i64{0} : static_cast<i64>(it->second.size());
  };
  auto cdelta = [&](const char* name) {
    return static_cast<double>(tm.counter(name)) - before[name];
  };
  auto per_solve_ms = [&](const char* gauge) {
    const double solves = cdelta("dp.solves");
    return ratio(1e3 * (tm.gauge(gauge) - gauges_before[gauge]), solves);
  };
  const auto hit_p50 = tail_percentile(samples.hit_ms, 0.50);
  const auto hit_p99 = tail_percentile(samples.hit_ms, 0.99);
  const auto miss_p50 = tail_percentile(samples.miss_ms, 0.50);
  const auto miss_p95 = tail_percentile(samples.miss_ms, 0.95);
  const auto queue_p50 = tail_percentile(queue_ms, 0.50);
  const auto solve_p50 = tail_percentile(solve_ms, 0.50);
  const auto solve_p95 = tail_percentile(solve_ms, 0.95);
  if (!hit_p50 || !hit_p99 || !miss_p50 || !miss_p95 || !queue_p50 ||
      !solve_p50 || !solve_p95) {
    *error = "serve_zipf: too few samples for a reported percentile";
    return false;
  }
  const i64 hits = static_cast<i64>(samples.hit_ms.size());
  const i64 misses = static_cast<i64>(samples.miss_ms.size());
  const i64 solves = static_cast<i64>(solve_ms.size());
  g_sink = sink;

  add(report, "models.build_ms", build_ms, "ms", kProbeReps);
  add(report, "dp.phase.ordering_ms",
      per_solve_ms("dp.phase.ordering_seconds"), "ms", solves);
  add(report, "dp.phase.dep_sets_ms",
      per_solve_ms("dp.phase.dep_sets_seconds"), "ms", solves);
  add(report, "dp.phase.configs_ms",
      per_solve_ms("dp.phase.configs_seconds"), "ms", solves);
  add(report, "dp.cost_cache_hit_ratio",
      ratio(cdelta("dp.cost_cache.hits"),
            cdelta("dp.cost_cache.hits") + cdelta("dp.cost_cache.misses")),
      "ratio", solves);
  add(report, "dp.phase.table_fill_ms",
      per_solve_ms("dp.phase.table_fill_seconds"), "ms", solves);
  add(report, "dp.phase.back_substitution_ms",
      per_solve_ms("dp.phase.back_substitution_seconds"), "ms", solves);
  add(report, "dp.combinations",
      ratio(cdelta("dp.combinations"), cdelta("dp.solves")), "count", solves);
  add(report, "dp.solve_ms", per_solve_ms("dp.elapsed_seconds"), "ms",
      solves);
  add(report, "serve.build_graph_ms", span_median("build_graph"), "ms",
      span_count("build_graph"));
  add(report, "serve.parse_ms", span_median("parse"), "ms",
      span_count("parse"));
  add(report, "serve.signature_ms", median(signature_per_request), "ms",
      static_cast<i64>(signature_per_request.size()));
  add(report, "serve.cache_lookup_ms", span_median("cache_lookup"), "ms",
      span_count("cache_lookup"));
  add(report, "serve.cache_verify_ms", span_median("cache_verify"), "ms",
      span_count("cache_verify"));
  add(report, "serve.render_ms", span_median("render"), "ms",
      span_count("render"));
  add(report, "serve.hit_ratio", ratio(hit_count, hit_count + miss_count),
      "ratio", hits + misses);
  add(report, "serve.admission_ms", span_median("admission"), "ms",
      span_count("admission"));
  add(report, "serve.queue_ms_p50", *queue_p50, "ms", solves);
  add(report, "serve.solve_ms_p50", *solve_p50, "ms", solves);
  add(report, "serve.solve_ms_p95", *solve_p95, "ms", solves);
  add(report, "serve.reuse_ratio",
      ratio(cdelta("serve.reuse.hits"),
            cdelta("serve.reuse.hits") + cdelta("serve.reuse.misses")),
      "ratio", solves);
  add(report, "serve.hit_ms_p50", *hit_p50, "ms", hits);
  add(report, "serve.hit_ms_p99", *hit_p99, "ms", hits);
  add(report, "serve.miss_ms_p50", *miss_p50, "ms", misses);
  add(report, "serve.miss_ms_p95", *miss_p95, "ms", misses);
  add(report, "trace.overhead_ratio", ratio(traced_ms, plain_ms), "ratio",
      hits + misses);
  return true;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"table1_sweep", "deep_stack",
                                                 "serve_zipf"};
  return names;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},           {"peak_rss_mb", "MB"},
      {"ok_ratio", "ratio"},      {"solve_ms_geomean", "ms"},
      {"req_per_s", "1/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"models.build_ms", "ms"},
      {"ordering.generate_seq_ms", "ms"},
      {"ordering.max_dep_set", "count"},
      {"dp.phase.ordering_ms", "ms"},
      {"dp.phase.dep_sets_ms", "ms"},
      {"dp.phase.configs_ms", "ms"},
      {"config.count", "count"},
      {"cost.price_ms", "ms"},
      {"cost.evals", "count"},
      {"dp.cost_cache_hit_ratio", "ratio"},
      {"dp.phase.table_fill_ms", "ms"},
      {"dp.phase.back_substitution_ms", "ms"},
      {"dp.combinations", "count"},
      {"dp.solve_ms", "ms"},
      {"serve.build_graph_ms", "ms"},
      {"serve.parse_ms", "ms"},
      {"serve.signature_ms", "ms"},
      {"serve.cache_lookup_ms", "ms"},
      {"serve.cache_verify_ms", "ms"},
      {"serve.render_ms", "ms"},
      {"serve.hit_ratio", "ratio"},
      {"serve.admission_ms", "ms"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.solve_ms_p50", "ms"},
      {"serve.solve_ms_p95", "ms"},
      {"serve.reuse_ratio", "ratio"},
      {"serve.hit_ms_p50", "ms"},
      {"serve.hit_ms_p99", "ms"},
      {"serve.miss_ms_p50", "ms"},
      {"serve.miss_ms_p95", "ms"},
      {"trace.overhead_ratio", "ratio"},
  };
  return specs;
}

bool serve_keys(const std::string& data_dir, ServeKeys* out,
                std::string* error) {
  std::vector<Source> sources;
  std::vector<KeyRef> keys;
  if (!build_keys(data_dir, &sources, &keys, error)) return false;
  out->lines.clear();
  out->names.clear();
  for (const KeyRef& k : keys) {
    out->lines.push_back(k.line);
    out->names.push_back(k.name);
  }
  return true;
}

bool run_workload(const RunConfig& cfg, Report* report, std::string* error) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), cfg.workload) == names.end()) {
    *error = "unknown workload '" + cfg.workload + "'";
    return false;
  }
  AnswerBook book;
  const std::string expected = cfg.expected_path.empty()
                                   ? cfg.data_dir + "/expected_answers.tsv"
                                   : cfg.expected_path;
  if (!book.load(expected, error)) return false;

  *report = Report();
  if (cfg.workload == "serve_zipf") {
    std::vector<Source> sources;
    std::vector<KeyRef> keys;
    if (!build_keys(cfg.data_dir, &sources, &keys, error)) return false;
    const bool ok = cfg.trace
                        ? trace_serve(cfg, sources, keys, book, report, error)
                        : run_serve(cfg, keys, book, report, error);
    if (!ok) return false;
  } else if (cfg.trace) {
    trace_solves(cfg, book, report);
  } else {
    run_solves(cfg, book, report);
  }

  if (!cfg.trace) {
    add(report, "ok_ratio",
        ratio(static_cast<double>(report->attempted - report->failed),
              static_cast<double>(report->attempted)),
        "ratio", report->attempted);
  }
  complete(report, cfg.trace ? per_layer_metrics() : end_to_end_metrics());
  return true;
}

bool record_answers(const std::string& data_dir, std::ostream& out,
                    std::string* error) {
  out << "# Expected answers of the repository benchmark: input, status or\n"
         "# response code, cost bits (IEEE-754 hex), FNV-1a-64 of the\n"
         "# strategy text. Regenerate with pase_perfbench --record.\n";
  for (const char* workload : {"table1_sweep", "deep_stack"})
    for (const SolveInput& in : solve_inputs(workload)) {
      const pase::Graph g = *pase::models::zoo_graph(in.model);
      const pase::DpResult r =
          pase::find_best_strategy(g, solve_options(in.devices));
      out << AnswerBook::format_line(in.name, solve_answer(g, r)) << "\n";
    }
  std::vector<Source> sources;
  std::vector<KeyRef> keys;
  if (!build_keys(data_dir, &sources, &keys, error)) return false;
  // A fresh daemon per key: every answer comes from a cold solve.
  for (const KeyRef& k : keys) {
    pase::serve::ServeCore core(serve_options(false));
    const auto parsed = pase::serve::parse_json(core.handle_line(k.line));
    if (!parsed) {
      *error = "unparsable response for " + k.name;
      return false;
    }
    out << AnswerBook::format_line(
               k.name, make_answer(parsed->get_string("code"),
                                   parsed->get_number("cost"),
                                   parsed->get_string("strategy")))
        << "\n";
  }
  return true;
}

}  // namespace perfbench
