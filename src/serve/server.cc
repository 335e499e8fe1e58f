#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <future>
#include <tuple>
#include <utility>

#include "comm/comm_model.h"
#include "core/dp_solver.h"
#include "cost/cost_model.h"
#include "cost/machine.h"
#include "hetero/hetero.h"
#include "hetero/machine_file.h"
#include "io/model_parser.h"
#include "io/strategy_io.h"
#include "models/models.h"
#include "pipeline/pipeline.h"
#include "serve/json.h"
#include "sim/memory.h"
#include "util/hash.h"
#include "util/timer.h"

namespace pase::serve {

namespace {

/// Bound on distinct comm models kept warm; past it the memo is dropped
/// wholesale and simply warms up again (the result cache has real LRU —
/// these are cheap to rebuild by comparison).
constexpr size_t kMaxWarmMemos = 64;

/// The response code and reason for a solver status. Cache hits and fresh
/// solves both map through here.
std::pair<ResponseCode, std::string> classify(DpStatus status,
                                              const std::string& guard_reason) {
  switch (status) {
    case DpStatus::kOk: return {ResponseCode::kOk, ""};
    case DpStatus::kDegraded: return {ResponseCode::kDegraded, guard_reason};
    case DpStatus::kInfeasible:
      return {ResponseCode::kInfeasible,
              "no configuration satisfies the memory cap"};
    case DpStatus::kOutOfMemory: return {ResponseCode::kError, guard_reason};
  }
  return {ResponseCode::kError, guard_reason};
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

const char* op_name(ServeRequest::Op op) {
  switch (op) {
    case ServeRequest::Op::kSolve: return "solve";
    case ServeRequest::Op::kPing: return "ping";
    case ServeRequest::Op::kMetrics: return "metrics";
    case ServeRequest::Op::kShutdown: return "shutdown";
  }
  return "solve";
}

}  // namespace

/// One in-flight solve, shared by duplicate requests (single-flight
/// deduplication): the first caller (the leader) runs the solve; callers
/// holding the same key while it runs wait on the same future instead of
/// burning a second admission slot on identical work.
struct ServeCore::Flight {
  std::shared_future<SolveOutcome> future;
};

ServeCore::ServeCore(ServeOptions options)
    : options_(std::move(options)),
      events_(options_.event_log_memory),
      results_(options_.cache_entries),
      pool_(options_.workers < 1 ? 1 : options_.workers),
      epoch_(std::chrono::steady_clock::now()),
      roll_total_(options_.slo_window),
      roll_queue_(options_.slo_window),
      roll_solve_(options_.slo_window) {
  if (!options_.event_log_path.empty()) {
    std::string error;
    if (!events_.open_sink(options_.event_log_path, &error))
      std::fprintf(stderr, "pase_serve: %s (event log kept in memory only)\n",
                   error.c_str());
  }
  watchdog_ = std::thread([this] { watchdog_main(); });
}

ServeCore::~ServeCore() {
  {
    std::lock_guard<std::mutex> lk(watch_mu_);
    watchdog_stop_ = true;
  }
  watch_cv_.notify_all();
  watchdog_.join();
}

void ServeCore::watchdog_main() {
  std::unique_lock<std::mutex> lk(watch_mu_);
  while (!watchdog_stop_) {
    watch_cv_.wait_for(lk, std::chrono::milliseconds(10));
    const auto now = std::chrono::steady_clock::now();
    for (const auto& w : watches_) {
      if (now >= w->kill_at && !w->killed.load(std::memory_order_relaxed)) {
        // The kill decision, as an instant span on the request's own
        // session (safe: the watch is unregistered — under this mutex —
        // before the session can be torn down).
        {
          TraceSession::Span kill_span(w->trace, "watchdog_kill");
          kill_span.arg("seq", static_cast<i64>(w->seq));
        }
        w->killed.store(true, std::memory_order_relaxed);
        w->cancel.store(true, std::memory_order_relaxed);
        watchdog_kills_.fetch_add(1, std::memory_order_relaxed);
        metrics_.add_counter("serve.watchdog.kills", 1);
      }
    }
  }
}

std::shared_ptr<const CommModel> ServeCore::comm_model_for(
    const ServeRequest& request, const MachineSpec& machine,
    CommModelKind kind) {
  u64 h = 0x9e3779b97f4a7c15ull;
  const std::string& machine_key = request.machine_spec_json.empty()
                                       ? request.machine
                                       : request.machine_spec_json;
  for (const char c : machine_key) h = hash_combine(h, static_cast<u8>(c));
  h = hash_combine(h, static_cast<u64>(request.devices));
  for (const char c : request.comm_model)
    h = hash_combine(h, static_cast<u8>(c));
  std::lock_guard<std::mutex> lk(comm_models_mu_);
  auto it = comm_models_.find(h);
  if (it != comm_models_.end()) return it->second;
  if (comm_models_.size() >= kMaxWarmMemos) comm_models_.clear();
  auto model = std::make_shared<const CommModel>(machine, kind);
  comm_models_[h] = model;
  return model;
}

// ---------------------------------------------------------------------------
// Request scopes and the per-request telemetry surfaces

ServeCore::RequestScope ServeCore::begin_request() {
  RequestScope scope;
  scope.seq_ = seq_counter_.fetch_add(1, std::memory_order_relaxed);
  scope.t0_ = std::chrono::steady_clock::now();
  if (options_.trace) {
    scope.offset_us_ =
        std::chrono::duration<double, std::micro>(scope.t0_ - epoch_).count();
    scope.trace_ = std::make_unique<TraceSession>();
    scope.root_ =
        std::make_unique<TraceSession::Span>(scope.trace_.get(), "request");
    scope.root_->arg("seq", static_cast<i64>(scope.seq_));
  }
  return scope;
}

void ServeCore::end_request(RequestScope& scope) {
  if (!scope.trace_) return;
  scope.root_.reset();  // close the "request" span
  const double total_ms = ms_since(scope.t0_);
  std::vector<ChromeEvent> events = scope.trace_->events();
  scope.trace_.reset();
  if (options_.slow_trace_ms > 0.0 && total_ms < options_.slow_trace_ms) {
    metrics_.add_counter("serve.trace.dropped", 1);
    return;
  }
  i64 max_tid = -1;
  for (const auto& e : events) max_tid = std::max(max_tid, e.tid);
  std::lock_guard<std::mutex> lk(traces_mu_);
  // Stitch onto the shared timeline: each request gets its own tid block
  // (lanes stay distinguishable) and its session-relative timestamps are
  // shifted by the session's offset from the core epoch, so the merged
  // trace shows all requests in true wall-clock order.
  for (auto& e : events) {
    e.tid += next_trace_tid_;
    e.ts_us += scope.offset_us_;
  }
  next_trace_tid_ += max_tid + 1;
  kept_traces_.push_back(std::move(events));
  ++traces_kept_total_;
  metrics_.add_counter("serve.trace.kept", 1);
  if (options_.slow_trace_ms > 0.0) {
    while (static_cast<i64>(kept_traces_.size()) > options_.slow_trace_keep) {
      kept_traces_.pop_front();
      metrics_.add_counter("serve.trace.evicted", 1);
    }
  }
}

std::string ServeCore::trace_chrome_json() const {
  std::lock_guard<std::mutex> lk(traces_mu_);
  std::vector<ChromeEvent> all;
  for (const auto& bundle : kept_traces_)
    all.insert(all.end(), bundle.begin(), bundle.end());
  return to_chrome_trace_json(all);
}

u64 ServeCore::traces_kept() const {
  std::lock_guard<std::mutex> lk(traces_mu_);
  return traces_kept_total_;
}

void ServeCore::log_event(const RequestScope& scope, const ServeRequest* req,
                          const ServeResponse& resp, const SolveAudit* audit,
                          double total_ms) {
  Json ev = Json::make_object();
  ev.object["seq"] = Json::make_number(static_cast<double>(scope.seq()));
  if (req != nullptr) ev.object["op"] = Json::make_string(op_name(req->op));
  if (req != nullptr && !req->id.empty())
    ev.object["id"] = Json::make_string(req->id);
  ev.object["code"] = Json::make_string(response_code_name(resp.code));
  if (!resp.cache.empty()) ev.object["cache"] = Json::make_string(resp.cache);
  ev.object["total_ms"] = Json::make_number(total_ms);
  if (audit != nullptr) {
    ev.object["deadline_ms"] = Json::make_number(audit->deadline_ms);
    ev.object["remaining_ms"] =
        Json::make_number(audit->deadline_ms - total_ms);
    if (audit->queue_ms >= 0.0)
      ev.object["queue_ms"] = Json::make_number(audit->queue_ms);
    if (audit->solve_ms >= 0.0)
      ev.object["solve_ms"] = Json::make_number(audit->solve_ms);
    if (audit->trip != nullptr)
      ev.object["trip"] = Json::make_string(audit->trip);
    if (audit->dedup) ev.object["dedup"] = Json::make_bool(true);
    if (!audit->machine.empty())
      ev.object["machine"] = Json::make_string(audit->machine);
  }
  events_.append(write_json(ev));
}

ServeCore::SloSnapshot ServeCore::slo_snapshot() const {
  SloSnapshot snap;
  snap.window = options_.slo_window;
  snap.total = roll_total_.snapshot();
  snap.queue_wait = roll_queue_.snapshot();
  snap.solve = roll_solve_.snapshot();
  return snap;
}

std::string ServeCore::slo_json() const {
  const SloSnapshot snap = slo_snapshot();
  auto fill = [](const RollingHistogram::Snapshot& s) {
    Json o = Json::make_object();
    o.object["count"] = Json::make_number(static_cast<double>(s.count));
    o.object["p50_ms"] = Json::make_number(s.p50);
    o.object["p95_ms"] = Json::make_number(s.p95);
    o.object["p99_ms"] = Json::make_number(s.p99);
    return o;
  };
  Json obj = Json::make_object();
  obj.object["window"] =
      Json::make_number(static_cast<double>(snap.window));
  obj.object["total"] = fill(snap.total);
  obj.object["queue_wait"] = fill(snap.queue_wait);
  obj.object["solve"] = fill(snap.solve);
  return write_json(obj);
}

void ServeCore::refresh_volatile_gauges() {
  metrics_.set_gauge(
      "serve.inflight",
      static_cast<double>(inflight_.load(std::memory_order_relaxed)));
  const SloSnapshot snap = slo_snapshot();
  metrics_.set_gauge("serve.slo.total_p50_ms", snap.total.p50);
  metrics_.set_gauge("serve.slo.total_p99_ms", snap.total.p99);
  metrics_.set_gauge("serve.slo.queue_p50_ms", snap.queue_wait.p50);
  metrics_.set_gauge("serve.slo.queue_p99_ms", snap.queue_wait.p99);
  metrics_.set_gauge("serve.slo.solve_p50_ms", snap.solve.p50);
  metrics_.set_gauge("serve.slo.solve_p99_ms", snap.solve.p99);
}

std::string ServeCore::metrics_snapshot(bool prometheus) {
  refresh_volatile_gauges();
  return prometheus ? metrics_.to_prometheus() : metrics_.to_json();
}

// ---------------------------------------------------------------------------
// Request handling

std::string ServeCore::handle_line(const std::string& line) {
  RequestScope scope = begin_request();
  std::string response = handle_line(line, scope);
  end_request(scope);
  return response;
}

std::string ServeCore::handle_overlong(RequestScope& scope) {
  const auto handled = std::chrono::steady_clock::now();
  metrics_.add_counter("serve.requests", 1);
  metrics_.add_counter("serve.responses.malformed", 1);
  ServeResponse resp;
  resp.code = ResponseCode::kMalformed;
  resp.reason = "request line exceeds " +
                std::to_string(options_.max_line_bytes) + " bytes";
  resp.seq = static_cast<i64>(scope.seq());
  log_event(scope, nullptr, resp, nullptr, ms_since(handled));
  return resp.to_line();
}

std::string ServeCore::handle_line(const std::string& line,
                                   RequestScope& scope) {
  const auto handled = std::chrono::steady_clock::now();
  metrics_.add_counter("serve.requests", 1);
  TraceSession::Span handle_span(scope.trace(), "handle");
  handle_span.arg("seq", static_cast<i64>(scope.seq()));

  RequestParseResult parsed;
  {
    TraceSession::Span parse_span(scope.trace(), "parse");
    parsed = parse_request(line);
  }

  ServeResponse resp;
  resp.seq = static_cast<i64>(scope.seq());
  if (!parsed.ok) {
    metrics_.add_counter("serve.responses.malformed", 1);
    resp.code = ResponseCode::kMalformed;
    resp.reason = parsed.error;
    log_event(scope, nullptr, resp, nullptr, ms_since(handled));
    return resp.to_line();
  }
  const ServeRequest& req = parsed.request;

  resp.id = req.id;
  SolveAudit audit;
  bool is_solve = false;
  switch (req.op) {
    case ServeRequest::Op::kPing:
      metrics_.add_counter("serve.responses.ok", 1);
      break;
    case ServeRequest::Op::kMetrics:
      refresh_volatile_gauges();
      resp.metrics_json = metrics_.to_json();
      resp.slo_json = slo_json();
      metrics_.add_counter("serve.responses.ok", 1);
      break;
    case ServeRequest::Op::kShutdown:
      shutdown_.store(true, std::memory_order_release);
      metrics_.add_counter("serve.responses.ok", 1);
      break;
    case ServeRequest::Op::kSolve: {
      is_solve = true;
      resp = handle_solve(req, scope, audit);
      resp.id = req.id;
      resp.seq = static_cast<i64>(scope.seq());
      metrics_.add_counter(
          std::string("serve.responses.") + response_code_name(resp.code), 1);
      break;
    }
  }

  const double total_ms = ms_since(handled);
  if (is_solve) {
    roll_total_.record(total_ms);
    // Queue/solve rolls take one sample per *flight*, recorded by its
    // leader — joiners share the leader's numbers and must not skew the
    // distribution; hits and sheds never reach a worker at all.
    if (audit.admitted) {
      roll_queue_.record(audit.queue_ms);
      roll_solve_.record(audit.solve_ms);
    }
  }
  log_event(scope, &req, resp, is_solve ? &audit : nullptr, total_ms);
  return resp.to_line();
}

bool ServeCore::resolve(const ServeRequest& req, SolvePlan* plan,
                        std::string* error) {
  // The graph: a zoo model by name, or inline text through the hardened
  // parser (this is the service's untrusted-input boundary).
  if (!req.zoo.empty()) {
    if (const auto nodes = models::zoo_stack_nodes(req.zoo);
        nodes && *nodes > kMaxZooNodes) {
      *error = "zoo model '" + req.zoo + "' has " + std::to_string(*nodes) +
               " nodes (maximum " + std::to_string(kMaxZooNodes) + ")";
      return false;
    }
    auto built = models::zoo_graph(req.zoo);
    if (!built) {
      *error = "unknown zoo model '" + req.zoo + "'";
      return false;
    }
    plan->graph = std::make_shared<const Graph>(std::move(*built));
  } else {
    ModelParseLimits limits;
    limits.max_nodes = options_.max_model_nodes;
    ModelParseResult model = parse_model(req.model_text, limits);
    if (!model.ok) {
      *error = "model: " + model.error;
      return false;
    }
    plan->graph = std::make_shared<const Graph>(std::move(model.graph));
  }

  // The machine: the inline machine_spec when present (parse_request has
  // already validated it), else the named preset.
  if (!req.machine_spec_json.empty()) {
    if (!parse_machine_spec(req.machine_spec_json, &plan->machine, error))
      return false;
  } else if (auto preset = machine_preset(req.machine, req.devices)) {
    plan->machine = std::move(*preset);
  } else {
    *error = "unknown machine '" + req.machine + "'";
    return false;
  }
  const auto comm_kind = parse_comm_model_kind(req.comm_model);
  if (!comm_kind) {
    *error = "unknown comm model '" + req.comm_model + "'";
    return false;
  }

  DpOptions& options = plan->options;
  options.config_options.max_devices = req.devices;
  // req.split_dims is the canonical spelling parse_request stored, so it
  // always parses here.
  options.config_options.split_dims = *parse_split_dims(req.split_dims);
  if (req.memory_gb > 0)
    options.config_options.filter = memory_config_filter(req.memory_gb * 1e9);
  options.cost_params = hetero_cost_params(plan->machine, *comm_kind);
  if (options.cost_params.comm)
    options.cost_params.comm =
        comm_model_for(req, plan->machine, *comm_kind);  // warm memo
  options.degraded_fallback = true;
  options.beam_width = req.beam_width;
  options.num_threads = options_.solver_threads;
  options.metrics = &metrics_;
  return true;
}

ServeResponse ServeCore::handle_solve(const ServeRequest& req,
                                      RequestScope& scope,
                                      SolveAudit& audit) {
  const auto accepted = std::chrono::steady_clock::now();
  ServeResponse resp;
  auto finish = [&](ServeResponse& r) -> ServeResponse& {
    r.elapsed_ms = ms_since(accepted);
    return r;
  };

  // The request's wall-clock budget, resolved once: the audit, the
  // admission path, and the watchdog all see the same number.
  double deadline_ms = req.deadline_ms > 0.0 ? req.deadline_ms
                                             : options_.default_deadline_ms;
  if (options_.max_deadline_ms > 0.0 && deadline_ms > options_.max_deadline_ms)
    deadline_ms = options_.max_deadline_ms;
  audit.deadline_ms = deadline_ms;

  // The request's plan, resolved once: verify-on-hit, the solve, its
  // stored check_cost and the render below all read it.
  SolvePlan plan;
  {
    TraceSession::Span build_span(scope.trace(), "build_graph");
    std::string error;
    if (!resolve(req, &plan, &error)) {
      resp.code = ResponseCode::kMalformed;
      resp.reason = error;
      return finish(resp);
    }
    // The machine signature joins the three telemetry surfaces the same way
    // "seq" does: event-log field, serve.machine.* counter, and (below) the
    // result-cache key — heterogeneous requests stay distinguishable
    // everywhere (DESIGN.md §13).
    audit.machine = machine_signature(plan.machine);
    metrics_.add_counter("serve.machine." + audit.machine, 1);
  }
  const Graph& graph = *plan.graph;

  // The stage-count/device divisibility check lives in parse_request; the
  // graph-size bound needs the built graph, so it lives here.
  if (req.pipeline_stages > graph.num_nodes()) {
    resp.code = ResponseCode::kMalformed;
    resp.reason = "pipeline_stages (" + std::to_string(req.pipeline_stages) +
                  ") exceeds the model's layer count (" +
                  std::to_string(graph.num_nodes()) + ")";
    return finish(resp);
  }

  ResultKey key;
  key.graph_sig = graph_signature(graph);
  // Inline specs key by their canonical JSON — two requests share a result
  // only when their machines are byte-identical.
  key.machine =
      req.machine_spec_json.empty() ? req.machine : req.machine_spec_json;
  key.devices = req.devices;
  key.memory_gb = req.memory_gb;
  key.comm_model = req.comm_model;
  key.beam_width = req.beam_width;
  key.split_dims = req.split_dims;
  key.pipeline_stages = req.pipeline_stages;
  key.microbatches = req.microbatches;
  const u64 khash = key.hash();

  const u64 request_index =
      request_counter_.fetch_add(1, std::memory_order_relaxed);
  const InjectDraw draw =
      draw_injections(options_.inject, options_.seed, request_index);

  // Warm path: result-cache hit, verified before trust (see
  // result_cache.h). A poisoned entry is detected here, dropped, and the
  // request falls through to a fresh solve.
  ResultCache::Entry entry;
  bool poisoned = false;
  bool hit;
  {
    TraceSession::Span lookup_span(scope.trace(), "cache_lookup");
    hit = results_.lookup(khash, &entry);
  }
  if (hit) {
    bool verified = true;
    if (!entry.strategy.empty()) {
      TraceSession::Span verify_span(scope.trace(), "cache_verify");
      const CostModel cost(graph, plan.options.cost_params);
      verified = cost.total_cost(entry.strategy) == entry.check_cost;
    }
    if (verified) {
      metrics_.add_counter("serve.cache.hits", 1);
      resp.cache = "hit";
      if (entry.trip_cause != DpResult::TripCause::kNone)
        audit.trip = trip_cause_name(entry.trip_cause);
      std::tie(resp.code, resp.reason) =
          classify(entry.status, entry.guard_reason);
      if (!entry.strategy.empty()) {
        resp.cost = entry.best_cost;
        resp.strategy = write_strategy(graph, entry.strategy);
      }
      return finish(resp);
    }
    metrics_.add_counter("serve.cache.poison_detected", 1);
    results_.erase(khash);
    poisoned = true;
  }
  metrics_.add_counter("serve.cache.misses", 1);

  // Admission control: bounded concurrent solves, explicit shedding.
  // Duplicate in-flight requests join the leader instead of taking a slot.
  std::shared_ptr<Flight> flight;
  bool leader = false;
  const auto submitted = std::chrono::steady_clock::now();
  {
    TraceSession::Span admission_span(scope.trace(), "admission");
    std::lock_guard<std::mutex> lk(flight_mu_);
    auto it = flights_.find(khash);
    if (it != flights_.end()) {
      flight = it->second;
      metrics_.add_counter("serve.dedup.joined", 1);
      audit.dedup = true;
    } else {
      if (inflight_.load(std::memory_order_relaxed) >=
          options_.queue_depth) {
        resp.code = ResponseCode::kShed;
        resp.reason = "queue at capacity (" +
                      std::to_string(options_.queue_depth) +
                      " solves in flight); retry with backoff";
        return finish(resp);
      }
      inflight_.fetch_add(1, std::memory_order_relaxed);
      leader = true;
      flight = std::make_shared<Flight>();
      auto task = std::make_shared<std::packaged_task<SolveOutcome()>>(
          [this, plan, key, accepted, submitted, deadline_ms, draw,
           trace = scope.trace(), seq = scope.seq()] {
            SolveOutcome out = run_solve(plan, key, accepted, submitted,
                                         deadline_ms, draw, trace, seq);
            inflight_.fetch_sub(1, std::memory_order_relaxed);
            return out;
          });
      flight->future = task->get_future().share();
      flights_[khash] = flight;
      pool_.submit([task] { (*task)(); });
    }
  }

  SolveOutcome out;
  {
    // Leaders wait for their own solve; joiners wait for someone else's.
    // The solver's phase spans land on the *leader's* session (worker
    // lane), stitched to this span by the shared "seq" arg.
    TraceSession::Span wait_span(scope.trace(),
                                 leader ? "solve_wait" : "dedup_join");
    out = flight->future.get();
  }
  if (leader) {
    std::lock_guard<std::mutex> lk(flight_mu_);
    auto it = flights_.find(khash);
    if (it != flights_.end() && it->second == flight) flights_.erase(it);
  }

  audit.admitted = leader;
  audit.queue_ms = out.queue_wait_ms;
  audit.solve_ms = out.solve_ms;
  audit.trip = out.trip;

  resp.code = out.code;
  resp.reason = out.reason;
  resp.cache = poisoned ? "poisoned" : "miss";
  if (!out.strategy.empty()) {
    // Joiners render the leader's strategy against their own graph: the
    // key ignores node names, the rendered text does not.
    TraceSession::Span render_span(scope.trace(), "render");
    resp.cost = out.cost;
    resp.strategy = write_strategy(graph, out.strategy);
  }
  return finish(resp);
}

ServeCore::SolveOutcome ServeCore::run_solve(
    const SolvePlan& plan, const ResultKey& key,
    std::chrono::steady_clock::time_point accepted,
    std::chrono::steady_clock::time_point submitted, double deadline_ms,
    const InjectDraw& draw, TraceSession* trace, u64 seq) {
  SolveOutcome out;
  // This runs on a pool worker: a fresh lane in the leader's session, so
  // the merged trace shows the handoff from the connection lane
  // (solve_wait) to the worker lane (solve -> solver phases).
  TraceSession::Span solve_span(trace, "solve");
  solve_span.arg("seq", static_cast<i64>(seq));
  out.queue_wait_ms = ms_since(submitted);
  solve_span.arg("queue_wait_us",
                 static_cast<i64>(out.queue_wait_ms * 1e3));

  auto watch = std::make_shared<Watch>();
  watch->kill_at = accepted +
                   std::chrono::microseconds(static_cast<i64>(
                       (deadline_ms + options_.watchdog_grace_ms) * 1e3));
  watch->trace = trace;
  watch->seq = seq;
  {
    std::lock_guard<std::mutex> lk(watch_mu_);
    watches_.push_back(watch);
  }
  auto unregister = [&] {
    std::lock_guard<std::mutex> lk(watch_mu_);
    for (size_t i = 0; i < watches_.size(); ++i)
      if (watches_[i] == watch) {
        watches_.erase(watches_.begin() + static_cast<long>(i));
        break;
      }
  };

  // Fault injection (deterministic per request; see inject.h).
  if (draw.slow) {
    TraceSession::Span slow_span(trace, "inject_slow");
    metrics_.add_counter("serve.inject.slow", 1);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.inject.slow_seconds));
  }
  if (draw.stall) {
    // A wedged worker: ignores its deadline, yields only to the
    // cancellation token — the watchdog's job.
    TraceSession::Span stall_span(trace, "inject_stall");
    metrics_.add_counter("serve.inject.stall", 1);
    const auto until =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options_.inject.stall_seconds));
    while (std::chrono::steady_clock::now() < until &&
           !watch->cancel.load(std::memory_order_relaxed))
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  if (watch->cancel.load(std::memory_order_relaxed)) {
    unregister();
    out.code = ResponseCode::kError;
    out.trip = trip_cause_name(DpResult::TripCause::kCancelled);
    out.reason = "solve killed by watchdog after " +
                 std::to_string(static_cast<i64>(ms_since(accepted))) + "ms";
    return out;
  }

  DpOptions options = plan.options;
  // Whatever the queue and injected sleeps consumed already counts against
  // the request's budget; a spent budget degrades immediately (the beam
  // fallback is bounded work), it does not error.
  const double remaining_s = (deadline_ms - ms_since(accepted)) / 1e3;
  options.deadline_seconds = remaining_s > 1e-9 ? remaining_s : 1e-9;
  options.cancel = &watch->cancel;
  // The solver's phase spans (ordering, table_fill, ...) nest inside this
  // lane's "solve" span in the request's own session.
  options.trace = trace;
  // One stage is the plain solve, bit for bit. More cut the graph and
  // re-parallelize each stage under the same options (deadline, cancel
  // token and split-dim gates all thread through); the composed result
  // carries a full-graph strategy and its Eq. (1) cost, so the
  // cache/verify/render paths need no special casing.
  PipelineSearchOptions popts;
  popts.stages = key.pipeline_stages;
  popts.microbatches = key.microbatches;

  const auto solve_start = std::chrono::steady_clock::now();
  const DpResult result =
      find_best_pipelined_strategy(*plan.graph, plan.machine, options, popts)
          .dp;
  out.solve_ms = ms_since(solve_start);
  if (result.trip_cause != DpResult::TripCause::kNone)
    out.trip = trip_cause_name(result.trip_cause);
  unregister();

  std::tie(out.code, out.reason) = classify(result.status, result.guard_reason);
  if (result.status == DpStatus::kOutOfMemory) {
    // With the fallback enabled this is reachable only through
    // cancellation (the fallback itself honors the token).
    if (watch->killed.load(std::memory_order_relaxed))
      out.reason = "solve killed by watchdog: " + out.reason;
    return out;
  }
  out.cost = result.best_cost;
  out.strategy = result.strategy;

  if (ResultCache::cacheable(result.status, result.trip_cause)) {
    ResultCache::Entry entry;
    entry.status = result.status;
    entry.trip_cause = result.trip_cause;
    entry.best_cost = result.best_cost;
    entry.strategy = result.strategy;
    entry.guard_reason = result.guard_reason;
    if (!entry.strategy.empty()) {
      // check_cost is the exact value verify-on-hit will recompute: the
      // pure Eq. (1) re-evaluation under the plan's params, not the DP's
      // table sum (they can differ in floating-point association).
      const CostModel cost(*plan.graph, plan.options.cost_params);
      entry.check_cost = cost.total_cost(entry.strategy);
    }
    const u64 khash = key.hash();
    results_.store(khash, std::move(entry));
    if (draw.poison) {
      metrics_.add_counter("serve.inject.poison", 1);
      results_.corrupt(khash);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// SocketServer

SocketServer::SocketServer(ServeCore& core, std::string socket_path)
    : core_(core), path_(std::move(socket_path)) {}

SocketServer::~SocketServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!path_.empty()) ::unlink(path_.c_str());
}

bool SocketServer::listen(std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path_.size() >= sizeof(addr.sun_path)) {
    if (error) *error = "socket path too long: " + path_;
    return false;
  }
  std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  ::unlink(path_.c_str());  // stale socket from a crashed run
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (error) *error = "bind " + path_ + ": " + std::strerror(errno);
    return false;
  }
  if (::listen(listen_fd_, 64) < 0) {
    if (error) *error = std::string("listen: ") + std::strerror(errno);
    return false;
  }
  return true;
}

void SocketServer::run() {
  while (!stop_.load(std::memory_order_acquire) &&
         !core_.shutdown_requested()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0 || !(pfd.revents & POLLIN)) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    std::lock_guard<std::mutex> lk(conn_mu_);
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { serve_connection(fd); });
  }
  // Wake blocked reads so connection threads can exit, then join them.
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (;;) {
    std::thread t;
    {
      std::lock_guard<std::mutex> lk(conn_mu_);
      if (conn_threads_.empty()) break;
      t = std::move(conn_threads_.back());
      conn_threads_.pop_back();
    }
    t.join();
  }
}

void SocketServer::serve_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool overlong = false;
  for (;;) {
    // One request scope per protocol line, opened *before* the read so
    // socket_read lands in the same trace as the handling. A scope
    // abandoned at EOF (no line arrived) is simply discarded.
    ServeCore::RequestScope scope = core_.begin_request();
    std::string line;
    bool got_line = false;
    {
      TraceSession::Span read_span(scope.trace(), "socket_read");
      for (;;) {
        const auto nl = buffer.find('\n');
        if (nl != std::string::npos) {
          line = buffer.substr(0, nl);
          buffer.erase(0, nl + 1);
          if (!line.empty() && line.back() == '\r') line.pop_back();
          if (line.empty()) continue;  // blank keep-alive line
          got_line = true;
          break;
        }
        if (static_cast<i64>(buffer.size()) > core_.options().max_line_bytes) {
          // Keep draining to the newline but remember to reject the line:
          // an explicit malformed response, not a silent close.
          overlong = true;
          buffer.clear();
        }
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0) break;
        buffer.append(chunk, static_cast<size_t>(n));
      }
    }
    if (!got_line) break;

    std::string response;
    if (overlong) {
      response = core_.handle_overlong(scope);
      overlong = false;
    } else {
      response = core_.handle_line(line, scope);
    }
    response += '\n';
    {
      TraceSession::Span write_span(scope.trace(), "response_write");
      size_t off = 0;
      while (off < response.size()) {
        const ssize_t n = ::send(fd, response.data() + off,
                                 response.size() - off, MSG_NOSIGNAL);
        if (n <= 0) break;
        off += static_cast<size_t>(n);
      }
    }
    core_.end_request(scope);
    if (core_.shutdown_requested()) break;
  }
  ::close(fd);
}

}  // namespace pase::serve
