// The resilient strategy-serving daemon (ROADMAP item 1: the solver as a
// long-running service). Two layers:
//
//  * ServeCore — transport-independent request handling: parse, admission
//    control, single-flight deduplication, the warm caches, deadline
//    propagation, the watchdog, fault injection, and serve.* metrics. One
//    handle_line() call per protocol line; safe from any number of
//    threads. Tests drive this layer directly, no sockets involved.
//  * SocketServer — a Unix-domain-socket front end: accept loop, one
//    thread per connection, line framing with an input-size guard.
//
// Robustness invariants (DESIGN.md §10):
//  * Every request gets exactly one classified response: ok, degraded,
//    shed, malformed, infeasible or error — never a silent drop, never an
//    uncontrolled crash.
//  * Admission control: at most --queue-depth solves are admitted
//    (running or queued); beyond that, requests are shed immediately with
//    an explicit `shed` response the client can back off on.
//  * Deadlines: every solve carries a wall-clock budget that propagates
//    into DpOptions (including the amortized in-loop checks), so a
//    timed-out request returns a *degraded but valid* strategy. A
//    watchdog thread additionally cancels solves that overrun budget +
//    grace (e.g. an injected worker stall) via the solver's cancellation
//    token; a killed solve answers `error`.
//  * One plan per request: each solve request is resolved once — graph,
//    machine, solver options with their CostParams — and verify-on-hit,
//    the solve, the stored check_cost and the render all read that plan,
//    so they cannot disagree about how the request is priced.
//  * Warm state: a (graph signature, machine, p, ...) -> result LRU and a
//    CommModel memo, whose kAuto choices every plan's CostParams share,
//    survive across requests. Cached results are verified on every hit
//    (see result_cache.h) and only timing-independent results are stored,
//    so a cache hit is byte-identical to a fresh solve.
//
// Observability invariants (DESIGN.md §11):
//  * Every request gets exactly one event-log line (obs/event_log.h),
//    rendered through the canonical serve/json.cc writer, carrying the
//    server-assigned "seq", op, code, cache disposition, trip cause,
//    queue wait, solve time, total latency and deadline budget/remaining.
//    "seq" is also stamped on the response line, joining the three
//    telemetry surfaces (response, event log, trace).
//  * With tracing armed, each request runs under its own TraceSession
//    whose spans — socket_read, parse, cache_lookup/verify, admission,
//    solve (plus the solver's own phase spans on the worker lane),
//    inject_* clauses, watchdog_kill, response_write — are stitched into
//    one merged Chrome trace on a shared timeline (trace_chrome_json()).
//    Slow-exemplar mode keeps only requests over a latency threshold in a
//    bounded ring.
//  * Rolling SLO quantiles (obs/rolling.h) over the last slo_window
//    solves — total latency, queue wait, solve time — are served by the
//    `metrics` op and exported as serve.slo.* gauges.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "comm/comm_model.h"
#include "core/dp_solver.h"
#include "cost/machine.h"
#include "graph/graph.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/rolling.h"
#include "obs/trace.h"
#include "serve/inject.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"
#include "util/thread_pool.h"

namespace pase::serve {

/// Largest zoo graph the daemon builds, in nodes: 10 000 transformer
/// blocks. A zoo request names its size (transformer_stack_<N> has 6N + 4
/// nodes), so resolve() answers `malformed` above the cap before building
/// anything. DP tables cost about 20 KB per block, which bounds one such
/// solve near 200 MB; the cap sits ten times above transformer_stack_1000
/// (6 004 nodes), the largest stack the tests and the benchmark request.
/// Inline models have their own, lower limit (ServeOptions::max_model_nodes).
inline constexpr i64 kMaxZooNodes = 60'004;

struct ServeOptions {
  i64 workers = 2;          ///< concurrent solves (ThreadPool size)
  i64 solver_threads = 1;   ///< DP threads within one solve
  i64 queue_depth = 8;      ///< max admitted solves before shedding
  double default_deadline_ms = 2000.0;  ///< when the request sends none
  double max_deadline_ms = 30000.0;     ///< clamp for request deadlines
  double watchdog_grace_ms = 500.0;     ///< kill at deadline + grace
  i64 cache_entries = 128;              ///< result-cache capacity
  i64 max_model_nodes = 512;            ///< parser limit for inline models
  i64 max_line_bytes = i64{1} << 20;    ///< protocol input-size guard
  InjectSpec inject;                    ///< fault injection (off if empty)
  u64 seed = 1;                         ///< injection draw seed
  bool trace = false;        ///< arm per-request TraceSessions
  double slow_trace_ms = 0.0;  ///< keep only requests over this latency
                               ///< (0 = keep every traced request)
  i64 slow_trace_keep = 32;  ///< trace ring capacity in slow-exemplar mode
  i64 slo_window = 512;      ///< rolling SLO window (solve requests)
  std::string event_log_path;  ///< stream the event log here ("" = memory
                               ///< ring only)
  i64 event_log_memory = 1024;  ///< in-memory event ring capacity
};

class ServeCore {
 public:
  explicit ServeCore(ServeOptions options);
  ~ServeCore();

  ServeCore(const ServeCore&) = delete;
  ServeCore& operator=(const ServeCore&) = delete;

  /// Per-request observability context: the server-assigned sequence
  /// number and (when tracing is armed) the request's TraceSession.
  /// Transports open one scope per request so transport work (socket
  /// read, response write) lands inside the same trace as the handling.
  /// A scope abandoned without end_request() (e.g. EOF with no request)
  /// discards its trace.
  class RequestScope {
   public:
    RequestScope() = default;
    RequestScope(RequestScope&&) = default;
    RequestScope& operator=(RequestScope&&) = default;

    /// Null when tracing is off — Span construction no-ops on null.
    TraceSession* trace() const { return trace_.get(); }
    u64 seq() const { return seq_; }

   private:
    friend class ServeCore;
    std::unique_ptr<TraceSession> trace_;
    std::unique_ptr<TraceSession::Span> root_;  ///< the "request" span
    u64 seq_ = 0;
    double offset_us_ = 0.0;  ///< session start relative to core epoch
    std::chrono::steady_clock::time_point t0_;
  };

  /// Assigns the next sequence number (and a TraceSession when armed).
  RequestScope begin_request();
  /// Handles one protocol line end to end and returns the response line
  /// (no trailing newline). Blocking: a solve returns when it completes,
  /// is shed, or is killed. Thread-safe. Appends exactly one event-log
  /// line per call.
  std::string handle_line(const std::string& line, RequestScope& scope);
  /// Closes the scope: finishes the request span and, when tracing,
  /// stitches the session into the merged trace (or drops it, in
  /// slow-exemplar mode, when the request was fast).
  void end_request(RequestScope& scope);
  /// Convenience begin/handle/end for transport-less callers (tests,
  /// bench_serve).
  std::string handle_line(const std::string& line);
  /// The transport's response to an overlong input line: a malformed
  /// response that still gets a seq and an event-log line.
  std::string handle_overlong(RequestScope& scope);

  /// True once a shutdown request has been handled.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Solves the watchdog had to kill (healthy runs must report zero).
  u64 watchdog_kills() const {
    return watchdog_kills_.load(std::memory_order_relaxed);
  }

  const ServeOptions& options() const { return options_; }
  MetricsRegistry& metrics() { return metrics_; }
  EventLog& event_log() { return events_; }
  const EventLog& event_log() const { return events_; }

  /// Rolling SLO quantiles over the last slo_window solve requests.
  /// `total` covers every solve; `queue_wait`/`solve` cover admitted
  /// solves only (cache hits and sheds never queue), so their counts lag
  /// `total` by the hits/sheds — exactly the gap an admission audit wants
  /// visible.
  struct SloSnapshot {
    i64 window = 0;
    RollingHistogram::Snapshot total;
    RollingHistogram::Snapshot queue_wait;
    RollingHistogram::Snapshot solve;
  };
  SloSnapshot slo_snapshot() const;

  /// Merged Chrome trace of every kept request, on one timeline (ts = µs
  /// since core construction, one tid block per request). Empty trace
  /// ("[]"-only) when tracing is off or nothing was kept.
  std::string trace_chrome_json() const;
  u64 traces_kept() const;

  /// Registry snapshot with the volatile serve gauges (inflight, slo)
  /// refreshed first. Prometheus text when `prometheus`, canonical JSON
  /// otherwise.
  std::string metrics_snapshot(bool prometheus);

 private:
  /// Outcome of one solve, shared between duplicate in-flight requests.
  struct SolveOutcome {
    ResponseCode code = ResponseCode::kError;
    double cost = 0.0;
    Strategy strategy;
    std::string reason;
    double queue_wait_ms = 0.0;  ///< submit -> worker pickup
    double solve_ms = 0.0;       ///< solver wall time (excludes injects)
    const char* trip = nullptr;  ///< trip_cause_name() when a guard tripped
  };
  struct Flight;

  /// Watchdog registration for one running solve.
  struct Watch {
    std::atomic<bool> cancel{false};
    std::atomic<bool> killed{false};
    std::chrono::steady_clock::time_point kill_at;
    TraceSession* trace = nullptr;  ///< request session, for the kill span
    u64 seq = 0;
  };

  /// What handle_solve learned about one request, for the event line and
  /// the rolling SLO. queue/solve < 0 = request never reached a worker
  /// (hit, shed, malformed).
  struct SolveAudit {
    double deadline_ms = 0.0;
    double queue_ms = -1.0;
    double solve_ms = -1.0;
    const char* trip = nullptr;
    bool dedup = false;    ///< joined another request's flight
    bool admitted = false;  ///< this request was the flight leader
    /// Machine signature (src/hetero machine_signature, e.g. "1080Ti/p8",
    /// "MixedPod/p8/het"): lands in the event-log "machine" field and the
    /// serve.machine.* counters so heterogeneous requests are
    /// distinguishable in rollups. Empty until the machine validates.
    std::string machine;
  };

  /// One solve request, resolved once. The graph is shared so the leader
  /// can hand it to its solve and still render with it; run_solve adds the
  /// deadline, cancel token and trace session to `options`.
  struct SolvePlan {
    std::shared_ptr<const Graph> graph;
    MachineSpec machine;
    DpOptions options;
  };

  ServeResponse handle_solve(const ServeRequest& request, RequestScope& scope,
                             SolveAudit& audit);
  /// Builds the graph, resolves the machine and comm model, and fills the
  /// solver options. False, with the `malformed` reason, when the model,
  /// machine or comm model does not resolve.
  bool resolve(const ServeRequest& request, SolvePlan* plan,
               std::string* error);
  SolveOutcome run_solve(const SolvePlan& plan, const ResultKey& key,
                         std::chrono::steady_clock::time_point accepted,
                         std::chrono::steady_clock::time_point submitted,
                         double deadline_ms, const InjectDraw& draw,
                         TraceSession* trace, u64 seq);
  std::shared_ptr<const CommModel> comm_model_for(const ServeRequest& request,
                                                  const MachineSpec& machine,
                                                  CommModelKind kind);
  void watchdog_main();
  /// Renders + appends the one event-log line for this request.
  void log_event(const RequestScope& scope, const ServeRequest* request,
                 const ServeResponse& response, const SolveAudit* audit,
                 double total_ms);
  /// Rolling SLO as a canonical-JSON object (the metrics op's "slo").
  std::string slo_json() const;
  void refresh_volatile_gauges();

  ServeOptions options_;
  MetricsRegistry metrics_;
  EventLog events_;
  ResultCache results_;
  ThreadPool pool_;
  const std::chrono::steady_clock::time_point epoch_;

  RollingHistogram roll_total_;
  RollingHistogram roll_queue_;
  RollingHistogram roll_solve_;

  std::mutex comm_models_mu_;
  std::unordered_map<u64, std::shared_ptr<const CommModel>> comm_models_;

  std::mutex flight_mu_;
  std::unordered_map<u64, std::shared_ptr<Flight>> flights_;

  std::mutex watch_mu_;
  std::vector<std::shared_ptr<Watch>> watches_;
  std::condition_variable watch_cv_;
  std::thread watchdog_;
  bool watchdog_stop_ = false;

  /// Kept per-request event bundles (already shifted onto the shared
  /// timeline and remapped to unique tids).
  mutable std::mutex traces_mu_;
  std::deque<std::vector<ChromeEvent>> kept_traces_;
  i64 next_trace_tid_ = 0;
  u64 traces_kept_total_ = 0;

  std::atomic<i64> inflight_{0};
  std::atomic<u64> request_counter_{0};  ///< feeds injection draws
  std::atomic<u64> seq_counter_{0};      ///< response/event/trace join key
  std::atomic<u64> watchdog_kills_{0};
  std::atomic<bool> shutdown_{false};
};

/// Unix-domain-socket front end. Lifecycle: construct, listen(), run()
/// (blocks until a shutdown request arrives or stop() is called from a
/// signal handler's thread), destructor cleans up the socket file.
class SocketServer {
 public:
  SocketServer(ServeCore& core, std::string socket_path);
  ~SocketServer();

  /// Binds and listens. False (with reason) on failure.
  bool listen(std::string* error);
  /// Accept loop; returns after shutdown. Spawns one thread per
  /// connection; all are joined before returning.
  void run();
  /// Async-signal-safe-ish stop: flips a flag the accept loop polls.
  void stop() { stop_.store(true, std::memory_order_release); }

 private:
  void serve_connection(int fd);

  ServeCore& core_;
  std::string path_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  std::vector<int> conn_fds_;
};

}  // namespace pase::serve
