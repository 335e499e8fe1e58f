#include "core/dp_solver.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>

#include "core/dep_sets.h"
#include "cost/layer_classes.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace pase {

namespace {

/// Below this many combination evaluations for a vertex, the fan-out is not
/// worth the chunk bookkeeping and the vertex is processed on the calling
/// thread. Has no effect on results, only on scheduling.
constexpr u64 kParallelWorkThreshold = 4096;

/// Compact number rendering for guard-reason diagnostics.
std::string fmt_count(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

/// Per-position DP state kept alive for anchor lookups and extraction.
///
/// The substrategy table R(i, .) is two dense arrays indexed by the
/// mixed-radix rank of phi: an entry's index is
/// sum_k cur_idx[dependent[k]] * stride[k]. Its one reader, the consumer,
/// is the later vertex v^(c) whose S(.) holds X(i); v^(c) is the member of
/// D(i) with the lowest position. Its digit is at stride 1, the others
/// follow in node-id order, so the consumer reads the |C(v^(c))| entries
/// of one phi of its own as one contiguous column. Dense indexing gives
/// each parallel worker a distinct, pre-sized slot to write, which is what
/// makes the threaded fan-out race-free and deterministic.
///
/// `cost` holds R(i, phi); the consumer releases it once its reduce has
/// read it. `argmin` holds v^(i)'s minimizing configuration index, the one
/// thing back-substitution reads, and lives to the end of the solve. A
/// root's one-slot cost array is never released: it is the answer.
struct PositionState {
  std::vector<NodeId> dependent;  ///< D(i), sorted by node id
  std::vector<i64> anchors;       ///< S(i) anchor positions
  std::vector<u64> stride;        ///< dependent[k]'s stride in the table
  u64 size = 0;                   ///< prod_k |C(dependent[k])|
  std::unique_ptr<double[]> cost;  ///< [size], until its consumer reduced
  std::unique_ptr<u32[]> argmin;   ///< [size]

  u64 index_of(const std::vector<u32>& cur_idx) const {
    u64 idx = 0;
    for (size_t k = 0; k < dependent.size(); ++k)
      idx += static_cast<u64>(cur_idx[static_cast<size_t>(dependent[k])]) *
             stride[k];
    return idx;
  }
};

/// Back-substitution from one component root: assigns v^(i)'s best
/// configuration under the current dependent-set choices, then descends
/// into the connected subsets S(i) in order (a pre-order walk). The walk
/// keeps an explicit stack: on a chain-like graph the anchors nest once per
/// layer, deeper than a thread's call stack allows.
void extract(const std::vector<PositionState>& states,
             const Ordering& order, const ConfigCache& configs, i64 root,
             std::vector<u32>& cur_idx, Strategy& out) {
  std::vector<i64> pending{root};
  while (!pending.empty()) {
    const PositionState& st = states[static_cast<size_t>(pending.back())];
    const NodeId vi = order.seq[static_cast<size_t>(pending.back())];
    pending.pop_back();
    const u64 idx = st.index_of(cur_idx);
    PASE_CHECK_MSG(idx < st.size, "missing DP entry during extraction");
    cur_idx[static_cast<size_t>(vi)] = st.argmin[idx];
    out[static_cast<size_t>(vi)] = configs.at(vi)[st.argmin[idx]];
    // Reversed, so the first anchor is popped (and its subtree finished)
    // first, exactly as the recursion would visit them.
    pending.insert(pending.end(), st.anchors.rbegin(), st.anchors.rend());
  }
}

/// The min-plus reduce of one vertex v^(i) as one loop nest over D(i),
/// built on the calling thread and only read by the workers. A stream is
/// one term of the sum that depends on phi — a later edge's t_x matrix (in
/// incident order) or an anchor's cost array (in S(i) order) — and phi
/// selects one contiguous |C(v^(i))| column of it at an offset; stream `ns`
/// (one past the last) is the output slot. The odometer's digit 0 is the
/// innermost; streams [0, split) do not depend on it, so their sum, after
/// 0.0 + t_l, is the prefix added once per block of that digit's radix.
struct ReducePlan {
  std::vector<const double*> base;  ///< per stream
  size_t split = 0;
  std::vector<u32> radix;  ///< per odometer digit, innermost first
  /// [m * (ns + 1) + s]: stream s's offset step for odometer digit m.
  std::vector<u64> step;
  /// [m * (ns + 1) + s], m >= 1: stream s's offset change (mod 2^64) when
  /// digit 0 has run a whole block, digits 1..m-1 wrap and digit m
  /// advances.
  std::vector<u64> carry;
};

/// A reduce worker's own mutable state: the odometer, the stream offsets,
/// the block prefix and the |C(v^(i))| accumulator.
struct ReduceScratch {
  std::vector<u32> odo;
  std::vector<u64> off;
  std::vector<double> pre;
  std::vector<double> acc;
};

/// The H term's prices for one vertex v^(i) of recurrence (4): t_l(v^(i), C)
/// for every C in C(v^(i)), and r * t_x of each later edge (in incident
/// order) as a matrix laid out [cw][ci], so the reduce for one phi reads one
/// contiguous column per edge. Both point into the pricer's store.
struct VertexPrices {
  struct LaterEdge {
    NodeId other;          ///< w, the later endpoint (a member of D(i))
    const double* matrix;  ///< [cw * |C(v^(i))| + ci]
  };
  const double* layer = nullptr;  ///< [ci]
  std::vector<LaterEdge> later;
};

/// Prices vertices for the DP and its beam fallback, once per structural
/// class. A LayerClasses class fixes the configuration lists as well as the
/// costs, so its id alone decides reuse, and a shared price is
/// bit-identical to a fresh one. t_l is kept by node class, r * t_x by
/// oriented edge class; the DP prices every row of a table, the fallback
/// only the rows its kept states hold. The DP prices on the calling thread
/// before the parallel fan-out, so the hit counts are identical at any
/// thread count.
class VertexPricer {
 public:
  /// r * t_x of one oriented edge class over C(w) x C(v^(i)), w being the
  /// other endpoint. Both sides' TransferFactors are built when the table is
  /// allocated; its prices are allocated uninitialized, and row cw is
  /// priced — one transfer_cost_row sweep over C(v^(i)) — once priced[cw] is
  /// set, so a row nobody asks for costs nothing.
  struct EdgeTable {
    bool vi_is_src = false;
    TransferFactors w;                 ///< of C(w)
    TransferFactors vi;                ///< of C(v^(i))
    std::unique_ptr<double[]> prices;  ///< [cw * |C(v^(i))| + ci]
    std::vector<bool> priced;          ///< by cw
  };

  VertexPricer(const Graph& graph, const Ordering& order,
               const ConfigCache& configs, const LayerClasses& classes,
               const CostModel& cost)
      : graph_(graph),
        order_(order),
        configs_(configs),
        classes_(classes),
        cost_(cost),
        layers_(static_cast<size_t>(classes.num_node_classes())),
        tables_(2 * static_cast<size_t>(classes.num_edge_classes())) {}

  /// t_l(v, C) for every C in C(v), into `out`. `poll` is called each time
  /// the count of priced entries crosses a multiple of 256 and returns
  /// kNone to continue; any other cause stops the pricing and is returned.
  template <class Poll>
  DpResult::TripCause layer(NodeId v, const double*& out, Poll&& poll) {
    std::vector<double>& prices = layers_[classes_.node_class(v)];
    if (!prices.empty()) {
      ++node_hits_;
    } else {
      const auto& v_configs = configs_.at(v);
      prices.resize(v_configs.size());
      for (size_t c = 0; c < v_configs.size(); ++c) {
        if (const auto cause = tick(poll, 1);
            cause != DpResult::TripCause::kNone) {
          prices.clear();  // empty = not priced
          return cause;
        }
        prices[c] = cost_.node_cost(v, v_configs[c]);
      }
    }
    out = prices.data();
    return DpResult::TripCause::kNone;
  }

  /// The table of edge `eid` as seen from its endpoint `vi`, allocated with
  /// no row priced the first time its oriented class is asked for.
  EdgeTable& table(EdgeId eid, NodeId vi) {
    const Edge& e = graph_.edge(eid);
    EdgeTable& t =
        tables_[2 * size_t{classes_.edge_class(eid)} + (e.src == vi)];
    if (t.prices) {
      ++edge_hits_;
    } else {
      const NodeId w = e.src == vi ? e.dst : e.src;
      t.vi_is_src = e.src == vi;
      t.w = TransferFactors(e, !t.vi_is_src, configs_.at(w), cost_.params());
      t.vi = TransferFactors(e, t.vi_is_src, configs_.at(vi), cost_.params());
      t.prices = std::make_unique_for_overwrite<double[]>(t.w.count *
                                                          t.vi.count);
      t.priced.assign(t.w.count, false);
    }
    return t;
  }

  /// Prices row cw of `t` unless it is priced already; `poll` as in
  /// layer(), counting the row's |C(v^(i))| entries before it is priced.
  template <class Poll>
  DpResult::TripCause price_row(EdgeTable& t, u32 cw, Poll&& poll) {
    if (t.priced[cw]) return DpResult::TripCause::kNone;
    if (const auto cause = tick(poll, t.vi.count);
        cause != DpResult::TripCause::kNone)
      return cause;
    transfer_cost_row(t.w, cw, t.vi, t.vi_is_src, cost_.params(),
                      t.prices.get() + size_t{cw} * t.vi.count);
    t.priced[cw] = true;
    return DpResult::TripCause::kNone;
  }

  /// Fills `out` for the vertex at sequence position i; `poll` as in
  /// layer().
  template <class Poll>
  DpResult::TripCause price(i64 i, VertexPrices& out, Poll&& poll) {
    const NodeId vi = order_.seq[static_cast<size_t>(i)];
    if (const auto cause = layer(vi, out.layer, poll);
        cause != DpResult::TripCause::kNone)
      return cause;

    out.later.clear();
    for (EdgeId eid : graph_.incident_edges(vi)) {
      const Edge& e = graph_.edge(eid);
      const NodeId w = e.src == vi ? e.dst : e.src;
      if (order_.pos[static_cast<size_t>(w)] <= i) continue;
      EdgeTable& t = table(eid, vi);
      for (u32 cw = 0; cw < t.priced.size(); ++cw)
        if (const auto cause = price_row(t, cw, poll);
            cause != DpResult::TripCause::kNone)
          return cause;
      out.later.push_back({w, t.prices.get()});
    }
    return DpResult::TripCause::kNone;
  }

  u64 node_hits() const { return node_hits_; }
  u64 edge_hits() const { return edge_hits_; }

 private:
  /// Counts `entries` more priced entries and calls `poll` when the count
  /// crosses a multiple of 256.
  template <class Poll>
  DpResult::TripCause tick(Poll& poll, u64 entries) {
    const u64 before = ticks_;
    ticks_ += entries;
    return (before >> 8) != (ticks_ >> 8) ? poll()
                                          : DpResult::TripCause::kNone;
  }

  const Graph& graph_;
  const Ordering& order_;
  const ConfigCache& configs_;
  const LayerClasses& classes_;
  const CostModel& cost_;
  /// t_l by node class; empty until priced.
  std::vector<std::vector<double>> layers_;
  /// r * t_x by 2 x edge class + (v^(i) is the source).
  std::vector<EdgeTable> tables_;
  u64 ticks_ = 0;
  u64 node_hits_ = 0;
  u64 edge_hits_ = 0;
};

/// How much of DpOptions::deadline_seconds the beam fallback may spend
/// after a deadline trip (DESIGN.md §7.2).
constexpr double kFallbackDeadlineShare = 0.5;
/// Vertices the fallback places at the requested width before it may
/// narrow it (sooner if they alone take an eighth of its share).
constexpr i64 kFallbackProbeVertices = 8;

/// Graceful-degradation fallback: a deterministic beam search over the same
/// vertex ordering. Placing v^(i) adds its t_l plus the t_x of every
/// incident edge whose other endpoint is already placed (each edge is
/// counted exactly once, when its later endpoint is placed, so a completed
/// state's accumulated cost is exactly Eq. (1)). Work is bounded by
/// width * K per vertex — no substrategy tables, no blow-up.
///
/// Every price is read, not recomputed per candidate: t_l and t_x from the
/// DP's VertexPricer, a t_x row per (edge class, configuration of the placed
/// endpoint) priced the first time a kept state holds that configuration.
/// A state's candidates are scored as one array accumulate, in the order
/// state cost + t_l, then the earlier edges in incident order. A kept state
/// is (cost, parent, config of v^(i)) plus the configs of its frontier —
/// placed vertices with an unplaced neighbour, the only ones a later price
/// reads — and the strategy is rebuilt once from the parent links.
///
/// `budget_seconds` > 0 (deadline trips) lets the width narrow, never below
/// 1, so the remaining vertices fit the budget at the speed measured so
/// far; 0 keeps `beam_width` throughout, which makes guard-trip answers
/// deterministic. Honors an external cancellation token (`cancel`, may be
/// null): a serving watchdog that kills a runaway solve must not then wait
/// for the fallback. Returns false (result.strategy untouched) when
/// cancelled before completing.
bool beam_search_fallback(const Graph& graph, const Ordering& order,
                          const ConfigCache& configs, const CostModel& cost,
                          VertexPricer& pricer, i64 beam_width,
                          double budget_seconds,
                          const std::atomic<bool>* cancel, DpResult& result) {
  PASE_CHECK(beam_width >= 1);
  const WallTimer timer;
  const i64 n = graph.num_nodes();
  auto pos = [&](NodeId v) { return order.pos[static_cast<size_t>(v)]; };
  auto poll = [&] {
    return cancel && cancel->load(std::memory_order_relaxed)
               ? DpResult::TripCause::kCancelled
               : DpResult::TripCause::kNone;
  };

  // u stays on the frontier while pos(u) <= i < last[u], its latest
  // neighbour's position.
  std::vector<i64> last(static_cast<size_t>(n), -1);
  for (const Edge& e : graph.edges()) {
    i64& ls = last[static_cast<size_t>(e.src)];
    i64& ld = last[static_cast<size_t>(e.dst)];
    ls = std::max(ls, pos(e.dst));
    ld = std::max(ld, pos(e.src));
  }

  struct Link {
    u32 parent;  ///< the state's rank in the previous level
    u32 cfg;     ///< its configuration index for v^(i)
  };
  std::vector<Link> links;  // every level's kept states, level after level
  std::vector<size_t> level_begin(static_cast<size_t>(n));
  std::vector<double> beam_cost{0.0}, next_cost;
  std::vector<NodeId> frontier, next_frontier;  // slot -> node
  std::vector<i64> slot_of(static_cast<size_t>(n), -1);
  std::vector<i64> from_slot;  // next slot -> current slot, -1 = v^(i)
  std::vector<u32> front, next_front;  // [state * |frontier| + slot]
  struct EarlierEdge {
    i64 slot;  ///< w's frontier slot
    VertexPricer::EdgeTable* table;
  };
  std::vector<EarlierEdge> earlier;
  std::vector<double> scores;
  struct Candidate {
    double cost;
    u32 index;  ///< state rank * |C(v^(i))| + config index
  };
  std::vector<Candidate> candidates;
  const auto better = [](const Candidate& a, const Candidate& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.index < b.index;
  };

  i64 width = beam_width;
  double states_expanded = 0.0;
  for (i64 i = 0; i < n; ++i) {
    if (poll() != DpResult::TripCause::kNone) return false;
    const NodeId vi = order.seq[static_cast<size_t>(i)];
    const size_t kc = configs.at(vi).size();
    const double* layer = nullptr;
    if (pricer.layer(vi, layer, poll) != DpResult::TripCause::kNone)
      return false;

    earlier.clear();
    for (EdgeId eid : graph.incident_edges(vi)) {
      const Edge& e = graph.edge(eid);
      const NodeId w = e.src == vi ? e.dst : e.src;
      if (pos(w) < i)
        earlier.push_back(
            {slot_of[static_cast<size_t>(w)], &pricer.table(eid, vi)});
    }

    const size_t beam = beam_cost.size();
    const size_t nf = frontier.size();
    PASE_CHECK(beam * kc <= std::numeric_limits<u32>::max());
    scores.resize(beam * kc);
    for (size_t s = 0; s < beam; ++s) {
      double* const acc = scores.data() + s * kc;
      for (size_t ci = 0; ci < kc; ++ci) acc[ci] = beam_cost[s] + layer[ci];
      for (const EarlierEdge& ee : earlier) {
        const u32 cw = front[s * nf + static_cast<size_t>(ee.slot)];
        if (pricer.price_row(*ee.table, cw, poll) !=
            DpResult::TripCause::kNone)
          return false;
        const double* const row = ee.table->prices.get() + size_t{cw} * kc;
        for (size_t ci = 0; ci < kc; ++ci) acc[ci] += row[ci];
      }
    }

    // Keep the best `width` under (cost, state rank, config index) — a
    // strict total order, so the kept prefix is unique.
    candidates.resize(scores.size());
    for (size_t c = 0; c < scores.size(); ++c)
      candidates[c] = {scores[c], static_cast<u32>(c)};
    const size_t keep =
        std::min(static_cast<size_t>(width), candidates.size());
    std::nth_element(candidates.begin(),
                     candidates.begin() + static_cast<std::ptrdiff_t>(keep),
                     candidates.end(), better);
    std::sort(candidates.begin(),
              candidates.begin() + static_cast<std::ptrdiff_t>(keep), better);

    // The next frontier: members that keep an unplaced neighbour, then
    // v^(i) if it has one.
    next_frontier.clear();
    from_slot.clear();
    for (size_t f = 0; f < nf; ++f)
      if (last[static_cast<size_t>(frontier[f])] > i) {
        next_frontier.push_back(frontier[f]);
        from_slot.push_back(static_cast<i64>(f));
      }
    if (last[static_cast<size_t>(vi)] > i) {
      next_frontier.push_back(vi);
      from_slot.push_back(-1);
    }
    const size_t next_nf = next_frontier.size();

    level_begin[static_cast<size_t>(i)] = links.size();
    next_cost.resize(keep);
    next_front.resize(keep * next_nf);
    for (size_t k = 0; k < keep; ++k) {
      const u32 s = candidates[k].index / static_cast<u32>(kc);
      const u32 ci = candidates[k].index % static_cast<u32>(kc);
      next_cost[k] = candidates[k].cost;
      links.push_back({s, ci});
      for (size_t f = 0; f < next_nf; ++f)
        next_front[k * next_nf + f] =
            from_slot[f] < 0
                ? ci
                : front[s * nf + static_cast<size_t>(from_slot[f])];
    }
    for (NodeId u : frontier) slot_of[static_cast<size_t>(u)] = -1;
    for (size_t f = 0; f < next_nf; ++f)
      slot_of[static_cast<size_t>(next_frontier[f])] = static_cast<i64>(f);
    beam_cost.swap(next_cost);
    front.swap(next_front);
    frontier.swap(next_frontier);

    // Deadline trips: after the probe, narrow the width to what the rest
    // can afford at the measured cost per expanded state.
    states_expanded += static_cast<double>(beam);
    if (budget_seconds > 0.0 && i + 1 < n) {
      const double spent = timer.elapsed_seconds();
      if (i + 1 >= kFallbackProbeVertices || 8.0 * spent >= budget_seconds) {
        const double per_state = spent / states_expanded;
        const double affordable = (budget_seconds - spent) /
                                  static_cast<double>(n - i - 1) / per_state;
        if (affordable < static_cast<double>(width))
          width = std::max<i64>(1, static_cast<i64>(affordable));
      }
    }
  }

  // The front state is the minimum; walk its parent links back.
  result.strategy.assign(static_cast<size_t>(n), Config{});
  u32 k = 0;
  for (i64 i = n - 1; i >= 0; --i) {
    const Link& link = links[level_begin[static_cast<size_t>(i)] + k];
    const NodeId v = order.seq[static_cast<size_t>(i)];
    result.strategy[static_cast<size_t>(v)] = configs.at(v)[link.cfg];
    k = link.parent;
  }
  // Report the authoritative Eq. (1) evaluation of the extracted strategy
  // (equal to the state's cost up to floating-point association).
  result.best_cost = cost.total_cost(result.strategy);
  result.beam_width_used = width;
  return true;
}

}  // namespace

const char* trip_cause_name(DpResult::TripCause cause) {
  switch (cause) {
    case DpResult::TripCause::kNone: return "none";
    case DpResult::TripCause::kTableGuard: return "table_guard";
    case DpResult::TripCause::kWorkGuard: return "work_guard";
    case DpResult::TripCause::kDeadline: return "deadline";
    case DpResult::TripCause::kCancelled: return "cancelled";
  }
  return "none";
}

DpResult find_best_strategy(const Graph& graph, const DpOptions& options) {
  WallTimer timer;
  DpResult result;
  TraceSession* const trace = options.trace;
  MetricsRegistry* const metrics = options.metrics;

  Ordering order;
  {
    PhaseScope phase(trace, metrics, "ordering", "dp.phase.ordering_seconds");
    order = make_ordering(graph, options.ordering);
  }
  std::optional<ConfigCache> configs_storage;
  {
    PhaseScope phase(trace, metrics, "configs", "dp.phase.configs_seconds");
    configs_storage.emplace(graph, options.config_options);
  }
  const ConfigCache& configs = *configs_storage;
  std::optional<LayerClasses> classes_storage;
  {
    PhaseScope phase(trace, metrics, "classes", "dp.phase.classes_seconds");
    classes_storage.emplace(graph, configs);
  }
  const CostModel cost(graph, options.cost_params);
  VertexPricer pricer(graph, order, configs, *classes_storage, cost);

  // Per-vertex metrics are summed here and written once, by record_metrics:
  // a registry call takes a lock and a name lookup, which per vertex would
  // cost more than a small vertex's whole fill.
  PhaseGauge fill_gauge(metrics, "dp.phase.table_fill_seconds");
  PhaseGauge pricing_gauge(metrics, "dp.phase.pricing_seconds");
  PhaseGauge reduce_gauge(metrics, "dp.phase.reduce_seconds");
  MetricsRegistry::Histogram substrategies_per_vertex;
  u64 combinations = 0;
  // Bytes of substrategy tables alive (cost + argmin arrays), and the most
  // alive at once: a pure function of (graph, options), as allocations and
  // releases happen on the calling thread in sequence order.
  u64 table_bytes = 0;
  u64 table_bytes_peak = 0;

  // Final metrics flush, shared by every exit path. Counters/histograms
  // recorded here are structural — pure functions of (graph, options minus
  // num_threads) — while anything wall-clock or scheduling dependent goes
  // into gauges (see src/obs/metrics.h).
  auto record_metrics = [&] {
    if (!metrics) return;
    metrics->add_counter("dp.solves", 1);
    fill_gauge.flush();
    pricing_gauge.flush();
    reduce_gauge.flush();
    MetricsRegistry::Histogram dep_set_sizes;
    for (const i64 size : result.dependent_set_sizes)
      dep_set_sizes.record(size);
    metrics->add_histogram("dp.dep_set_size", dep_set_sizes);
    metrics->add_histogram("dp.substrategies_per_vertex",
                           substrategies_per_vertex);
    if (substrategies_per_vertex.count > 0) {
      metrics->add_counter("dp.substrategies",
                           static_cast<u64>(substrategies_per_vertex.sum));
      metrics->add_counter("dp.combinations", combinations);
      metrics->record("dp.table_bytes_peak",
                      static_cast<i64>(table_bytes_peak));
    }
    if (pricer.node_hits() > 0)
      metrics->add_counter("dp.class_memo.node_hits", pricer.node_hits());
    if (pricer.edge_hits() > 0)
      metrics->add_counter("dp.class_memo.edge_hits", pricer.edge_hits());
    const char* status = "ok";
    switch (result.status) {
      case DpStatus::kOk: status = "ok"; break;
      case DpStatus::kOutOfMemory: status = "oom"; break;
      case DpStatus::kInfeasible: status = "infeasible"; break;
      case DpStatus::kDegraded: status = "degraded"; break;
    }
    metrics->add_counter(std::string("dp.status.") + status, 1);
    metrics->add_gauge("dp.elapsed_seconds", result.elapsed_seconds);
    metrics->set_gauge("dp.threads", static_cast<double>(result.threads_used));
  };

  // The pool is created per solve (worker startup is microseconds against
  // search times of milliseconds and up); num_threads == 1 bypasses it.
  const i64 threads = ThreadPool::resolve(options.num_threads);
  std::optional<ThreadPool> pool;
  if (threads > 1) {
    pool.emplace(threads);
    pool->set_trace(trace);
  }
  result.threads_used = threads;

  const i64 n = graph.num_nodes();
  if (metrics) metrics->add_counter("dp.vertices", static_cast<u64>(n));

  result.max_configs = configs.max_configs();
  for (NodeId v = 0; v < n; ++v) {
    if (configs.at(v).empty()) {
      result.status = DpStatus::kInfeasible;
      result.elapsed_seconds = timer.elapsed_seconds();
      record_metrics();
      return result;
    }
  }

  auto deadline_expired = [&] {
    return options.deadline_seconds > 0.0 &&
           timer.elapsed_seconds() > options.deadline_seconds;
  };
  // Cancellation (external token beats deadline: the watchdog's kill is the
  // more urgent signal and its message should say "cancelled").
  auto abort_cause = [&]() -> DpResult::TripCause {
    if (options.cancel && options.cancel->load(std::memory_order_relaxed))
      return DpResult::TripCause::kCancelled;
    if (deadline_expired()) return DpResult::TripCause::kDeadline;
    return DpResult::TripCause::kNone;
  };
  auto abort_message = [&](DpResult::TripCause cause,
                           const std::string& where) {
    return (cause == DpResult::TripCause::kCancelled
                ? std::string("cancelled ")
                : "deadline of " + fmt_count(options.deadline_seconds) +
                      "s expired ") +
           where;
  };
  // A trip (reason, cause) ends the DP and is handled after the vertex loop,
  // once the tripped vertex's scopes have closed. A deadline or token that
  // tripped during the set-up above skips the DP altogether: the fallback
  // needs only the ordering, the configurations and the pricer.
  std::optional<std::pair<std::string, DpResult::TripCause>> trip;
  if (const auto cause = abort_cause(); cause != DpResult::TripCause::kNone)
    trip.emplace(abort_message(cause, "before the first vertex"), cause);

  // D(i) and S(i) for every position, and the component roots, in one
  // pass over the sequence.
  std::vector<PositionState> states(trip ? 0 : static_cast<size_t>(n));
  std::vector<i64> roots;
  if (!trip) {
    PhaseScope phase(trace, metrics, "dep_sets", "dp.phase.dep_sets_seconds");
    AllVertexSets sets = compute_all_vertex_sets(graph, order);
    for (i64 i = 0; i < n; ++i) {
      PositionState& st = states[static_cast<size_t>(i)];
      st.dependent = std::move(sets.dependent[static_cast<size_t>(i)]);
      st.anchors = std::move(sets.subset_anchors[static_cast<size_t>(i)]);
    }
    roots = std::move(sets.roots);
  }

  // Cooperative cancellation across workers once the deadline expires or
  // the external token is observed set.
  std::atomic<bool> cancel{false};

  // Scratch reused from vertex to vertex: the vertex's prices, the radix
  // |C(dependent[k])| of its table, its reduce plan and the calling
  // thread's reduce state. `cur`, back-substitution's configuration index
  // per node, is allocated here, before any table, so it does not pin the
  // heap above them.
  VertexPrices prices;
  std::vector<u32> radix;
  ReducePlan plan;
  ReduceScratch seq;
  std::vector<u32> cur(static_cast<size_t>(n), 0);
  for (i64 i = 0; i < n && !trip; ++i) {
    if (const auto cause = abort_cause(); cause != DpResult::TripCause::kNone) {
      trip.emplace(
          abort_message(cause, "at vertex " + std::to_string(i) + " of " +
                                   std::to_string(n)),
          cause);
      break;
    }
    const NodeId vi = order.seq[static_cast<size_t>(i)];
    const auto& vi_configs = configs.at(vi);
    PositionState& st = states[static_cast<size_t>(i)];
    result.dependent_set_sizes.push_back(
        static_cast<i64>(st.dependent.size()));
    result.max_dependent_set = std::max(
        result.max_dependent_set, static_cast<i64>(st.dependent.size()));

    PhaseScope fill_phase(trace, fill_gauge, "table_fill");
    fill_phase.arg("vertex", i);
    fill_phase.arg("dep_set", static_cast<i64>(st.dependent.size()));

    // Guard against combinatorial blow-up (paper Table I "OOM" outcome).
    double combos = 1.0;
    for (NodeId d : st.dependent)
      combos *= static_cast<double>(configs.at(d).size());
    const double work = combos * static_cast<double>(vi_configs.size());
    if (combos > static_cast<double>(options.max_table_entries)) {
      trip.emplace(
          "substrategy table for vertex " + std::to_string(i) + " needs " +
              fmt_count(combos) + " entries (guard: " +
              std::to_string(options.max_table_entries) + ")",
          DpResult::TripCause::kTableGuard);
      break;
    }
    if (work > static_cast<double>(options.max_combinations)) {
      trip.emplace(
          "vertex " + std::to_string(i) + " needs " + fmt_count(work) +
              " combination evaluations (guard: " +
              std::to_string(options.max_combinations) + ")",
          DpResult::TripCause::kWorkGuard);
      break;
    }
    result.max_combinations_analyzed = std::max(
        result.max_combinations_analyzed, static_cast<u64>(work));

    // The table's layout: the consumer's digit at stride 1, then the rest
    // in node-id order (see PositionState).
    const size_t kd = st.dependent.size();
    radix.resize(kd);
    size_t consumer = 0;
    for (size_t k = 0; k < kd; ++k) {
      radix[k] = static_cast<u32>(configs.at(st.dependent[k]).size());
      if (order.pos[static_cast<size_t>(st.dependent[k])] <
          order.pos[static_cast<size_t>(st.dependent[consumer])])
        consumer = k;
    }
    // The digit at layout rank r (rank 0 has stride 1).
    auto layout_digit = [&](size_t r) {
      return r == 0 ? consumer : r - (r <= consumer);
    };
    st.stride.resize(kd);
    u64 prod = 1;
    for (size_t r = 0; r < kd; ++r) {
      st.stride[layout_digit(r)] = prod;
      prod *= radix[layout_digit(r)];
    }
    PASE_CHECK(static_cast<double>(prod) == combos);
    fill_phase.arg("substrategies", static_cast<i64>(prod));
    fill_phase.arg("configs", static_cast<i64>(vi_configs.size()));
    fill_phase.arg("work", static_cast<i64>(work));
    substrategies_per_vertex.record(static_cast<i64>(prod));
    combinations += static_cast<u64>(work);

    // Pricing can dominate wall time on a single-large-vertex model — it
    // prices |C(v^(i))| + sum_w |C(v^(i))| x |C(w)| entries before the
    // reduce starts — so it carries its own amortized abort check (each
    // time the priced entries cross a multiple of 256; a steady_clock read
    // amortized over that many entries is noise).
    DpResult::TripCause price_cause;
    {
      PhaseScope pricing(trace, pricing_gauge, "pricing");
      price_cause = pricer.price(i, prices, abort_cause);
    }
    if (price_cause != DpResult::TripCause::kNone) {
      trip.emplace(
          abort_message(price_cause,
                        "precomputing costs for vertex " + std::to_string(i)),
          price_cause);
      break;
    }
    // The min-plus reduce, its set-up included. For each (phi, C) it sums
    // 0.0 + t_l, then the later edges in incident order, then the anchors
    // in S(i) order, and keeps the first strict minimum over C in
    // enumeration order. Every slot is written once, from the same terms in
    // the same order, so the table has the same bits however the odometer
    // runs and however the fan-out splits its range.
    const size_t kc = vi_configs.size();
    {
      PhaseScope reduce(trace, reduce_gauge, "reduce");

      // Streams: later edges, then anchors. Every X(j) in S(i) is a
      // component of the connected X(i) - {v^(i)}, so it neighbours v^(i),
      // which comes after it: v^(i) is in D(j). No other member of D(j)
      // comes before v^(i) (it would be in X(i) - {v^(i)}, next to X(j),
      // so in X(j)), so v^(i) is table j's consumer, at stride 1, and phi
      // picks one contiguous column of it.
      const size_t nl = prices.later.size();
      plan.base.clear();
      for (const VertexPrices::LaterEdge& le : prices.later) {
        PASE_CHECK(std::binary_search(st.dependent.begin(),
                                      st.dependent.end(), le.other));
        plan.base.push_back(le.matrix);
      }
      for (i64 j : st.anchors) {
        const PositionState& sj = states[static_cast<size_t>(j)];
        const auto& dj = sj.dependent;
        const auto at = std::lower_bound(dj.begin(), dj.end(), vi);
        PASE_CHECK(at != dj.end() && *at == vi &&
                   sj.stride[static_cast<size_t>(at - dj.begin())] == 1);
        // Theory: D(j) is a subset of D(i) U {v^(i)} for X(j) in S(i).
        for (NodeId d : dj)
          PASE_CHECK(d == vi || std::binary_search(st.dependent.begin(),
                                                   st.dependent.end(), d));
        plan.base.push_back(sj.cost.get());
      }
      const size_t ns = plan.base.size();
      const size_t nw = ns + 1;  // the streams and the output slot
      // Stream s's offset step for D(i)'s digit k; 0 if s does not read it.
      auto stride_of = [&](size_t s, size_t k) -> u64 {
        const NodeId d = st.dependent[k];
        if (s == ns) return st.stride[k];
        if (s < nl) return prices.later[s].other == d ? kc : 0;
        const PositionState& sj =
            states[static_cast<size_t>(st.anchors[s - nl])];
        const auto at =
            std::lower_bound(sj.dependent.begin(), sj.dependent.end(), d);
        return at != sj.dependent.end() && *at == d
                   ? sj.stride[static_cast<size_t>(at - sj.dependent.begin())]
                   : 0;
      };

      // The innermost digit is the one whose first dependent stream comes
      // last, leaving the longest prefix to hoist; ties go to the larger
      // radix (fewer blocks). The other digits follow in the table's own
      // layout order. A vertex with an empty D(i) runs one digit of radix
      // 1 that no stream reads.
      size_t inner = 0;
      plan.split = ns;
      for (size_t k = 0; k < kd; ++k) {
        size_t s = 0;
        while (s < ns && stride_of(s, k) == 0) ++s;
        if (k == 0 || s > plan.split ||
            (s == plan.split && radix[k] > radix[inner])) {
          inner = k;
          plan.split = s;
        }
      }
      const size_t nd = std::max<size_t>(kd, 1);
      plan.radix.assign(nd, 1);
      plan.step.assign(nd * nw, 0);
      size_t m = 0;
      auto add_digit = [&](size_t k) {
        plan.radix[m] = radix[k];
        for (size_t s = 0; s < nw; ++s) plan.step[m * nw + s] = stride_of(s, k);
        ++m;
      };
      if (kd > 0) add_digit(inner);
      for (size_t r = 0; r < kd; ++r)
        if (const size_t k = layout_digit(r); k != inner) add_digit(k);
      plan.carry.assign(nd * nw, 0);
      for (size_t s = 0; s < nw; ++s) {
        u64 wrapped = plan.radix[0] * plan.step[s];
        for (size_t d = 1; d < nd; ++d) {
          plan.carry[d * nw + s] = plan.step[d * nw + s] - wrapped;
          wrapped += (plan.radix[d] - 1) * plan.step[d * nw + s];
        }
      }

      // Uninitialized: the reduce writes every slot exactly once.
      st.size = prod;
      st.cost = std::make_unique_for_overwrite<double[]>(prod);
      st.argmin = std::make_unique_for_overwrite<u32[]>(prod);
      table_bytes += prod * (sizeof(double) + sizeof(u32));
      table_bytes_peak = std::max(table_bytes_peak, table_bytes);

      // The reduce over the odometer range [p0, p1). Each block of the
      // innermost digit adds the prefix once; each phi adds the remaining
      // streams' columns to it, scans the sum and writes its slot; then
      // every offset moves by one add. `s` is the caller's scratch, one per
      // worker in the parallel fan-out, so workers share no mutable state.
      const double* const layer = prices.layer;
      double* const cost_out = st.cost.get();
      u32* const argmin_out = st.argmin.get();
      auto process_range = [&](u64 p0, u64 p1, ReduceScratch& s) {
        const size_t split = plan.split;
        const double* const* const base = plan.base.data();
        const u64* const step0 = plan.step.data();
        s.odo.resize(nd);
        s.off.assign(nw, 0);
        s.pre.resize(kc);
        s.acc.resize(kc);
        u32* const odo = s.odo.data();
        u64* const off = s.off.data();
        double* const pre = s.pre.data();
        double* const acc = s.acc.data();
        u64 rest = p0;
        for (size_t d = 0; d < nd; ++d) {
          odo[d] = static_cast<u32>(rest % plan.radix[d]);
          rest /= plan.radix[d];
          for (size_t w = 0; w < nw; ++w)
            off[w] += u64{odo[d]} * plan.step[d * nw + w];
        }
        // Amortized abort check every ~8k *combinations* — counting phi
        // indices would let a vertex with few substrategies but a huge
        // configuration set blow far past the deadline between checks.
        u64 combos_since_check = 0;
        u64 idx = p0;
        u64 left_in_block = plan.radix[0] - odo[0];
        for (;;) {
          // 0.0 + t_l, not t_l: the sum starts at +0.0, so a -0.0 price
          // enters it as +0.0. A chunk may start mid-block, so the prefix
          // is also formed at its first phi.
          for (size_t ci = 0; ci < kc; ++ci) pre[ci] = 0.0 + layer[ci];
          for (size_t w = 0; w < split; ++w) {
            const double* const col = base[w] + off[w];
            for (size_t ci = 0; ci < kc; ++ci) pre[ci] += col[ci];
          }
          for (const u64 end = std::min(p1, idx + left_in_block); idx < end;
               ++idx) {
            combos_since_check += kc;
            if (combos_since_check >= 8192) {
              combos_since_check = 0;
              if (cancel.load(std::memory_order_relaxed)) return;
              if (abort_cause() != DpResult::TripCause::kNone) {
                cancel.store(true, std::memory_order_relaxed);
                return;
              }
            }

            const double* sum = pre;
            if (split < ns) {
              const double* col = base[split] + off[split];
              for (size_t ci = 0; ci < kc; ++ci) acc[ci] = pre[ci] + col[ci];
              for (size_t w = split + 1; w < ns; ++w) {
                col = base[w] + off[w];
                for (size_t ci = 0; ci < kc; ++ci) acc[ci] += col[ci];
              }
              sum = acc;
            }
            double best = std::numeric_limits<double>::infinity();
            u32 arg = 0;
            for (size_t ci = 0; ci < kc; ++ci)
              if (sum[ci] < best) {
                best = sum[ci];
                arg = static_cast<u32>(ci);
              }
            cost_out[off[ns]] = best;
            argmin_out[off[ns]] = arg;
            // The prefix streams do not read digit 0: their steps are 0.
            for (size_t w = split; w < nw; ++w) off[w] += step0[w];
          }
          if (idx == p1) return;
          // Digit 0 ran its block: carry into the next digit that does not
          // wrap (one exists, as idx < p1 <= the table size).
          size_t d = 1;
          while (++odo[d] == plan.radix[d]) odo[d++] = 0;
          for (size_t w = 0; w < nw; ++w) off[w] += plan.carry[d * nw + w];
          left_in_block = plan.radix[0];
        }
      };

      if (pool && prod > 1 &&
          static_cast<u64>(work) >= kParallelWorkThreshold) {
        // Chunk the phi range by index only — the decomposition (and hence
        // every table entry) is independent of scheduling and thread count.
        const i64 grain = std::max<i64>(
            64, ceil_div(static_cast<i64>(prod), threads * 8));
        pool->parallel_for(
            0, static_cast<i64>(prod), grain,
            [&](i64 b0, i64 b1) {
              ReduceScratch s;
              process_range(static_cast<u64>(b0), static_cast<u64>(b1), s);
            },
            &cancel);
      } else {
        process_range(0, prod, seq);
      }
    }
    if (cancel.load(std::memory_order_relaxed)) {
      // Classify after the fact: the external token stays set and an
      // expired deadline stays expired, so the cause is still observable.
      auto cause = abort_cause();
      if (cause == DpResult::TripCause::kNone)
        cause = DpResult::TripCause::kDeadline;
      trip.emplace(
          abort_message(cause, "enumerating substrategies of vertex " +
                                   std::to_string(i)),
          cause);
      break;
    }

    // The anchors' costs have had their one reader. Released here, after
    // the fan-out has joined, so no worker can still be reading them.
    for (i64 j : st.anchors) {
      PositionState& sj = states[static_cast<size_t>(j)];
      table_bytes -= sj.size * sizeof(double);
      sj.cost.reset();
    }
  }

  // Guard/deadline/cancellation trips either abort the exact DP
  // (kOutOfMemory, the paper Table I outcome) or degrade gracefully to the
  // beam-search fallback — which itself honors the external cancel token,
  // so a watchdog kill cannot be stalled by the fallback either. The
  // tripped vertex's scopes are closed by now, so the fallback's time is
  // not also counted as table fill.
  if (trip) {
    result.guard_reason = std::move(trip->first);
    result.trip_cause = trip->second;
    std::vector<PositionState>().swap(states);  // the fallback reads no table
    bool fallback_ok = false;
    if (options.degraded_fallback) {
      PhaseScope phase(trace, metrics, "beam_fallback",
                       "dp.phase.beam_fallback_seconds");
      const double budget =
          trip->second == DpResult::TripCause::kDeadline
              ? kFallbackDeadlineShare * options.deadline_seconds
              : 0.0;
      fallback_ok = beam_search_fallback(graph, order, configs, cost, pricer,
                                         options.beam_width, budget,
                                         options.cancel, result);
      phase.arg("width", result.beam_width_used);
    }
    if (fallback_ok) {
      result.status = DpStatus::kDegraded;
    } else {
      result.status = DpStatus::kOutOfMemory;
      if (options.degraded_fallback) {
        result.guard_reason += "; beam fallback cancelled";
        result.trip_cause = DpResult::TripCause::kCancelled;
      }
    }
    result.elapsed_seconds = timer.elapsed_seconds();
    record_metrics();
    return result;
  }

  // For a weakly connected graph the last vertex covers everything:
  // R(|V|, {}) is the optimum. For a disconnected graph (pipeline-stage
  // subgraphs), each weakly connected component is covered by its own
  // maximum-position vertex, whose dependent set is empty; costs add and
  // back-substitution runs per component root, in descending position.
  {
    PhaseScope phase(trace, metrics, "back_substitution",
                     "dp.phase.back_substitution_seconds");
    phase.arg("roots", static_cast<i64>(roots.size()));

    result.best_cost = 0.0;
    result.strategy.assign(static_cast<size_t>(n), Config{});
    for (i64 root : roots) {
      const PositionState& st = states[static_cast<size_t>(root)];
      PASE_CHECK(st.dependent.empty());
      PASE_CHECK(st.size == 1 && st.cost);
      result.best_cost += st.cost[0];
      // Back-substitution (paper: "a simple back-substitution, starting from
      // v^(|V|).cfg, provides the best strategy").
      extract(states, order, configs, root, cur, result.strategy);
    }
    for (const Config& c : result.strategy)
      PASE_CHECK_MSG(c.rank() > 0, "extraction must assign every node");
  }
  if (metrics)
    metrics->add_counter("dp.roots", static_cast<u64>(roots.size()));

  result.elapsed_seconds = timer.elapsed_seconds();
  record_metrics();
  return result;
}

}  // namespace pase
