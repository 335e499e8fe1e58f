#include "core/dp_solver.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <tuple>

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

/// DP table entry: minimum cost R(i, phi) and the arg-min configuration of
/// v^(i) for back-substitution.
struct Entry {
  double cost = 0.0;
  u32 cfg = 0;
};

/// Compact number rendering for guard-reason diagnostics.
std::string fmt_count(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

/// Per-position DP state kept alive for anchor lookups and extraction.
///
/// The substrategy table R(i, .) is a dense vector indexed by the
/// mixed-radix rank of phi: dependent[0] is the fastest-varying digit
/// (stride 1), matching the odometer enumeration order, so an entry's index
/// is sum_k cur_idx[dependent[k]] * stride[k]. Dense indexing replaces the
/// seed's hash-map tables: every phi in the cross product is materialized
/// anyway, and a rank computation is cheaper than hashing a key vector —
/// and it gives each parallel worker a distinct, pre-sized slot to write,
/// which is what makes the threaded fan-out race-free and deterministic.
struct PositionState {
  std::vector<NodeId> dependent;  ///< D(i), sorted by node id
  std::vector<i64> anchors;       ///< S(i) anchor positions
  std::vector<u32> radix;         ///< |C(dependent[k])|
  std::vector<u64> stride;        ///< mixed-radix strides, stride[0] = 1
  std::vector<Entry> table;       ///< size = prod(radix)

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
    PASE_CHECK_MSG(idx < st.table.size(),
                   "missing DP entry during extraction");
    cur_idx[static_cast<size_t>(vi)] = st.table[idx].cfg;
    out[static_cast<size_t>(vi)] = configs.at(vi)[st.table[idx].cfg];
    // Reversed, so the first anchor is popped (and its subtree finished)
    // first, exactly as the recursion would visit them.
    pending.insert(pending.end(), st.anchors.rbegin(), st.anchors.rend());
  }
}

/// The H term's prices for one vertex v^(i) of recurrence (4): t_l(v^(i), C)
/// for every C in C(v^(i)), and r * t_x of each later edge (in incident
/// order) as a matrix laid out [cw][ci], so the reduce for one phi reads one
/// contiguous column per edge.
struct VertexPrices {
  struct LaterEdge {
    NodeId other;  ///< w, the later endpoint (a member of D(i))
    std::shared_ptr<const std::vector<double>>
        matrix;  ///< [cw * |C(v^(i))| + ci]
  };
  std::shared_ptr<const std::vector<double>> layer;  ///< [ci]
  std::vector<LaterEdge> later;
};

/// Prices vertices for the DP and its beam fallback, once per structural
/// class. Same-class vertices (LayerClasses) share their t_l vector; an edge
/// shares its prices with every edge of the same (edge class, orientation,
/// node class of v^(i), node class of w). Equal classes imply equal costs
/// for equal configurations, and the actual configuration LISTS are
/// compared before an entry is reused (a ConfigOptions filter could in
/// principle admit different lists for same-class nodes; the entry is then
/// re-priced and replaced), so a shared price is bit-identical to a fresh
/// one. Each node's list is compared once, against its class's distinct
/// lists, so a reuse check is an id comparison. The DP prices on the
/// calling thread before the parallel fan-out, so the hit counts are
/// identical at any thread count.
class VertexPricer {
 public:
  /// r * t_x of one edge between v^(i) and an EARLIER neighbour w, as the
  /// beam fallback reads it: one row [ci] over C(v^(i)) per configuration
  /// of w, each priced the first time it is asked for.
  class EdgeRows {
   public:
    EdgeRows(const CostModel& cost, const Edge& edge, bool vi_is_src,
             const std::vector<Config>& vi_configs,
             const std::vector<Config>& w_configs)
        : cost_(cost),
          edge_(edge),
          vi_is_src_(vi_is_src),
          vi_configs_(vi_configs),
          w_configs_(w_configs),
          rows_(w_configs.size()) {}

    /// The row for w in configuration cw. It stays valid while the
    /// EdgeRows lives: pricing another row moves no row already returned.
    const double* row(u32 cw) {
      std::vector<double>& r = rows_[cw];
      if (r.empty()) {
        r.resize(vi_configs_.size());
        for (size_t ci = 0; ci < r.size(); ++ci)
          r[ci] = vi_is_src_
                      ? cost_.edge_cost(edge_, vi_configs_[ci], w_configs_[cw])
                      : cost_.edge_cost(edge_, w_configs_[cw], vi_configs_[ci]);
      }
      return r.data();
    }

   private:
    const CostModel& cost_;
    const Edge& edge_;
    const bool vi_is_src_;
    const std::vector<Config>& vi_configs_;
    const std::vector<Config>& w_configs_;
    std::vector<std::vector<double>> rows_;  ///< by cw; empty = not priced
  };

  VertexPricer(const Graph& graph, const Ordering& order,
               const ConfigCache& configs, const CostModel& cost)
      : graph_(graph),
        order_(order),
        configs_(configs),
        cost_(cost),
        classes_(graph),
        node_entries_(static_cast<size_t>(classes_.num_node_classes())),
        list_ids_(static_cast<size_t>(graph.num_nodes()), kInvalidNode),
        class_lists_(static_cast<size_t>(classes_.num_node_classes())) {}

  /// t_l(v, C) for every C in C(v), into `out`. `poll` is called every 256
  /// cost evaluations and returns kNone to continue; any other cause stops
  /// the pricing and is returned.
  template <class Poll>
  DpResult::TripCause layer(NodeId v,
                            std::shared_ptr<const std::vector<double>>& out,
                            Poll&& poll) {
    const auto& v_configs = configs_.at(v);
    ClassPrices& entry = node_entries_[classes_.node_class(v)];
    if (entry.rep_vi != kInvalidNode && list_id(entry.rep_vi) == list_id(v)) {
      ++node_hits_;
    } else {
      auto layer = std::make_shared<std::vector<double>>(v_configs.size());
      for (size_t c = 0; c < v_configs.size(); ++c) {
        if (const auto cause = tick(poll); cause != DpResult::TripCause::kNone)
          return cause;
        (*layer)[c] = cost_.node_cost(v, v_configs[c]);
      }
      entry = {v, kInvalidNode, std::move(layer)};
    }
    out = entry.prices;
    return DpResult::TripCause::kNone;
  }

  /// Fills `out` for the vertex at sequence position i; `poll` as in
  /// layer().
  template <class Poll>
  DpResult::TripCause price(i64 i, VertexPrices& out, Poll&& poll) {
    const NodeId vi = order_.seq[static_cast<size_t>(i)];
    const auto& vi_configs = configs_.at(vi);
    const size_t kc = vi_configs.size();
    if (const auto cause = layer(vi, out.layer, poll);
        cause != DpResult::TripCause::kNone)
      return cause;

    out.later.clear();
    for (EdgeId eid : graph_.incident_edges(vi)) {
      const Edge& e = graph_.edge(eid);
      const NodeId w = e.src == vi ? e.dst : e.src;
      if (order_.pos[static_cast<size_t>(w)] <= i) continue;
      const auto& w_configs = configs_.at(w);
      const bool vi_is_src = e.src == vi;
      ClassPrices& edge_entry = edge_entries_[edge_key(eid, vi, w)];
      if (serves(edge_entry.rep_vi, edge_entry.rep_w, vi, w)) {
        ++edge_hits_;
      } else {
        auto matrix = std::make_shared<std::vector<double>>(kc *
                                                            w_configs.size());
        for (size_t cw = 0; cw < w_configs.size(); ++cw)
          for (size_t ci = 0; ci < kc; ++ci) {
            if (const auto cause = tick(poll);
                cause != DpResult::TripCause::kNone)
              return cause;
            const Config& src = vi_is_src ? vi_configs[ci] : w_configs[cw];
            const Config& dst = vi_is_src ? w_configs[cw] : vi_configs[ci];
            (*matrix)[cw * kc + ci] = cost_.edge_cost(e, src, dst);
          }
        edge_entry = {vi, w, std::move(matrix)};
      }
      out.later.push_back({w, edge_entry.prices});
    }
    return DpResult::TripCause::kNone;
  }

  /// The rows of edge `eid` from v^(i) = `vi` to its earlier endpoint,
  /// shared by every edge of the same key whose endpoints have the same
  /// configuration lists.
  std::shared_ptr<EdgeRows> earlier_edge_rows(EdgeId eid, NodeId vi) {
    const Edge& e = graph_.edge(eid);
    const NodeId w = e.src == vi ? e.dst : e.src;
    RowEntry& entry = row_entries_[edge_key(eid, vi, w)];
    if (serves(entry.rep_vi, entry.rep_w, vi, w)) {
      ++edge_hits_;
    } else {
      entry = {vi, w,
               std::make_shared<EdgeRows>(cost_, e, e.src == vi,
                                          configs_.at(vi), configs_.at(w))};
    }
    return entry.rows;
  }

  u64 node_hits() const { return node_hits_; }
  u64 edge_hits() const { return edge_hits_; }

 private:
  /// One shared price vector or matrix and the vertices it was priced for.
  struct ClassPrices {
    NodeId rep_vi = kInvalidNode;
    NodeId rep_w = kInvalidNode;
    std::shared_ptr<const std::vector<double>> prices;
  };
  struct RowEntry {
    NodeId rep_vi = kInvalidNode;
    NodeId rep_w = kInvalidNode;
    std::shared_ptr<EdgeRows> rows;
  };
  using EdgeKey = std::tuple<u32, bool, u32, u32>;

  EdgeKey edge_key(EdgeId eid, NodeId vi, NodeId w) const {
    return {classes_.edge_class(eid), graph_.edge(eid).src == vi,
            classes_.node_class(vi), classes_.node_class(w)};
  }

  /// Whether an edge entry priced for (rep_vi, rep_w) serves (vi, w): the
  /// key matched the classes, this checks the configuration lists.
  bool serves(NodeId rep_vi, NodeId rep_w, NodeId vi, NodeId w) {
    return rep_vi != kInvalidNode && list_id(rep_vi) == list_id(vi) &&
           list_id(rep_w) == list_id(w);
  }

  /// The first node of v's class, in the order asked, whose configuration
  /// list equals v's: two same-class nodes have equal lists iff their ids
  /// match.
  NodeId list_id(NodeId v) {
    NodeId& id = list_ids_[static_cast<size_t>(v)];
    if (id == kInvalidNode) {
      std::vector<NodeId>& lists = class_lists_[classes_.node_class(v)];
      for (NodeId u : lists)
        if (configs_.at(u) == configs_.at(v)) {
          id = u;
          break;
        }
      if (id == kInvalidNode) {
        id = v;
        lists.push_back(v);
      }
    }
    return id;
  }

  /// Calls `poll` on every 256th cost evaluation.
  template <class Poll>
  DpResult::TripCause tick(Poll& poll) {
    return (++ticks_ & 255u) == 0 ? poll() : DpResult::TripCause::kNone;
  }

  const Graph& graph_;
  const Ordering& order_;
  const ConfigCache& configs_;
  const CostModel& cost_;
  const LayerClasses classes_;
  std::vector<ClassPrices> node_entries_;  ///< by node class
  std::map<EdgeKey, ClassPrices> edge_entries_;
  std::map<EdgeKey, RowEntry> row_entries_;
  std::vector<NodeId> list_ids_;  ///< by node, kInvalidNode until asked
  std::vector<std::vector<NodeId>> class_lists_;  ///< distinct, by class
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
/// Every price is read, not recomputed per candidate: t_l from the DP's
/// VertexPricer, t_x as one row per (edge, configuration of its placed
/// endpoint), priced the first time a kept state holds that configuration.
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
    std::shared_ptr<VertexPricer::EdgeRows> rows;
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
    std::shared_ptr<const std::vector<double>> layer_prices;
    if (pricer.layer(vi, layer_prices, poll) != DpResult::TripCause::kNone)
      return false;
    const double* const layer = layer_prices->data();

    earlier.clear();
    for (EdgeId eid : graph.incident_edges(vi)) {
      const Edge& e = graph.edge(eid);
      const NodeId w = e.src == vi ? e.dst : e.src;
      if (pos(w) < i)
        earlier.push_back({slot_of[static_cast<size_t>(w)],
                           pricer.earlier_edge_rows(eid, vi)});
    }

    const size_t beam = beam_cost.size();
    const size_t nf = frontier.size();
    PASE_CHECK(beam * kc <= std::numeric_limits<u32>::max());
    scores.resize(beam * kc);
    for (size_t s = 0; s < beam; ++s) {
      double* const acc = scores.data() + s * kc;
      for (size_t ci = 0; ci < kc; ++ci) acc[ci] = beam_cost[s] + layer[ci];
      for (const EarlierEdge& ee : earlier) {
        const double* const row =
            ee.rows->row(front[s * nf + static_cast<size_t>(ee.slot)]);
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
  const CostModel cost(graph, options.cost_params);
  VertexPricer pricer(graph, order, configs, cost);

  // Final metrics flush, shared by every exit path. Counters/histograms
  // recorded here are structural — pure functions of (graph, options minus
  // num_threads) — while anything wall-clock or scheduling dependent goes
  // into gauges (see src/obs/metrics.h).
  auto record_metrics = [&] {
    if (!metrics) return;
    metrics->add_counter("dp.solves", 1);
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
  std::vector<u32> cur_idx(static_cast<size_t>(n), 0);

  // Cooperative cancellation across workers once the deadline expires or
  // the external token is observed set.
  std::atomic<bool> cancel{false};

  VertexPrices prices;
  std::vector<double> acc_seq;  // the calling thread's reduce accumulator
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
    if (metrics)
      metrics->record("dp.dep_set_size",
                      static_cast<i64>(st.dependent.size()));

    PhaseScope fill_phase(trace, metrics, "table_fill",
                          "dp.phase.table_fill_seconds");
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

    st.radix.resize(st.dependent.size());
    st.stride.resize(st.dependent.size());
    u64 prod = 1;
    for (size_t k = 0; k < st.dependent.size(); ++k) {
      st.radix[k] =
          static_cast<u32>(configs.at(st.dependent[k]).size());
      st.stride[k] = prod;
      prod *= st.radix[k];
    }
    PASE_CHECK(static_cast<double>(prod) == combos);
    fill_phase.arg("substrategies", static_cast<i64>(prod));
    fill_phase.arg("configs", static_cast<i64>(vi_configs.size()));
    fill_phase.arg("work", static_cast<i64>(work));
    if (metrics) {
      metrics->add_counter("dp.substrategies", prod);
      metrics->add_counter("dp.combinations", static_cast<u64>(work));
      metrics->record("dp.substrategies_per_vertex", static_cast<i64>(prod));
    }

    // Pricing can dominate wall time on a single-large-vertex model — it
    // makes |C(v^(i))| + sum_w |C(v^(i))| x |C(w)| cost-model calls before
    // the reduce starts — so it carries its own amortized abort check
    // (every 256 cost calls; a steady_clock read amortized over 256 cost
    // evaluations is noise).
    DpResult::TripCause price_cause;
    {
      PhaseScope pricing(trace, metrics, "pricing",
                         "dp.phase.pricing_seconds");
      price_cause = pricer.price(i, prices, abort_cause);
    }
    if (price_cause != DpResult::TripCause::kNone) {
      trip.emplace(
          abort_message(price_cause,
                        "precomputing costs for vertex " + std::to_string(i)),
          price_cause);
      break;
    }
    PASE_CHECK(std::all_of(
        prices.later.begin(), prices.later.end(),
        [&](const VertexPrices::LaterEdge& le) {
          return std::binary_search(st.dependent.begin(), st.dependent.end(),
                                    le.other);
        }));

    // Anchors whose D(j) contains v^(i) are read once per C; the rest
    // depend only on phi and are summed into the per-phi base. An inner
    // anchor's entry for (phi, C) sits at its index with v^(i)'s digit left
    // out, plus C x (v^(i)'s stride in its table).
    struct InnerAnchor {
      const PositionState* state;
      u64 vi_stride;
    };
    std::vector<const PositionState*> anchors_outer;
    std::vector<InnerAnchor> anchors_inner;
    for (i64 j : st.anchors) {
      const PositionState& sj = states[static_cast<size_t>(j)];
      const auto& dj = sj.dependent;
      const auto at = std::lower_bound(dj.begin(), dj.end(), vi);
      if (at != dj.end() && *at == vi)
        anchors_inner.push_back(
            {&sj, sj.stride[static_cast<size_t>(at - dj.begin())]});
      else
        anchors_outer.push_back(&sj);
      // Theory: D(j) is a subset of D(i) U {v^(i)} for X(j) in S(i).
      for (NodeId d : dj)
        PASE_CHECK(d == vi || std::binary_search(st.dependent.begin(),
                                                 st.dependent.end(), d));
    }

    st.table.resize(static_cast<size_t>(prod));

    // The min-plus reduce over the phi linear-index range [p0, p1): for
    // each phi it accumulates H + sum R into a |C(v^(i))| array, then scans
    // it for the first strict minimum and writes that Entry to phi's own
    // table slot. Every C's sum is added in a fixed order — base (the outer
    // anchors), t_l, later edges in incident order, inner anchors in S(i)
    // order — so the table is bit-identical however the range is split.
    // `cur` (config index per node) and `acc` are the caller's scratch, one
    // per worker in the parallel fan-out, so workers share no mutable state.
    const size_t kc = vi_configs.size();
    const double* const layer = prices.layer->data();
    auto process_range = [&](u64 p0, u64 p1, std::vector<u32>& cur,
                             std::vector<double>& acc_storage) {
      const size_t kd = st.dependent.size();
      std::vector<u32> odo(kd);
      for (size_t k = 0; k < kd; ++k) {
        odo[k] = static_cast<u32>((p0 / st.stride[k]) % st.radix[k]);
        cur[static_cast<size_t>(st.dependent[k])] = odo[k];
      }
      // The inner anchors' lookups below leave v^(i)'s digit out.
      cur[static_cast<size_t>(vi)] = 0;
      acc_storage.resize(kc);
      double* const acc = acc_storage.data();
      // Amortized abort check every ~8k *combinations* — counting phi
      // indices would let a vertex with few substrategies but a huge
      // configuration set blow far past the deadline between checks.
      u64 combos_since_check = 0;
      for (u64 idx = p0; idx < p1; ++idx) {
        combos_since_check += kc;
        if (combos_since_check >= 8192) {
          combos_since_check = 0;
          if (cancel.load(std::memory_order_relaxed)) return;
          if (abort_cause() != DpResult::TripCause::kNone) {
            cancel.store(true, std::memory_order_relaxed);
            return;
          }
        }

        double base = 0.0;
        for (const PositionState* sj : anchors_outer)
          base += sj->table[sj->index_of(cur)].cost;
        for (size_t ci = 0; ci < kc; ++ci) acc[ci] = base + layer[ci];
        for (const VertexPrices::LaterEdge& le : prices.later) {
          const double* const col =
              le.matrix->data() +
              static_cast<size_t>(cur[static_cast<size_t>(le.other)]) * kc;
          for (size_t ci = 0; ci < kc; ++ci) acc[ci] += col[ci];
        }
        for (const InnerAnchor& a : anchors_inner) {
          const Entry* const column =
              a.state->table.data() + a.state->index_of(cur);
          for (size_t ci = 0; ci < kc; ++ci)
            acc[ci] += column[ci * a.vi_stride].cost;
        }
        Entry best{std::numeric_limits<double>::infinity(), 0};
        for (size_t ci = 0; ci < kc; ++ci)
          if (acc[ci] < best.cost) best = Entry{acc[ci], static_cast<u32>(ci)};
        st.table[idx] = best;

        // Advance the odometer (digit k = dependent[k], stride order).
        for (size_t k = 0; k < kd; ++k) {
          if (++odo[k] < st.radix[k]) {
            cur[static_cast<size_t>(st.dependent[k])] = odo[k];
            break;
          }
          odo[k] = 0;
          cur[static_cast<size_t>(st.dependent[k])] = 0;
        }
      }
    };

    {
      PhaseScope reduce(trace, metrics, "reduce", "dp.phase.reduce_seconds");
      if (pool && prod > 1 &&
          static_cast<u64>(work) >= kParallelWorkThreshold) {
        // Chunk the phi range by index only — the decomposition (and hence
        // every table entry) is independent of scheduling and thread count.
        const i64 grain = std::max<i64>(
            64, ceil_div(static_cast<i64>(prod), threads * 8));
        pool->parallel_for(
            0, static_cast<i64>(prod), grain,
            [&](i64 b0, i64 b1) {
              std::vector<u32> cur(static_cast<size_t>(n), 0);
              std::vector<double> acc;
              process_range(static_cast<u64>(b0), static_cast<u64>(b1), cur,
                            acc);
            },
            &cancel);
      } else {
        process_range(0, prod, cur_idx, acc_seq);
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
    std::fill(cur_idx.begin(), cur_idx.end(), 0);
    for (i64 root : roots) {
      const PositionState& st = states[static_cast<size_t>(root)];
      PASE_CHECK(st.dependent.empty());
      PASE_CHECK(st.table.size() == 1);
      result.best_cost += st.table[0].cost;
      // Back-substitution (paper: "a simple back-substitution, starting from
      // v^(|V|).cfg, provides the best strategy").
      extract(states, order, configs, root, cur_idx, result.strategy);
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
