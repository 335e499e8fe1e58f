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

/// Graceful-degradation fallback: a deterministic beam search over the same
/// vertex ordering. A beam state is a configuration choice for every
/// sequenced-so-far vertex; placing v^(i) adds its node cost plus the cost
/// of every incident edge whose other endpoint is already sequenced (each
/// edge is counted exactly once, when its later endpoint is placed, so a
/// completed state's accumulated cost is exactly Eq. (1)). Work is bounded
/// by beam_width * K per vertex — no substrategy tables, no blow-up.
///
/// Honors an external cancellation token (`cancel`, may be null): a serving
/// watchdog that kills a runaway solve must not then wait for the fallback.
/// Returns false (result.strategy untouched) when cancelled before
/// completing; a deadline expiry alone never aborts the fallback, since the
/// beam is the bounded answer *to* the expiry.
bool beam_search_fallback(const Graph& graph, const Ordering& order,
                          const ConfigCache& configs, const CostModel& cost,
                          i64 beam_width, const std::atomic<bool>* cancel,
                          DpResult& result) {
  PASE_CHECK(beam_width >= 1);
  const i64 n = graph.num_nodes();

  struct State {
    double cost = 0.0;
    std::vector<u32> cfg;  ///< per node id; meaningful for placed nodes
  };
  std::vector<State> beam(1);
  beam[0].cfg.assign(static_cast<size_t>(n), 0);

  struct Candidate {
    double cost;
    u32 state;
    u32 ci;
  };
  std::vector<Candidate> candidates;

  for (i64 i = 0; i < n; ++i) {
    if (cancel && cancel->load(std::memory_order_relaxed)) return false;
    const NodeId vi = order.seq[static_cast<size_t>(i)];
    const auto& vi_configs = configs.at(vi);

    // Incident edges whose other endpoint is already placed.
    struct EarlierEdge {
      const Edge* edge;
      NodeId other;
    };
    std::vector<EarlierEdge> earlier;
    for (EdgeId eid : graph.incident_edges(vi)) {
      const Edge& e = graph.edge(eid);
      const NodeId w = e.src == vi ? e.dst : e.src;
      if (order.pos[static_cast<size_t>(w)] < i) earlier.push_back({&e, w});
    }

    candidates.clear();
    for (size_t s = 0; s < beam.size(); ++s) {
      for (size_t ci = 0; ci < vi_configs.size(); ++ci) {
        double c = beam[s].cost + cost.node_cost(vi, vi_configs[ci]);
        for (const EarlierEdge& ee : earlier) {
          const Config& other_cfg =
              configs.at(ee.other)[beam[s].cfg[static_cast<size_t>(ee.other)]];
          const Config& src =
              ee.edge->src == vi ? vi_configs[ci] : other_cfg;
          const Config& dst =
              ee.edge->src == vi ? other_cfg : vi_configs[ci];
          c += cost.edge_cost(*ee.edge, src, dst);
        }
        candidates.push_back(
            {c, static_cast<u32>(s), static_cast<u32>(ci)});
      }
    }

    const size_t keep =
        std::min(static_cast<size_t>(beam_width), candidates.size());
    // Deterministic: ties broken by parent-state rank, then config order.
    std::partial_sort(candidates.begin(), candidates.begin() + keep,
                      candidates.end(),
                      [](const Candidate& a, const Candidate& b) {
                        if (a.cost != b.cost) return a.cost < b.cost;
                        if (a.state != b.state) return a.state < b.state;
                        return a.ci < b.ci;
                      });
    std::vector<State> next(keep);
    for (size_t k = 0; k < keep; ++k) {
      next[k].cost = candidates[k].cost;
      next[k].cfg = beam[candidates[k].state].cfg;
      next[k].cfg[static_cast<size_t>(vi)] = candidates[k].ci;
    }
    beam = std::move(next);
  }

  const State& best = beam.front();  // sorted: front is the minimum
  result.strategy.assign(static_cast<size_t>(n), Config{});
  for (NodeId v = 0; v < n; ++v)
    result.strategy[static_cast<size_t>(v)] =
        configs.at(v)[best.cfg[static_cast<size_t>(v)]];
  // Report the authoritative Eq. (1) evaluation of the extracted strategy
  // (equal to best.cost up to floating-point association).
  result.best_cost = cost.total_cost(result.strategy);
  return true;
}

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

/// Prices vertices for the DP, once per structural class. Same-class
/// vertices (LayerClasses) share their t_l vector; a later edge shares its
/// matrix with every edge of the same (edge class, orientation, node class
/// of v^(i), node class of w). Equal classes imply equal costs for equal
/// configurations, and the actual configuration LISTS are compared before
/// an entry is reused (a ConfigOptions filter could in principle admit
/// different lists for same-class nodes; the entry is then re-priced and
/// replaced), so a shared price is bit-identical to a fresh one. The DP
/// prices on the calling thread before the parallel fan-out, so the hit
/// counts are identical at any thread count.
class VertexPricer {
 public:
  VertexPricer(const Graph& graph, const Ordering& order,
               const ConfigCache& configs, const CostModel& cost)
      : graph_(graph),
        order_(order),
        configs_(configs),
        cost_(cost),
        classes_(graph),
        node_entries_(static_cast<size_t>(classes_.num_node_classes())) {}

  /// Fills `out` for the vertex at sequence position i. `poll` is called
  /// every 256 cost evaluations and returns kNone to continue; any other
  /// cause stops the pricing and is returned.
  template <class Poll>
  DpResult::TripCause price(i64 i, VertexPrices& out, Poll&& poll) {
    const NodeId vi = order_.seq[static_cast<size_t>(i)];
    const auto& vi_configs = configs_.at(vi);
    const size_t kc = vi_configs.size();
    u64 tick = 0;
    auto poll_due = [&] { return (++tick & 255u) == 0; };

    ClassPrices& node_entry = node_entries_[classes_.node_class(vi)];
    if (node_entry.rep_vi != kInvalidNode &&
        configs_.at(node_entry.rep_vi) == vi_configs) {
      ++node_hits_;
    } else {
      auto layer = std::make_shared<std::vector<double>>(kc);
      for (size_t c = 0; c < kc; ++c) {
        if (poll_due())
          if (const auto cause = poll(); cause != DpResult::TripCause::kNone)
            return cause;
        (*layer)[c] = cost_.node_cost(vi, vi_configs[c]);
      }
      node_entry = {vi, kInvalidNode, std::move(layer)};
    }
    out.layer = node_entry.prices;

    out.later.clear();
    for (EdgeId eid : graph_.incident_edges(vi)) {
      const Edge& e = graph_.edge(eid);
      const NodeId w = e.src == vi ? e.dst : e.src;
      if (order_.pos[static_cast<size_t>(w)] <= i) continue;
      const auto& w_configs = configs_.at(w);
      const bool vi_is_src = e.src == vi;
      ClassPrices& edge_entry =
          edge_entries_[{classes_.edge_class(eid), vi_is_src,
                         classes_.node_class(vi), classes_.node_class(w)}];
      if (edge_entry.rep_vi != kInvalidNode &&
          configs_.at(edge_entry.rep_vi) == vi_configs &&
          configs_.at(edge_entry.rep_w) == w_configs) {
        ++edge_hits_;
      } else {
        auto matrix = std::make_shared<std::vector<double>>(kc *
                                                            w_configs.size());
        for (size_t cw = 0; cw < w_configs.size(); ++cw)
          for (size_t ci = 0; ci < kc; ++ci) {
            if (poll_due())
              if (const auto cause = poll();
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

  u64 node_hits() const { return node_hits_; }
  u64 edge_hits() const { return edge_hits_; }

 private:
  /// One shared price vector or matrix and the vertices it was priced for.
  struct ClassPrices {
    NodeId rep_vi = kInvalidNode;
    NodeId rep_w = kInvalidNode;
    std::shared_ptr<const std::vector<double>> prices;
  };

  const Graph& graph_;
  const Ordering& order_;
  const ConfigCache& configs_;
  const CostModel& cost_;
  const LayerClasses classes_;
  std::vector<ClassPrices> node_entries_;  ///< by node class
  std::map<std::tuple<u32, bool, u32, u32>, ClassPrices> edge_entries_;
  u64 node_hits_ = 0;
  u64 edge_hits_ = 0;
};

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

  // D(i) and S(i) for every position, and the component roots, in one
  // pass over the sequence.
  std::vector<PositionState> states(static_cast<size_t>(n));
  std::vector<i64> roots;
  {
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

  // Guard/deadline/cancellation trips either abort the exact DP
  // (kOutOfMemory, the paper Table I outcome) or degrade gracefully to the
  // beam-search fallback — which itself honors the external cancel token,
  // so a watchdog kill cannot be stalled by the fallback either.
  auto degrade_or_fail = [&](std::string reason,
                             DpResult::TripCause cause) -> DpResult {
    result.guard_reason = std::move(reason);
    result.trip_cause = cause;
    bool fallback_ok = false;
    if (options.degraded_fallback) {
      PhaseScope phase(trace, metrics, "beam_fallback",
                       "dp.phase.beam_fallback_seconds");
      fallback_ok =
          beam_search_fallback(graph, order, configs, cost,
                               options.beam_width, options.cancel, result);
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
  };
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
  // Cooperative cancellation across workers once the deadline expires or
  // the external token is observed set.
  std::atomic<bool> cancel{false};

  VertexPrices prices;
  std::vector<double> acc_seq;  // the calling thread's reduce accumulator
  for (i64 i = 0; i < n; ++i) {
    if (const auto cause = abort_cause(); cause != DpResult::TripCause::kNone)
      return degrade_or_fail(
          abort_message(cause, "at vertex " + std::to_string(i) + " of " +
                                   std::to_string(n)),
          cause);
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
    if (combos > static_cast<double>(options.max_table_entries))
      return degrade_or_fail(
          "substrategy table for vertex " + std::to_string(i) + " needs " +
              fmt_count(combos) + " entries (guard: " +
              std::to_string(options.max_table_entries) + ")",
          DpResult::TripCause::kTableGuard);
    if (work > static_cast<double>(options.max_combinations))
      return degrade_or_fail(
          "vertex " + std::to_string(i) + " needs " + fmt_count(work) +
              " combination evaluations (guard: " +
              std::to_string(options.max_combinations) + ")",
          DpResult::TripCause::kWorkGuard);
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
    if (price_cause != DpResult::TripCause::kNone)
      return degrade_or_fail(
          abort_message(price_cause,
                        "precomputing costs for vertex " + std::to_string(i)),
          price_cause);
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
      return degrade_or_fail(
          abort_message(cause, "enumerating substrategies of vertex " +
                                   std::to_string(i)),
          cause);
    }
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
