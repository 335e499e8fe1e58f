#include "core/dp_solver.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>

#include "core/dep_sets.h"
#include "cost/cost_cache.h"
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

/// Recursive back-substitution: assigns v^(i)'s best configuration under the
/// current dependent-set choices, then descends into the connected subsets.
void extract(const std::vector<PositionState>& states,
             const Ordering& order, const ConfigCache& configs,
             i64 pos, std::vector<u32>& cur_idx, Strategy& out) {
  const PositionState& st = states[static_cast<size_t>(pos)];
  const u64 idx = st.index_of(cur_idx);
  PASE_CHECK_MSG(idx < st.table.size(), "missing DP entry during extraction");
  const NodeId vi = order.seq[static_cast<size_t>(pos)];
  cur_idx[static_cast<size_t>(vi)] = st.table[idx].cfg;
  out[static_cast<size_t>(vi)] = configs.at(vi)[st.table[idx].cfg];
  for (i64 j : st.anchors) extract(states, order, configs, j, cur_idx, out);
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

  // Per-solve cache by default; a caller-owned shared cache (the serving
  // daemon keeps one warm per graph signature) survives across solves, so
  // its counters are reported as this solve's delta. Under concurrent
  // solves sharing one cache the delta is approximate (other requests bump
  // the same counters) — diagnostics only, never results. The structural
  // classes it computes also key the per-class cost sharing below, so a
  // solve without the memo still builds one for its classes.
  std::optional<CostCache> own_cost_cache;
  CostCache& classes = options.use_cost_cache && options.shared_cost_cache
                           ? *options.shared_cost_cache
                           : own_cost_cache.emplace(graph);
  CostCache* const cost_cache = options.use_cost_cache ? &classes : nullptr;

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
  const u64 hits0 = cost_cache ? cost_cache->hits() : 0;
  const u64 misses0 = cost_cache ? cost_cache->misses() : 0;
  CostModel cost(graph, options.cost_params);
  if (cost_cache) cost.attach_cache(cost_cache);
  auto record_cache_stats = [&] {
    if (!cost_cache) return;
    result.cost_cache_hits = cost_cache->hits() - hits0;
    result.cost_cache_misses = cost_cache->misses() - misses0;
  };
  // Final metrics flush, shared by every exit path. Counters/histograms
  // recorded here are structural — pure functions of (graph, options minus
  // num_threads) — while anything wall-clock or scheduling dependent goes
  // into gauges (see src/obs/metrics.h).
  auto record_metrics = [&] {
    if (!metrics) return;
    metrics->add_counter("dp.solves", 1);
    metrics->add_counter("dp.cost_cache.hits", result.cost_cache_hits);
    metrics->add_counter("dp.cost_cache.misses", result.cost_cache_misses);
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
      record_cache_stats();
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
    record_cache_stats();
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

  // Per-class cost sharing: same-class vertices share their t_l vector and
  // t_x matrices, so a model that repeats a layer prices it once. A
  // CostCache class groups nodes (edges) whose every cost-model input is
  // byte-identical, so equal class implies equal cost for equal
  // configurations; equality of the actual configuration LISTS is verified
  // at lookup (never assumed — a ConfigOptions filter could in principle
  // admit different lists for same-class nodes, in which case the class
  // entry simply misses). Fills happen on the calling thread before the
  // parallel fan-out, preserving the bit-identical-at-any-thread-count
  // contract. Edge entries are indexed by 2 * class + (v^(i) is the src).
  struct ClassNodeCosts {
    NodeId rep = kInvalidNode;
    std::shared_ptr<const std::vector<double>> costs;
  };
  std::vector<ClassNodeCosts> class_node_costs(
      static_cast<size_t>(classes.num_node_classes()));
  struct ClassEdgeCosts {
    NodeId rep_vi = kInvalidNode;
    NodeId rep_other = kInvalidNode;
    std::shared_ptr<const std::vector<double>> matrix;
  };
  std::vector<ClassEdgeCosts> class_edge_costs(
      2 * static_cast<size_t>(classes.num_edge_classes()));

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

    // The t_l / t_x precompute loops below can dominate wall time on a
    // single-large-vertex model — they make |C(v^(i))| + sum_w |C(v^(i))| x
    // |C(w)| cost-model calls before the table fill ever starts — so they
    // carry their own amortized abort check (every 256 cost calls; a
    // steady_clock read amortized over 256 cost evaluations is noise).
    u64 precompute_tick = 0;
    auto precompute_cause = [&]() -> DpResult::TripCause {
      if ((++precompute_tick & 255u) != 0) return DpResult::TripCause::kNone;
      return abort_cause();
    };

    // Precompute t_l(v^(i), C) for every C in C(v^(i)) — shared across
    // same-class vertices.
    ClassNodeCosts& node_entry =
        class_node_costs[static_cast<size_t>(classes.node_class(vi))];
    std::shared_ptr<const std::vector<double>> node_costs_ptr;
    if (node_entry.rep != kInvalidNode &&
        configs.at(node_entry.rep) == vi_configs) {
      node_costs_ptr = node_entry.costs;
      if (metrics) metrics->add_counter("dp.class_memo.node_hits", 1);
    } else {
      auto computed =
          std::make_shared<std::vector<double>>(vi_configs.size());
      for (size_t c = 0; c < vi_configs.size(); ++c) {
        if (const auto cause = precompute_cause();
            cause != DpResult::TripCause::kNone)
          return degrade_or_fail(
              abort_message(cause, "precomputing costs for vertex " +
                                       std::to_string(i)),
              cause);
        (*computed)[c] = cost.node_cost(vi, vi_configs[c]);
      }
      node_costs_ptr = std::move(computed);
      node_entry = {vi, node_costs_ptr};
    }
    const std::vector<double>& node_costs = *node_costs_ptr;

    // Later edges of v^(i) (the H function's transfer terms) with their full
    // |C(v^(i))| x |C(w)| cost matrices; every later neighbor w is in D(i).
    // A matrix is shared across edges of the same structural class and
    // orientation once both endpoint configuration lists are verified equal
    // to the representative's.
    struct LaterEdge {
      NodeId other;
      std::shared_ptr<const std::vector<double>>
          cost_matrix;  ///< [ci * |C(w)| + cw]
    };
    std::vector<LaterEdge> later_edges;
    for (EdgeId eid : graph.incident_edges(vi)) {
      const Edge& e = graph.edge(eid);
      const NodeId w = e.src == vi ? e.dst : e.src;
      if (order.pos[static_cast<size_t>(w)] <= i) continue;
      PASE_CHECK(std::binary_search(st.dependent.begin(), st.dependent.end(),
                                    w));
      LaterEdge le;
      le.other = w;
      const auto& w_configs = configs.at(w);
      ClassEdgeCosts& edge_entry =
          class_edge_costs[2 * static_cast<size_t>(classes.edge_class(eid)) +
                           (e.src == vi ? 1 : 0)];
      if (edge_entry.rep_vi != kInvalidNode &&
          configs.at(edge_entry.rep_vi) == vi_configs &&
          configs.at(edge_entry.rep_other) == w_configs) {
        le.cost_matrix = edge_entry.matrix;
        if (metrics) metrics->add_counter("dp.class_memo.edge_hits", 1);
      } else {
        auto matrix = std::make_shared<std::vector<double>>(
            vi_configs.size() * w_configs.size());
        for (size_t ci = 0; ci < vi_configs.size(); ++ci)
          for (size_t cw = 0; cw < w_configs.size(); ++cw) {
            if (const auto cause = precompute_cause();
                cause != DpResult::TripCause::kNone)
              return degrade_or_fail(
                  abort_message(cause, "precomputing costs for vertex " +
                                           std::to_string(i)),
                  cause);
            const Config& src = e.src == vi ? vi_configs[ci] : w_configs[cw];
            const Config& dst = e.src == vi ? w_configs[cw] : vi_configs[ci];
            (*matrix)[ci * w_configs.size() + cw] =
                cost.edge_cost(e, src, dst);
          }
        le.cost_matrix = std::move(matrix);
        edge_entry = {vi, w, le.cost_matrix};
      }
      later_edges.push_back(std::move(le));
    }

    // Anchors whose D(j) contains v^(i) must be re-looked-up per C; the rest
    // depend only on phi and are hoisted out of the configuration loop.
    std::vector<i64> anchors_outer, anchors_inner;
    for (i64 j : st.anchors) {
      const auto& dj = states[static_cast<size_t>(j)].dependent;
      const bool contains_vi =
          std::binary_search(dj.begin(), dj.end(), vi);
      (contains_vi ? anchors_inner : anchors_outer).push_back(j);
      // Theory: D(j) is a subset of D(i) U {v^(i)} for X(j) in S(i).
      for (NodeId d : dj)
        PASE_CHECK(d == vi || std::binary_search(st.dependent.begin(),
                                                 st.dependent.end(), d));
    }

    st.table.resize(static_cast<size_t>(prod));

    // Evaluates the phi linear-index range [p0, p1), writing each best
    // Entry to its own table slot. `cur` is the caller's scratch config-
    // index vector (one per worker in the parallel fan-out, so workers
    // never share mutable state; table writes are to disjoint slots).
    // Identical code runs in the sequential and parallel paths, and each
    // phi's config scan uses strict less-than in enumeration order, so the
    // filled table is bit-identical however the range is split.
    auto process_range = [&](u64 p0, u64 p1, std::vector<u32>& cur) {
      const size_t kd = st.dependent.size();
      std::vector<u32> odo(kd);
      for (size_t k = 0; k < kd; ++k) {
        odo[k] = static_cast<u32>((p0 / st.stride[k]) % st.radix[k]);
        cur[static_cast<size_t>(st.dependent[k])] = odo[k];
      }
      // Amortized abort check every ~8k *combinations* — counting phi
      // indices would let a vertex with few substrategies but a huge
      // configuration set blow far past the deadline between checks.
      u64 combos_since_check = 0;
      for (u64 idx = p0; idx < p1; ++idx) {
        combos_since_check += vi_configs.size();
        if (combos_since_check >= 8192) {
          combos_since_check = 0;
          if (cancel.load(std::memory_order_relaxed)) return;
          if (abort_cause() != DpResult::TripCause::kNone) {
            cancel.store(true, std::memory_order_relaxed);
            return;
          }
        }

        double base = 0.0;
        for (i64 j : anchors_outer) {
          const PositionState& sj = states[static_cast<size_t>(j)];
          base += sj.table[sj.index_of(cur)].cost;
        }

        Entry best{std::numeric_limits<double>::infinity(), 0};
        for (size_t ci = 0; ci < vi_configs.size(); ++ci) {
          double c = base + node_costs[ci];
          for (const LaterEdge& le : later_edges)
            c += (*le.cost_matrix)[ci * configs.at(le.other).size() +
                                   cur[static_cast<size_t>(le.other)]];
          if (!anchors_inner.empty()) {
            cur[static_cast<size_t>(vi)] = static_cast<u32>(ci);
            for (i64 j : anchors_inner) {
              const PositionState& sj = states[static_cast<size_t>(j)];
              c += sj.table[sj.index_of(cur)].cost;
            }
          }
          if (c < best.cost) best = Entry{c, static_cast<u32>(ci)};
        }
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

    if (pool && prod > 1 && static_cast<u64>(work) >= kParallelWorkThreshold) {
      // Chunk the phi range by index only — the decomposition (and hence
      // every table entry) is independent of scheduling and thread count.
      const i64 grain = std::max<i64>(
          64, ceil_div(static_cast<i64>(prod), threads * 8));
      pool->parallel_for(
          0, static_cast<i64>(prod), grain,
          [&](i64 b0, i64 b1) {
            std::vector<u32> cur(static_cast<size_t>(n), 0);
            process_range(static_cast<u64>(b0), static_cast<u64>(b1), cur);
          },
          &cancel);
    } else {
      process_range(0, prod, cur_idx);
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

  record_cache_stats();
  result.elapsed_seconds = timer.elapsed_seconds();
  record_metrics();
  return result;
}

}  // namespace pase
