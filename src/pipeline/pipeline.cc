#include "pipeline/pipeline.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <tuple>

#include "cost/cost_model.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace pase {

Graph induced_subgraph(const Graph& graph, const std::vector<NodeId>& nodes,
                       std::vector<NodeId>& remap) {
  remap.assign(static_cast<size_t>(graph.num_nodes()), kInvalidNode);
  Graph sub;
  for (NodeId v : nodes) {
    Node copy = graph.node(v);
    remap[static_cast<size_t>(v)] = sub.add_node(std::move(copy));
  }
  for (const Edge& e : graph.edges()) {
    const NodeId s = remap[static_cast<size_t>(e.src)];
    const NodeId d = remap[static_cast<size_t>(e.dst)];
    if (s != kInvalidNode && d != kInvalidNode)
      sub.add_edge(s, d, e.shape, e.src_dims, e.dst_dims);
  }
  return sub;
}

namespace {

/// One deadline for a whole search, shared by its solves, and the record of
/// the solves that tripped. Each solve gets only what remains of
/// DpOptions::deadline_seconds, and none starts once it is spent or the
/// cancellation token is set.
class SearchBudget {
 public:
  SearchBudget(const DpOptions& solver, const WallTimer& timer)
      : deadline_(solver.deadline_seconds),
        cancel_(solver.cancel),
        timer_(timer) {}

  /// Narrows `opt`'s deadline to what remains. Returns false, and counts as
  /// a trip, when the solve must not start.
  bool admit(DpOptions& opt) {
    if (cancel_ && cancel_->load(std::memory_order_relaxed)) {
      trip(DpResult::TripCause::kCancelled, "");
      return false;
    }
    if (deadline_ <= 0.0) return true;
    const double left = deadline_ - timer_.elapsed_seconds();
    if (left <= 0.0) {
      trip(DpResult::TripCause::kDeadline, "");
      return false;
    }
    opt.deadline_seconds = left;
    return true;
  }

  /// Records the trip of an admitted solve, if it tripped.
  void note(const DpResult& r) {
    if (r.trip_cause != DpResult::TripCause::kNone)
      trip(r.trip_cause, r.guard_reason);
  }

  bool tripped() const { return cause_ != DpResult::TripCause::kNone; }
  bool cancelled() const {
    return cause_ == DpResult::TripCause::kCancelled;
  }

  /// Marks `dp` as the answer of a search that tripped, naming the
  /// partition in its reason: kDegraded when the solver may degrade and
  /// `dp` holds a strategy; otherwise kOutOfMemory with none, as a plain
  /// solve answers a guard trip under --strict or a cancellation. Its
  /// beam_width_used stays that of the solves its strategy came from: 0
  /// when they were all exact.
  void degrade(const DpOptions& solver, DpResult& dp) const {
    dp.trip_cause = cause_;
    if (cause_ == DpResult::TripCause::kDeadline) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3g", deadline_);
      dp.guard_reason = "deadline of " + std::string(buf) +
                        "s expired during pipeline partition";
    } else if (cause_ == DpResult::TripCause::kCancelled) {
      dp.guard_reason = "cancelled during pipeline partition";
    } else {
      dp.guard_reason = "pipeline partition: " + reason_;
    }
    if (solver.degraded_fallback && !cancelled() && !dp.strategy.empty()) {
      dp.status = DpStatus::kDegraded;
    } else {
      dp.status = DpStatus::kOutOfMemory;
      dp.strategy.clear();
    }
  }

 private:
  /// The first trip names the answer, except that a deadline, which makes
  /// it timing-dependent (never cached), replaces a guard trip, and a
  /// cancellation replaces both.
  void trip(DpResult::TripCause cause, std::string reason) {
    auto rank = [](DpResult::TripCause c) {
      switch (c) {
        case DpResult::TripCause::kNone: return 0;
        case DpResult::TripCause::kTableGuard:
        case DpResult::TripCause::kWorkGuard: return 1;
        case DpResult::TripCause::kDeadline: return 2;
        case DpResult::TripCause::kCancelled: return 3;
      }
      return 0;
    };
    if (rank(cause) > rank(cause_)) {
      cause_ = cause;
      reason_ = std::move(reason);
    }
  }

  double deadline_;
  const std::atomic<bool>* cancel_;
  const WallTimer& timer_;
  DpResult::TripCause cause_ = DpResult::TripCause::kNone;
  std::string reason_;
};

struct IntervalCost {
  double compute_seconds = 0.0;
  Strategy strategy;  ///< indexed by position within the interval
  bool feasible = false;
  i64 beam_width = 0;         ///< the solve's fallback width, 0 if exact
  i64 max_configs = 0;        ///< the interval solve's K
  i64 max_dependent_set = 0;  ///< and M
};

/// The boundary DP over one topological order, for each count in
/// `stage_counts`: the cut into that many contiguous stages, each on an
/// equal share of the devices, whose slowest stage is fastest. Fills the
/// partition fields of `out` with the count of the smallest step (the
/// first on a tie), and no_pipeline_seconds when 1 is among the counts and
/// its solve was exact. An interval whose solve degraded counts with its
/// degraded strategy; one whose solve failed, or that `budget` did not
/// admit, is infeasible. Returns false when no count has a feasible
/// partition: each is too large for the graph, or the interval solves
/// failed under the memory filter, the cancellation token or the deadline.
bool partition_stages(const Graph& graph, const MachineSpec& m,
                      const DpOptions& solver,
                      const std::vector<i64>& stage_counts, i64 microbatches,
                      SearchBudget& budget, PipelinedSearchResult* out) {
  const std::vector<NodeId> topo = graph.topological_order();
  const i64 n = static_cast<i64>(topo.size());
  const CostParams& params = solver.cost_params;

  // Candidate boundaries: coarsened so the O(boundaries^2) interval solves
  // stay cheap on 200-node graphs. Boundary b means "first b topo nodes".
  const i64 granularity = std::max<i64>(1, n / kPipelineCuts);
  std::vector<i64> boundaries;
  for (i64 b = 0; b <= n; b += granularity) boundaries.push_back(b);
  if (boundaries.back() != n) boundaries.push_back(n);
  const i64 nb = static_cast<i64>(boundaries.size());

  // Interval stage cost via FindBestStrategy on the induced subgraph.
  std::map<std::tuple<i64, i64, i64>, IntervalCost> cache;
  auto interval_cost = [&](i64 bi, i64 bj,
                           i64 devices) -> const IntervalCost& {
    auto [it, inserted] =
        cache.try_emplace({boundaries[bi], boundaries[bj], devices});
    if (!inserted) return it->second;
    IntervalCost& ic = it->second;
    DpOptions opt = solver;
    opt.config_options.max_devices = devices;
    if (!budget.admit(opt)) return ic;
    std::vector<NodeId> nodes(topo.begin() + boundaries[bi],
                              topo.begin() + boundaries[bj]);
    std::vector<NodeId> remap;
    const Graph sub = induced_subgraph(graph, nodes, remap);
    const DpResult r = find_best_strategy(sub, opt);
    budget.note(r);
    if (r.status == DpStatus::kOk || r.status == DpStatus::kDegraded) {
      ic.beam_width = r.beam_width_used;
      ic.feasible = true;
      ic.compute_seconds = r.best_cost / params.seconds_to_flops;
      ic.strategy = r.strategy;
      ic.max_configs = r.max_configs;
      ic.max_dependent_set = r.max_dependent_set;
    }
    return ic;
  };

  // Activation bytes crossing a boundary, charged to the producing stage.
  std::vector<i64> pos(static_cast<size_t>(graph.num_nodes()), 0);
  for (i64 i = 0; i < n; ++i) pos[static_cast<size_t>(topo[i])] = i;
  auto crossing_seconds = [&](i64 bj) {  // boundary after `bj` topo nodes
    double bytes = 0.0;
    for (const Edge& e : graph.edges())
      if (pos[static_cast<size_t>(e.src)] < boundaries[bj] &&
          pos[static_cast<size_t>(e.dst)] >= boundaries[bj])
        bytes += static_cast<double>(e.volume()) * params.bytes_per_element;
    return bytes / m.inter_bw() + m.link_latency_s;
  };

  // The one-stage partition (1 leads the counts when it is among them) is
  // solved first, so a deadline spends itself on the partitions after it.
  if (stage_counts.front() == 1) interval_cost(0, nb - 1, m.num_devices);

  double best_step = std::numeric_limits<double>::infinity();
  for (const i64 stages : stage_counts) {
    if (stages > max_pipeline_stages(n)) continue;
    const i64 devices = m.num_devices / stages;

    // DP over boundaries: bottleneck[bj][s] = best achievable max stage
    // time using the first bj boundary units in s stages.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<std::vector<double>> dp(
        static_cast<size_t>(nb), std::vector<double>(
                                     static_cast<size_t>(stages + 1), kInf));
    std::vector<std::vector<i64>> parent(
        static_cast<size_t>(nb),
        std::vector<i64>(static_cast<size_t>(stages + 1), -1));
    dp[0][0] = 0.0;
    for (i64 bj = 1; bj < nb; ++bj) {
      for (i64 s = 1; s <= stages; ++s) {
        for (i64 bi = s - 1; bi < bj; ++bi) {
          if (dp[static_cast<size_t>(bi)][static_cast<size_t>(s - 1)] ==
              kInf)
            continue;
          const IntervalCost& ic = interval_cost(bi, bj, devices);
          if (!ic.feasible) continue;
          double t = ic.compute_seconds;
          if (bj < nb - 1) t += crossing_seconds(bj);
          const double bottleneck = std::max(
              dp[static_cast<size_t>(bi)][static_cast<size_t>(s - 1)], t);
          if (bottleneck <
              dp[static_cast<size_t>(bj)][static_cast<size_t>(s)]) {
            dp[static_cast<size_t>(bj)][static_cast<size_t>(s)] = bottleneck;
            parent[static_cast<size_t>(bj)][static_cast<size_t>(s)] = bi;
          }
        }
      }
    }
    const double bottleneck =
        dp[static_cast<size_t>(nb - 1)][static_cast<size_t>(stages)];
    if (bottleneck == kInf) continue;

    // Steady-state pipeline: all stages overlap across micro-batches, so a
    // step costs one bottleneck interval; fill/drain stretches it.
    const double fill_drain =
        static_cast<double>(microbatches + stages - 1) /
        static_cast<double>(microbatches);
    const double step = bottleneck * fill_drain;
    if (stages == 1 && interval_cost(0, nb - 1, devices).beam_width == 0)
      out->no_pipeline_seconds = step;
    if (step >= best_step) continue;

    // Reconstruct the winning partition.
    best_step = step;
    out->stages = stages;
    out->devices_per_stage = devices;
    out->bottleneck_seconds = bottleneck;
    out->step_seconds = step;
    out->stage_details.clear();
    out->dp.beam_width_used = 0;
    std::vector<i64> cuts;
    for (i64 bj = nb - 1, s = stages; s > 0; --s) {
      cuts.push_back(bj);
      bj = parent[static_cast<size_t>(bj)][static_cast<size_t>(s)];
    }
    cuts.push_back(0);
    std::reverse(cuts.begin(), cuts.end());
    for (size_t k = 0; k + 1 < cuts.size(); ++k) {
      PipelineStage stage;
      stage.nodes.assign(topo.begin() + boundaries[cuts[k]],
                         topo.begin() + boundaries[cuts[k + 1]]);
      const IntervalCost& ic = interval_cost(cuts[k], cuts[k + 1], devices);
      stage.strategy = ic.strategy;
      stage.compute_seconds = ic.compute_seconds;
      stage.max_configs = ic.max_configs;
      stage.max_dependent_set = ic.max_dependent_set;
      out->dp.beam_width_used =
          std::max(out->dp.beam_width_used, ic.beam_width);
      stage.transfer_seconds =
          cuts[k + 1] < nb - 1 ? crossing_seconds(cuts[k + 1]) : 0.0;
      out->stage_details.push_back(std::move(stage));
    }
  }
  return !out->stage_details.empty();
}

}  // namespace

PipelinedSearchResult find_best_pipelined_strategy(
    const Graph& graph, const MachineSpec& m, const DpOptions& solver,
    const PipelineSearchOptions& popts) {
  PASE_CHECK_MSG(popts.stages >= 0, "stages must be >= 0 (0 = auto)");
  const WallTimer timer;
  const double seconds_to_flops = solver.cost_params.seconds_to_flops;
  DpOptions whole = solver;
  whole.config_options.max_devices = m.num_devices;
  PipelinedSearchResult out;

  if (popts.stages == 1) {
    // The disabled-dimension contract: no pipeline axis means the plain
    // solve, bit for bit — same DpResult, nothing recomputed.
    out.dp = find_best_strategy(graph, whole);
    out.devices_per_stage = m.num_devices;
    out.no_pipeline_seconds = out.dp.best_cost / seconds_to_flops;
    out.bottleneck_seconds = out.no_pipeline_seconds;
    out.step_seconds = out.no_pipeline_seconds;
    return out;
  }

  std::vector<i64> stage_counts;
  if (popts.stages == 0) {
    for (i64 s = 1; s <= std::min<i64>(m.num_devices, 8); s *= 2)
      if (m.num_devices % s == 0) stage_counts.push_back(s);
  } else {
    PASE_CHECK_MSG(m.num_devices % popts.stages == 0,
                   "--pipeline-stages must divide the device count");
    stage_counts = {popts.stages};
  }
  // Without 1 among the counts (an explicit count the graph can take), the
  // single-stage reference is solved first, for the same reason as the
  // one-stage partition (see partition_stages). Either is the answer when
  // a trip leaves no partition of the other counts whole.
  SearchBudget budget(solver, timer);
  std::optional<DpResult> reference;
  if (stage_counts.front() != 1 &&
      popts.stages <= max_pipeline_stages(graph.num_nodes())) {
    DpOptions ref = whole;
    if (budget.admit(ref)) {
      reference = find_best_strategy(graph, ref);
      budget.note(*reference);
      if (reference->status == DpStatus::kOk)
        out.no_pipeline_seconds = reference->best_cost / seconds_to_flops;
    }
  }
  const bool partitioned = partition_stages(
      graph, m, solver, stage_counts, popts.microbatches, budget, &out);
  if (!partitioned && !budget.tripped()) {
    // The memory filter rejected every per-stage configuration.
    out.dp.status = DpStatus::kInfeasible;
    return out;
  }
  if (!partitioned) {
    // A trip left no partition whole. Unless the single-stage solve already
    // ran, it runs now, on a spent deadline too, which sends it straight to
    // the beam fallback: a valid answer within the deadline's fallback
    // share. A cancelled or strict search runs nothing more.
    if (!reference && solver.degraded_fallback && !budget.cancelled()) {
      DpOptions ref = whole;
      if (!budget.admit(ref)) ref.deadline_seconds = 1e-9;
      reference = find_best_strategy(graph, ref);
      budget.note(*reference);
    }
    if (reference) {
      out.dp = std::move(*reference);
      out.devices_per_stage = m.num_devices;
      out.bottleneck_seconds = out.dp.best_cost / seconds_to_flops;
      out.step_seconds = out.bottleneck_seconds;
    }
  }

  // Scatter the per-stage configs back onto original node ids and price
  // the composed strategy with Eq. (1) so the result carries the same
  // (strategy, cost) surface a plain solve does — the serve path's
  // verify-on-hit and the CLI's report read these fields. K and M are the
  // largest over the stage solves.
  if (partitioned) {
    out.dp.status = DpStatus::kOk;
    out.dp.threads_used = ThreadPool::resolve(solver.num_threads);
    out.dp.strategy.assign(static_cast<size_t>(graph.num_nodes()), Config());
    for (const PipelineStage& stage : out.stage_details) {
      PASE_CHECK(stage.strategy.size() == stage.nodes.size());
      for (size_t i = 0; i < stage.nodes.size(); ++i)
        out.dp.strategy[static_cast<size_t>(stage.nodes[i])] =
            stage.strategy[i];
      out.dp.max_configs = std::max(out.dp.max_configs, stage.max_configs);
      out.dp.max_dependent_set =
          std::max(out.dp.max_dependent_set, stage.max_dependent_set);
    }
  }
  // Some solve tripped or never ran, so the answer is not the search's
  // exact optimum: never ok.
  if (budget.tripped()) budget.degrade(solver, out.dp);
  if (out.dp.strategy.empty()) {
    out.dp.elapsed_seconds = timer.elapsed_seconds();
    return out;
  }
  const CostModel cost(graph, solver.cost_params);
  out.dp.best_cost = cost.total_cost(out.dp.strategy);
  out.dp.elapsed_seconds = timer.elapsed_seconds();
  return out;
}

}  // namespace pase
