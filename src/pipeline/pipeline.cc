#include "pipeline/pipeline.h"

#include <algorithm>
#include <limits>
#include <map>
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

struct IntervalCost {
  double compute_seconds = 0.0;
  Strategy strategy;  ///< indexed by position within the interval
  bool feasible = false;
  i64 max_configs = 0;        ///< the interval solve's K
  i64 max_dependent_set = 0;  ///< and M
};

}  // namespace

PipelineResult partition_pipeline(const Graph& graph, const MachineSpec& m,
                                  const PipelineOptions& options) {
  const std::vector<NodeId> topo = graph.topological_order();
  const i64 n = static_cast<i64>(topo.size());
  const double effective_flops = m.peak_flops * m.compute_efficiency;

  // Candidate boundaries: coarsened so the O(boundaries^2) interval solves
  // stay cheap on 200-node graphs. Boundary b means "first b topo nodes".
  const i64 granularity = std::max<i64>(1, n / 24);
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
    std::vector<NodeId> nodes(topo.begin() + boundaries[bi],
                              topo.begin() + boundaries[bj]);
    std::vector<NodeId> remap;
    const Graph sub = induced_subgraph(graph, nodes, remap);
    DpOptions opt = options.solver;
    opt.config_options.max_devices = devices;
    const DpResult r = find_best_strategy(sub, opt);
    if (r.status == DpStatus::kOk) {
      ic.feasible = true;
      ic.compute_seconds = r.best_cost / effective_flops;
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
        bytes += static_cast<double>(e.volume()) * 4.0;
    return bytes / m.inter_bw() + m.link_latency_s;
  };

  PipelineResult best;
  best.step_seconds = std::numeric_limits<double>::infinity();

  for (const i64 stages : options.stage_counts) {
    if (stages < 1 || m.num_devices % stages != 0 || stages > nb - 1)
      continue;
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
        static_cast<double>(options.microbatches + stages - 1) /
        static_cast<double>(options.microbatches);
    const double step = bottleneck * fill_drain;
    if (stages == 1) best.no_pipeline_seconds = step;
    if (step >= best.step_seconds) continue;

    // Reconstruct the winning partition.
    best.step_seconds = step;
    best.bottleneck_seconds = bottleneck;
    best.devices_per_stage = devices;
    best.stages.clear();
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
      stage.transfer_seconds =
          cuts[k + 1] < nb - 1 ? crossing_seconds(cuts[k + 1]) : 0.0;
      best.stages.push_back(std::move(stage));
    }
  }

  // Empty stages = no feasible partition: every requested stage count was
  // skipped (does not divide the device count, or exceeds the boundary
  // budget) or every interval solve failed (memory filter, cancellation).
  // Callers must check rather than trust the zeroed timing fields.
  if (best.stages.empty()) return best;
  if (best.no_pipeline_seconds == 0.0) {
    // stage_counts did not include 1; compute the reference separately.
    DpOptions opt = options.solver;
    opt.config_options.max_devices = m.num_devices;
    const DpResult r = find_best_strategy(graph, opt);
    if (r.status == DpStatus::kOk)
      best.no_pipeline_seconds = r.best_cost / effective_flops;
  }
  return best;
}

PipelinedSearchResult find_best_pipelined_strategy(
    const Graph& graph, const MachineSpec& m, const DpOptions& solver,
    const PipelineSearchOptions& popts) {
  PASE_CHECK_MSG(popts.stages >= 0, "stages must be >= 0 (0 = auto)");
  const WallTimer timer;
  PipelinedSearchResult out;

  if (popts.stages == 1) {
    // The disabled-dimension contract: no pipeline axis means the plain
    // solve, bit for bit — same DpResult, nothing recomputed.
    DpOptions opt = solver;
    opt.config_options.max_devices = m.num_devices;
    out.dp = find_best_strategy(graph, opt);
    const double effective_flops = m.peak_flops * m.compute_efficiency;
    out.devices_per_stage = m.num_devices;
    out.no_pipeline_seconds = out.dp.best_cost / effective_flops;
    out.bottleneck_seconds = out.no_pipeline_seconds;
    out.step_seconds = out.no_pipeline_seconds;
    return out;
  }

  PipelineOptions options;
  options.solver = solver;
  options.microbatches = popts.microbatches;
  if (popts.stages == 0) {
    options.stage_counts.clear();
    for (i64 s = 1; s <= std::min<i64>(m.num_devices, 8); s *= 2)
      if (m.num_devices % s == 0) options.stage_counts.push_back(s);
  } else {
    PASE_CHECK_MSG(m.num_devices % popts.stages == 0,
                   "--pipeline-stages must divide the device count");
    options.stage_counts = {popts.stages};
  }
  PipelineResult pr = partition_pipeline(graph, m, options);
  if (pr.stages.empty()) {
    // No stage interval was solvable: either the memory filter rejected
    // every per-stage configuration, or a cancellation token fired while
    // the boundary DP was solving intervals.
    if (solver.cancel && solver.cancel->load(std::memory_order_relaxed)) {
      out.dp.status = DpStatus::kOutOfMemory;
      out.dp.guard_reason = "cancelled during pipeline partition";
    } else {
      out.dp.status = DpStatus::kInfeasible;
    }
    return out;
  }

  out.stages = static_cast<i64>(pr.stages.size());
  out.devices_per_stage = pr.devices_per_stage;
  out.bottleneck_seconds = pr.bottleneck_seconds;
  out.step_seconds = pr.step_seconds;
  out.no_pipeline_seconds = pr.no_pipeline_seconds;

  // Scatter the per-stage configs back onto original node ids and price
  // the composed strategy with Eq. (1) so the result carries the same
  // (strategy, cost) surface a plain solve does — the serve path's
  // verify-on-hit and the CLI's report read these fields. K and M are the
  // largest over the stage solves.
  out.dp.status = DpStatus::kOk;
  out.dp.threads_used = ThreadPool::resolve(solver.num_threads);
  out.dp.strategy.assign(static_cast<size_t>(graph.num_nodes()), Config());
  for (const PipelineStage& stage : pr.stages) {
    PASE_CHECK(stage.strategy.size() == stage.nodes.size());
    for (size_t i = 0; i < stage.nodes.size(); ++i)
      out.dp.strategy[static_cast<size_t>(stage.nodes[i])] =
          stage.strategy[i];
    out.dp.max_configs = std::max(out.dp.max_configs, stage.max_configs);
    out.dp.max_dependent_set =
        std::max(out.dp.max_dependent_set, stage.max_dependent_set);
  }
  const CostModel cost(graph, solver.cost_params);
  out.dp.best_cost = cost.total_cost(out.dp.strategy);
  out.dp.elapsed_seconds = timer.elapsed_seconds();
  out.stage_details = std::move(pr.stages);
  return out;
}

}  // namespace pase
