// Bit-identity oracle for the solver's beam-search fallback.
//
// reference_beam_fallback below is the fallback as it was before it read
// class-shared prices, kept verbatim as a reference: every candidate prices
// t_l and t_x through node_cost/edge_cost, every kept state copies an
// n-length config vector, and partial_sort picks the kept states. The
// solver's fallback must return the same strategy and the same best_cost
// bits after any structural guard trip (table or work guard, at the first
// vertex or in the middle of the sequence), at any width and any thread
// count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "config/config_enum.h"
#include "core/dep_sets.h"
#include "core/dp_solver.h"
#include "core/ordering.h"
#include "cost/cost_model.h"
#include "cost/machine.h"
#include "hetero/hetero.h"
#include "io/model_parser.h"
#include "models/models.h"
#include "test_util.h"
#include "util/check.h"

#ifndef PASE_SOURCE_DIR
#error "PASE_SOURCE_DIR must be defined by the build"
#endif

namespace pase {
namespace {

bool reference_beam_fallback(const Graph& graph, const Ordering& order,
                             const ConfigCache& configs, const CostModel& cost,
                             i64 beam_width,
                             const std::atomic<bool>* cancel,
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

constexpr i64 kWidths[] = {1, 2, 7, 256};
constexpr i64 kThreads[] = {1, 4};

/// Solves `graph` under `options` (which must trip a structural guard) at
/// every width and thread count, and checks each degraded answer against
/// the reference fallback run over the same ordering and configurations.
void expect_matches_reference(const Graph& graph, DpOptions options,
                              const std::string& label) {
  options.degraded_fallback = true;
  const Ordering order = make_ordering(graph, options.ordering);
  const ConfigCache configs(graph, options.config_options);
  const CostModel cost(graph, options.cost_params);
  for (const i64 width : kWidths) {
    DpResult reference;
    ASSERT_TRUE(reference_beam_fallback(graph, order, configs, cost, width,
                                        nullptr, reference));
    for (const i64 threads : kThreads) {
      options.beam_width = width;
      options.num_threads = threads;
      const DpResult r = find_best_strategy(graph, options);
      const std::string where = label + " width " + std::to_string(width) +
                                " threads " + std::to_string(threads);
      ASSERT_EQ(r.status, DpStatus::kDegraded) << where;
      EXPECT_TRUE(r.trip_cause == DpResult::TripCause::kTableGuard ||
                  r.trip_cause == DpResult::TripCause::kWorkGuard)
          << where << ": " << r.guard_reason;
      EXPECT_EQ(r.beam_width_used, width) << where;
      EXPECT_EQ(std::bit_cast<u64>(r.best_cost),
                std::bit_cast<u64>(reference.best_cost))
          << where << ": " << r.best_cost << " vs " << reference.best_cost;
      ASSERT_EQ(r.strategy.size(), reference.strategy.size()) << where;
      for (size_t v = 0; v < r.strategy.size(); ++v)
        ASSERT_EQ(r.strategy[v], reference.strategy[v])
            << where << ", node " << v;
    }
  }
}

/// |Phi(D(i))| per position of `order`: what the table guard compares,
/// and (times |C(v^(i))|) what the work guard compares.
std::vector<double> table_sizes(const Graph& graph, const Ordering& order,
                                const ConfigCache& configs) {
  const AllVertexSets sets = compute_all_vertex_sets(graph, order);
  std::vector<double> sizes;
  for (const auto& dependent : sets.dependent) {
    double combos = 1.0;
    for (NodeId d : dependent)
      combos *= static_cast<double>(configs.at(d).size());
    sizes.push_back(combos);
  }
  return sizes;
}

/// The position, other than the first, whose value first exceeds every
/// earlier one and lies closest to the middle; -1 when there is none.
i64 middle_record(const std::vector<double>& values) {
  const i64 n = static_cast<i64>(values.size());
  i64 best = -1;
  double running = values.empty() ? 0.0 : values[0];
  for (i64 i = 1; i < n; ++i) {
    if (values[static_cast<size_t>(i)] <= running) continue;
    running = values[static_cast<size_t>(i)];
    if (best < 0 || std::abs(i - n / 2) < std::abs(best - n / 2)) best = i;
  }
  return best;
}

DpOptions options_for(const MachineSpec& machine, CommModelKind kind) {
  DpOptions options;
  options.config_options.max_devices = machine.num_devices;
  options.cost_params = hetero_cost_params(machine, kind);
  return options;
}

TEST(BeamFallbackOracle, SeededGraphsTripAtFirstAndMiddleVertex) {
  for (const u64 seed : {1ull, 2ull, 3ull, 5ull, 8ull, 13ull}) {
    const Graph g = testing::random_graph(12, 14, seed);
    const DpOptions base =
        options_for(MachineSpec::gtx1080ti(8), CommModelKind::kSimple);
    const ConfigCache configs(g, base.config_options);
    const Ordering order = make_ordering(g, base.ordering);
    const std::vector<double> tables = table_sizes(g, order, configs);
    std::vector<double> work(tables.size());
    for (size_t i = 0; i < tables.size(); ++i)
      work[i] = tables[i] *
                static_cast<double>(configs.at(order.seq[i]).size());
    const std::string name = "seed " + std::to_string(seed);

    // Both guards at the first vertex.
    DpOptions first = base;
    first.max_table_entries = 0;
    expect_matches_reference(g, first, name + " table guard at vertex 0");
    first = base;
    first.max_combinations = 0;
    expect_matches_reference(g, first, name + " work guard at vertex 0");

    // Both guards at a middle vertex: the limit is the largest value
    // before it, so that vertex is the first to exceed it.
    const i64 mid_table = middle_record(tables);
    ASSERT_GT(mid_table, 0) << name;
    DpOptions middle = base;
    middle.max_table_entries = static_cast<u64>(*std::max_element(
        tables.begin(), tables.begin() + mid_table));
    const DpResult probe = find_best_strategy(g, middle);
    ASSERT_EQ(probe.trip_cause, DpResult::TripCause::kTableGuard) << name;
    EXPECT_NE(probe.guard_reason.find("vertex " + std::to_string(mid_table) +
                                      " "),
              std::string::npos)
        << name << ": " << probe.guard_reason;
    expect_matches_reference(
        g, middle,
        name + " table guard at vertex " + std::to_string(mid_table));

    const i64 mid_work = middle_record(work);
    ASSERT_GT(mid_work, 0) << name;
    middle = base;
    middle.max_combinations = static_cast<u64>(
        *std::max_element(work.begin(), work.begin() + mid_work));
    const DpResult work_probe = find_best_strategy(g, middle);
    ASSERT_EQ(work_probe.trip_cause, DpResult::TripCause::kWorkGuard) << name;
    EXPECT_NE(work_probe.guard_reason.find(
                  "vertex " + std::to_string(mid_work) + " "),
              std::string::npos)
        << name << ": " << work_probe.guard_reason;
    expect_matches_reference(
        g, middle,
        name + " work guard at vertex " + std::to_string(mid_work));
  }
}

TEST(BeamFallbackOracle, AdditionOrderSensitiveSeeds) {
  // On most inputs a candidate's sum comes out the same in any addition
  // order, or the difference never changes which states are kept. On
  // these seeds (found by scanning seeds 1-300 against a solver that
  // summed the earlier edges in reverse) it does, so they pin the order:
  // state cost + t_l, then the earlier edges in incident order.
  struct Case {
    u64 seed;
    const char* machine;
    CommModelKind comm;
  };
  for (const Case& c : {Case{110, "mixed_pod", CommModelKind::kAuto},
                        Case{127, "mixed_pod", CommModelKind::kSimple},
                        Case{211, "1080ti", CommModelKind::kSimple},
                        Case{221, "mixed_pod", CommModelKind::kSimple}}) {
    DpOptions options = options_for(*machine_preset(c.machine, 8), c.comm);
    options.max_table_entries = 0;
    expect_matches_reference(testing::random_graph(12, 14, c.seed), options,
                             "seed " + std::to_string(c.seed) + " on " +
                                 c.machine);
  }
}

TEST(BeamFallbackOracle, DenseModelFile) {
  std::ifstream in(std::string(PASE_SOURCE_DIR) + "/tools/dense_model.pase");
  std::stringstream text;
  text << in.rdbuf();
  const ModelParseResult model = parse_model(text.str());
  ASSERT_TRUE(model.ok) << model.error;
  for (const i64 p : {4, 8})
    expect_matches_reference(
        model.graph,
        options_for(MachineSpec::gtx1080ti(p), CommModelKind::kSimple),
        "dense_model p " + std::to_string(p));
}

TEST(BeamFallbackOracle, DenseNet) {
  const Graph g = models::densenet();
  for (const i64 p : {8, 64}) {
    expect_matches_reference(
        g, options_for(MachineSpec::gtx1080ti(p), CommModelKind::kSimple),
        "densenet 1080ti/simple p " + std::to_string(p));
    expect_matches_reference(
        g, options_for(*machine_preset("mixed_pod", p), CommModelKind::kAuto),
        "densenet mixed_pod/auto p " + std::to_string(p));
  }
}

}  // namespace
}  // namespace pase
