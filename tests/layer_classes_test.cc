#include "cost/layer_classes.h"

#include <gtest/gtest.h>

#include "core/dp_solver.h"
#include "cost/cost_model.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "ops/ops.h"
#include "search/brute_force.h"

namespace pase {
namespace {

// ---- Structural equivalence classes.

LayerClasses classes_at_p8(const Graph& g) {
  ConfigOptions opts;
  opts.max_devices = 8;
  return LayerClasses(g, ConfigCache(g, opts));
}

TEST(LayerClasses, IdenticalLayersShareAClass) {
  // mlp(16, {64, 64, 64}) stacks FC layers with identical shapes; the
  // repeated middle layers must collapse into one class.
  const Graph g = models::mlp(16, {64, 64, 64, 64});
  const LayerClasses classes = classes_at_p8(g);
  EXPECT_LT(classes.num_node_classes(), g.num_nodes());
  EXPECT_LT(classes.num_edge_classes(), g.num_edges());
}

TEST(LayerClasses, TransformerLayerStackSharesClasses) {
  // 6 structurally identical encoder and decoder layers: class count must
  // be far below the node count.
  const Graph g = models::transformer();
  const LayerClasses classes = classes_at_p8(g);
  EXPECT_LT(classes.num_node_classes(), g.num_nodes() / 2);
}

TEST(LayerClasses, DistinctLayersGetDistinctClasses) {
  Graph g;
  const NodeId a = g.add_node(ops::fully_connected("A", 64, 4096, 1024));
  const NodeId b = g.add_node(ops::fully_connected("B", 64, 4096, 4096));
  const NodeId c = g.add_node(ops::fully_connected("C", 64, 4096, 1024));
  g.add_edge_named(a, b, {"b", "n"}, {"b", "c"});
  g.add_edge_named(b, c, {"b", "n"}, {"b", "c"});
  const LayerClasses classes = classes_at_p8(g);
  EXPECT_NE(classes.node_class(a), classes.node_class(b));
  EXPECT_EQ(classes.node_class(a), classes.node_class(c));  // A and C identical
}

TEST(LayerClasses, NarrowedListGetsAClassOfItsOwn) {
  // FC2..FC4 are structurally identical. A filter that narrows FC3's list
  // alone splits FC3 off, and with it the edges FC3 touches, so a class id
  // alone tells whether two prices range over the same lists.
  const Graph g = models::mlp(16, {32, 64, 64, 64, 64});
  auto node = [&](const std::string& name) {
    for (const Node& n : g.nodes())
      if (n.name == name) return n.id;
    return kInvalidNode;
  };
  auto edge = [&](NodeId src, NodeId dst) {
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      if (g.edge(e).src == src && g.edge(e).dst == dst) return e;
    return EdgeId{-1};
  };
  const NodeId fc2 = node("FC2"), fc3 = node("FC3"), fc4 = node("FC4");
  ConfigOptions opts;
  opts.max_devices = 4;
  const LayerClasses wide(g, ConfigCache(g, opts));
  EXPECT_EQ(wide.node_class(fc2), wide.node_class(fc3));
  EXPECT_EQ(wide.node_class(fc3), wide.node_class(fc4));
  EXPECT_EQ(wide.edge_class(edge(fc2, fc3)), wide.edge_class(edge(fc3, fc4)));

  opts.filter = [](const Node& n, const Config& c) {
    return n.name != "FC3" || c.degree() < 4;
  };
  const LayerClasses narrowed(g, ConfigCache(g, opts));
  EXPECT_NE(narrowed.node_class(fc2), narrowed.node_class(fc3));
  EXPECT_EQ(narrowed.node_class(fc2), narrowed.node_class(fc4));
  EXPECT_NE(narrowed.edge_class(edge(fc2, fc3)),
            narrowed.edge_class(edge(fc3, fc4)));
}

// ---- End-to-end: class-shared prices are invisible in DP results.

TEST(LayerClasses, SharedPricesMatchBruteForce) {
  // FC2..FC4 share one class, so the DP reuses their t_l vectors and
  // t_x matrices. A filter that admits fewer configurations for FC3 alone
  // gives FC3 a list, and so a class, of its own. Either way the DP must
  // agree with exhaustive search.
  const Graph g = models::mlp(16, {32, 64, 64, 64, 64});
  for (const bool narrowed : {false, true}) {
    DpOptions o;
    o.config_options.max_devices = 4;
    o.cost_params = CostParams::for_machine(MachineSpec::gtx1080ti(4));
    if (narrowed)
      o.config_options.filter = [](const Node& n, const Config& c) {
        return n.name != "FC3" || c.degree() < 4;
      };
    MetricsRegistry reg;
    o.metrics = &reg;
    const DpResult dp = find_best_strategy(g, o);
    ASSERT_EQ(dp.status, DpStatus::kOk) << "narrowed=" << narrowed;
    if (!narrowed) {
      EXPECT_GT(reg.counter("dp.class_memo.node_hits"), 0u);
      EXPECT_GT(reg.counter("dp.class_memo.edge_hits"), 0u);
    } else {
      // Only FC4 reuses FC2's t_l; FC3 and every edge are priced apart.
      // (Sharing FC2's prices with FC3 happens to leave this optimum
      // unchanged, so the cost checks below alone would not notice.)
      EXPECT_EQ(reg.counter("dp.class_memo.node_hits"), 1u);
      EXPECT_EQ(reg.counter("dp.class_memo.edge_hits"), 0u);
    }

    const auto bf = brute_force_search(g, o.config_options, o.cost_params);
    ASSERT_TRUE(bf.has_value());
    EXPECT_NEAR(dp.best_cost, bf->best_cost, 1e-9 * bf->best_cost)
        << "narrowed=" << narrowed;
    const CostModel cm(g, o.cost_params);
    EXPECT_NEAR(cm.total_cost(dp.strategy), dp.best_cost,
                1e-9 * dp.best_cost)
        << "narrowed=" << narrowed;
  }
}

// ---- Exact sharing counts.

TEST(LayerClasses, SharedPriceCountsAreExact) {
  // How many t_l vectors and t_x tables the solver reuses instead of
  // pricing, how many combinations it reduces, and the most substrategy
  // table bytes alive at once, pinned at 1 and 4 threads: a pricer that
  // shared less would re-price, one that shared more would reuse a price
  // across classes, and a solver that kept a cost array past its one
  // reader would peak higher. The counts depend on the graph and its
  // configuration lists, not on the machine or the comm model.
  struct Case {
    const char* model;
    i64 p;
    u64 node_hits, edge_hits, combinations;
    i64 table_bytes_peak;
  };
  // Edges are keyed on their endpoints' lists, not their endpoint classes,
  // so an edge between layers that differ only in FLOPs or parameters
  // shares its table too.
  for (const Case& c :
       {Case{"transformer_stack_1000", 8, 5997, 7995, 6291510, 2442600},
        Case{"inception_v3", 64, 137, 181, 10262069, 934508},
        Case{"transformer", 64, 87, 114, 9313276, 1685712}}) {
    const Graph g = *models::zoo_graph(c.model);
    for (const i64 threads : {1, 4}) {
      SCOPED_TRACE(std::string(c.model) + " at p = " + std::to_string(c.p) +
                   ", " + std::to_string(threads) + " threads");
      DpOptions o;
      o.config_options.max_devices = c.p;
      o.cost_params = CostParams::for_machine(MachineSpec::gtx1080ti(c.p));
      o.num_threads = threads;
      MetricsRegistry reg;
      o.metrics = &reg;
      ASSERT_EQ(find_best_strategy(g, o).status, DpStatus::kOk);
      EXPECT_EQ(reg.counter("dp.class_memo.node_hits"), c.node_hits);
      EXPECT_EQ(reg.counter("dp.class_memo.edge_hits"), c.edge_hits);
      EXPECT_EQ(reg.counter("dp.combinations"), c.combinations);
      const auto peak = reg.histogram("dp.table_bytes_peak");
      EXPECT_EQ(peak.count, 1u);
      EXPECT_EQ(peak.sum, c.table_bytes_peak);
    }
  }
}

}  // namespace
}  // namespace pase
