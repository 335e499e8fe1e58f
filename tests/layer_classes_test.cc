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

TEST(LayerClasses, IdenticalLayersShareAClass) {
  // mlp(16, {64, 64, 64}) stacks FC layers with identical shapes; the
  // repeated middle layers must collapse into one class.
  const Graph g = models::mlp(16, {64, 64, 64, 64});
  const LayerClasses classes(g);
  EXPECT_LT(classes.num_node_classes(), g.num_nodes());
  EXPECT_LT(classes.num_edge_classes(), g.num_edges());
}

TEST(LayerClasses, TransformerLayerStackSharesClasses) {
  // 6 structurally identical encoder and decoder layers: class count must
  // be far below the node count.
  const Graph g = models::transformer();
  const LayerClasses classes(g);
  EXPECT_LT(classes.num_node_classes(), g.num_nodes() / 2);
}

TEST(LayerClasses, DistinctLayersGetDistinctClasses) {
  Graph g;
  const NodeId a = g.add_node(ops::fully_connected("A", 64, 4096, 1024));
  const NodeId b = g.add_node(ops::fully_connected("B", 64, 4096, 4096));
  const NodeId c = g.add_node(ops::fully_connected("C", 64, 4096, 1024));
  g.add_edge_named(a, b, {"b", "n"}, {"b", "c"});
  g.add_edge_named(b, c, {"b", "n"}, {"b", "c"});
  const LayerClasses classes(g);
  EXPECT_NE(classes.node_class(a), classes.node_class(b));
  EXPECT_EQ(classes.node_class(a), classes.node_class(c));  // A and C identical
}

// ---- End-to-end: class-shared prices are invisible in DP results.

TEST(LayerClasses, SharedPricesMatchBruteForce) {
  // FC2..FC4 share one class, so the DP reuses their t_l vectors and
  // t_x matrices. A filter that admits fewer configurations for FC3 alone
  // makes the configuration-list check refuse the shared entries for it.
  // Either way the DP must agree with exhaustive search.
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

}  // namespace
}  // namespace pase
