#include <gtest/gtest.h>

#include <set>

#include "config/config_enum.h"
#include "graph/graph.h"
#include "models/models.h"
#include "ops/ops.h"

namespace pase {
namespace {

IterSpace space3(i64 a, i64 b, i64 c) {
  return IterSpace({{"x", a, true}, {"y", b, true}, {"z", c, true}});
}

TEST(Config, BasicOps) {
  Config c{2, 4, 1};
  EXPECT_EQ(c.rank(), 3);
  EXPECT_EQ(c[0], 2);
  EXPECT_EQ(c.degree(), 8);
  EXPECT_EQ(c.to_string(), "(2, 4, 1)");
  c.set(2, 3);
  EXPECT_EQ(c.degree(), 24);
}

TEST(Config, Ones) {
  const Config c = Config::ones(5);
  EXPECT_EQ(c.rank(), 5);
  EXPECT_EQ(c.degree(), 1);
}

TEST(Config, EqualityAndHash) {
  const Config a{2, 4}, b{2, 4}, c{4, 2};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
}

TEST(ConfigEnum, CountsForKnownCase) {
  // 3 splittable dims, pow2 factors, product <= 8:
  // #tuples = sum_{e=0..3} C(e+2,2) = 1 + 3 + 6 + 10 = 20.
  ConfigOptions opts;
  opts.max_devices = 8;
  const auto configs = enumerate_configs(space3(64, 64, 64), opts);
  EXPECT_EQ(configs.size(), 20u);
}

TEST(ConfigEnum, SerialConfigFirst) {
  ConfigOptions opts;
  opts.max_devices = 8;
  const auto configs = enumerate_configs(space3(64, 64, 64), opts);
  EXPECT_EQ(configs.front(), Config::ones(3));
}

TEST(ConfigEnum, AllUnique) {
  ConfigOptions opts;
  opts.max_devices = 16;
  const auto configs = enumerate_configs(space3(64, 64, 64), opts);
  std::set<std::string> seen;
  for (const Config& c : configs) seen.insert(c.to_string());
  EXPECT_EQ(seen.size(), configs.size());
}

class ConfigEnumSweep : public ::testing::TestWithParam<i64> {};

TEST_P(ConfigEnumSweep, DegreeWithinBudgetAndPow2) {
  const i64 p = GetParam();
  ConfigOptions opts;
  opts.max_devices = p;
  for (const Config& c : enumerate_configs(space3(128, 128, 128), opts)) {
    EXPECT_LE(c.degree(), p);
    for (i64 d = 0; d < c.rank(); ++d) EXPECT_TRUE(is_pow2(c[d]));
  }
}

TEST_P(ConfigEnumSweep, MonotoneInP) {
  const i64 p = GetParam();
  ConfigOptions small, large;
  small.max_devices = p;
  large.max_devices = p * 2;
  const IterSpace s = space3(256, 256, 256);
  EXPECT_LT(enumerate_configs(s, small).size(),
            enumerate_configs(s, large).size());
}

INSTANTIATE_TEST_SUITE_P(P, ConfigEnumSweep,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

TEST(ConfigEnum, NonSplittableDimsStaySerial) {
  ConfigOptions opts;
  opts.max_devices = 16;
  const Node conv = ops::conv2d("c", 32, 16, 8, 8, 64, 3, 3);
  for (const Config& c : enumerate_node_configs(conv, opts)) {
    EXPECT_EQ(c[2], 1);  // h
    EXPECT_EQ(c[3], 1);  // w
    EXPECT_EQ(c[5], 1);  // r
    EXPECT_EQ(c[6], 1);  // s
  }
}

TEST(ConfigEnum, SpatialSplitOptIn) {
  ConfigOptions opts;
  opts.max_devices = 16;
  const Node conv = ops::conv2d("c", 32, 16, 8, 8, 64, 3, 3,
                                /*allow_spatial_split=*/true);
  bool saw_spatial = false;
  for (const Config& c : enumerate_node_configs(conv, opts))
    saw_spatial |= c[2] > 1 || c[3] > 1;
  EXPECT_TRUE(saw_spatial);
}

TEST(ConfigEnum, CapByExtent) {
  ConfigOptions opts;
  opts.max_devices = 64;
  const auto configs = enumerate_configs(space3(2, 4, 64), opts);
  for (const Config& c : configs) {
    EXPECT_LE(c[0], 2);
    EXPECT_LE(c[1], 4);
  }
}

TEST(ConfigEnum, FullUseRequiresExactProduct) {
  ConfigOptions opts;
  opts.max_devices = 8;
  opts.require_full_use = true;
  const auto configs = enumerate_configs(space3(64, 64, 64), opts);
  // #pow2 3-tuples with product exactly 8 = C(3+2,2) = 10.
  EXPECT_EQ(configs.size(), 10u);
  for (const Config& c : configs) EXPECT_EQ(c.degree(), 8);
}

TEST(ConfigEnum, NonPow2Factors) {
  ConfigOptions opts;
  opts.max_devices = 6;
  opts.powers_of_two_only = false;
  bool saw3 = false;
  for (const Config& c : enumerate_configs(space3(64, 64, 64), opts)) {
    EXPECT_LE(c.degree(), 6);
    for (i64 d = 0; d < 3; ++d) saw3 |= c[d] == 3;
  }
  EXPECT_TRUE(saw3);
}

TEST(ConfigCache, CoversAllNodesAndReportsK) {
  const Graph g = models::alexnet();
  ConfigOptions opts;
  opts.max_devices = 8;
  const ConfigCache cache(g, opts);
  EXPECT_EQ(cache.num_nodes(), g.num_nodes());
  i64 k = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_FALSE(cache.at(v).empty());
    k = std::max(k, static_cast<i64>(cache.at(v).size()));
  }
  EXPECT_EQ(cache.max_configs(), k);
}

TEST(ConfigCache, PaperReportedKRangeForInception) {
  // Paper §III-C: 10-30 configurations per vertex at p = 8, up to ~100 at
  // p = 64 for InceptionV3.
  const Graph g = models::inception_v3();
  ConfigOptions opts;
  opts.max_devices = 8;
  EXPECT_LE(ConfigCache(g, opts).max_configs(), 30);
  opts.max_devices = 64;
  const i64 k64 = ConfigCache(g, opts).max_configs();
  EXPECT_GE(k64, 50);
  EXPECT_LE(k64, 120);
}

/// Checks ConfigCache against the per-node path: at(v) equals
/// enumerate_node_configs for every node, two nodes share a list id iff
/// their lists are equal, and equal ids hand out the same storage.
void expect_one_stored_list_per_distinct_list(const Graph& g,
                                              const ConfigOptions& opts) {
  const ConfigCache cache(g, opts);
  ASSERT_EQ(cache.num_nodes(), g.num_nodes());
  std::set<u32> ids;
  for (const Node& n : g.nodes()) {
    ASSERT_EQ(cache.at(n.id), enumerate_node_configs(n, opts)) << n.name;
    ids.insert(cache.list_id(n.id));
  }
  EXPECT_EQ(static_cast<i64>(ids.size()), cache.num_lists());
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
      const bool equal = cache.at(u) == cache.at(v);
      ASSERT_EQ(cache.list_id(u) == cache.list_id(v), equal)
          << g.node(u).name << " vs " << g.node(v).name;
      if (equal) {
        ASSERT_EQ(&cache.at(u), &cache.at(v));
      }
    }
}

TEST(ConfigCache, EqualListsShareOneStoredList) {
  {
    SCOPED_TRACE("inception_v3, all split dims, p = 32");
    ConfigOptions opts;
    opts.max_devices = 32;
    opts.split_dims = *parse_split_dims("all");
    expect_one_stored_list_per_distinct_list(models::inception_v3(), opts);
  }
  {
    SCOPED_TRACE("transformer_stack_100, p = 8");
    const Graph g = models::transformer_stack(100);
    ConfigOptions opts;
    opts.max_devices = 8;
    expect_one_stored_list_per_distinct_list(g, opts);
    // 604 nodes, three distinct lists.
    EXPECT_EQ(ConfigCache(g, opts).num_lists(), 3);
  }
  {
    // The filter narrows FC3 alone, so its list is stored apart from the
    // lists of FC2 and FC4, which it would otherwise share.
    SCOPED_TRACE("mlp, FC3 narrowed, p = 4");
    ConfigOptions opts;
    opts.max_devices = 4;
    opts.filter = [](const Node& n, const Config& c) {
      return n.name != "FC3" || c.degree() < 4;
    };
    expect_one_stored_list_per_distinct_list(
        models::mlp(16, {32, 64, 64, 64, 64}), opts);
  }
}

}  // namespace
}  // namespace pase
