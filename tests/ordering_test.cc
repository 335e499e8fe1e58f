#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/dep_sets.h"
#include "core/ordering.h"
#include "models/models.h"
#include "test_util.h"
#include "util/bitset.h"

namespace pase {
namespace {

/// Paper Fig. 3 as written: every step scans the unsequenced vertices in
/// id order for the first strictly smaller |v.d| (the vertex's own entry
/// excluded), then merges on dense bitsets — O(|V|^3 / 64). generate_seq
/// must reproduce it exactly.
Ordering fig3_scan(const Graph& graph) {
  const i64 n = graph.num_nodes();
  Ordering out;
  out.pos.assign(static_cast<size_t>(n), -1);
  out.dep_sets.resize(static_cast<size_t>(n));
  std::vector<Bitset> d(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v)
    d[static_cast<size_t>(v)] = graph.neighbor_set(v);
  Bitset unsequenced(n);
  for (NodeId v = 0; v < n; ++v) unsequenced.set(v);

  for (i64 i = 0; i < n; ++i) {
    NodeId best = kInvalidNode;
    i64 best_size = 0;
    unsequenced.for_each([&](i64 u) {
      const auto& du = d[static_cast<size_t>(u)];
      const i64 size = du.count() - (du.test(u) ? 1 : 0);
      if (best == kInvalidNode || size < best_size) {
        best = static_cast<NodeId>(u);
        best_size = size;
      }
    });
    out.seq.push_back(best);
    out.pos[static_cast<size_t>(best)] = i;
    unsequenced.reset(best);
    d[static_cast<size_t>(best)].reset(best);
    d[static_cast<size_t>(best)].for_each([&](i64 v) {
      out.dep_sets[static_cast<size_t>(i)].push_back(static_cast<NodeId>(v));
    });
    const Bitset merged = d[static_cast<size_t>(best)];
    merged.for_each([&](i64 v) {
      d[static_cast<size_t>(v)] |= merged;
      d[static_cast<size_t>(v)].reset(best);
    });
  }
  return out;
}

/// Component roots by covered-set walk: downwards from the last position,
/// every vertex no earlier root's X(i) covers starts a new component.
std::vector<i64> covered_set_roots(const Graph& g, const Ordering& o) {
  std::vector<i64> roots;
  Bitset covered(g.num_nodes());
  for (i64 i = g.num_nodes() - 1; i >= 0; --i) {
    if (covered.test(o.seq[static_cast<size_t>(i)])) continue;
    roots.push_back(i);
    for (NodeId v : compute_vertex_sets(g, o, i).connected) covered.set(v);
  }
  return roots;
}

/// `a` and `b` side by side, b's ids shifted past a's: two components.
Graph disjoint_union(const Graph& a, const Graph& b) {
  Graph g = a;
  const NodeId shift = static_cast<NodeId>(a.num_nodes());
  for (const Node& node : b.nodes()) g.add_node(node);
  for (const Edge& e : b.edges())
    g.add_edge(e.src + shift, e.dst + shift, e.shape, e.src_dims, e.dst_dims);
  return g;
}

/// generate_seq equals the Fig. 3 scan, and under both orderings the
/// one-pass D(i), S(i) and roots equal their DFS definitions.
void expect_matches_oracles(const Graph& g) {
  const Ordering o = generate_seq(g);
  const Ordering scan = fig3_scan(g);
  ASSERT_EQ(o.seq, scan.seq);
  ASSERT_EQ(o.pos, scan.pos);
  ASSERT_EQ(o.dep_sets, scan.dep_sets);
  for (const Ordering& order : {o, breadth_first(g)}) {
    const AllVertexSets all = compute_all_vertex_sets(g, order);
    for (i64 i = 0; i < g.num_nodes(); ++i) {
      const VertexSets s = compute_vertex_sets(g, order, i);
      ASSERT_EQ(all.dependent[static_cast<size_t>(i)], s.dependent)
          << "position " << i;
      ASSERT_EQ(all.subset_anchors[static_cast<size_t>(i)], s.subset_anchors)
          << "position " << i;
    }
    ASSERT_EQ(all.roots, covered_set_roots(g, order));
  }
}

void expect_permutation(const Graph& g, const Ordering& o) {
  ASSERT_EQ(static_cast<i64>(o.seq.size()), g.num_nodes());
  std::set<NodeId> seen(o.seq.begin(), o.seq.end());
  EXPECT_EQ(static_cast<i64>(seen.size()), g.num_nodes());
  for (i64 i = 0; i < g.num_nodes(); ++i)
    EXPECT_EQ(o.pos[static_cast<size_t>(o.seq[static_cast<size_t>(i)])], i);
}

TEST(Ordering, GenerateSeqIsPermutation) {
  for (const auto& b : models::paper_benchmarks())
    expect_permutation(b.graph, generate_seq(b.graph));
}

TEST(Ordering, BreadthFirstIsPermutation) {
  for (const auto& b : models::paper_benchmarks())
    expect_permutation(b.graph, breadth_first(b.graph));
}

TEST(Ordering, MakeOrderingDispatch) {
  const Graph g = models::alexnet();
  EXPECT_EQ(make_ordering(g, OrderingKind::kGenerateSeq).seq,
            generate_seq(g).seq);
  EXPECT_EQ(make_ordering(g, OrderingKind::kBreadthFirst).seq,
            breadth_first(g).seq);
}

TEST(Ordering, DeterministicAcrossRuns) {
  const Graph g = models::inception_v3();
  EXPECT_EQ(generate_seq(g).seq, generate_seq(g).seq);
  EXPECT_EQ(breadth_first(g).seq, breadth_first(g).seq);
}

// Theorem 2: the v.d sets maintained incrementally by GenerateSeq equal the
// definitional dependent sets D(i) computed by DFS. Each parameter also
// checks a block of 25 more seeded graphs against the oracles above — 300
// in all, of 4 to 20 nodes, every fifth one joined by a second graph it
// shares no edge with.
class Theorem2Sweep : public ::testing::TestWithParam<u64> {};

TEST_P(Theorem2Sweep, GenerateSeqDepSetsMatchDefinition) {
  const Graph g = testing::random_graph(10, 6, GetParam());
  const Ordering o = generate_seq(g);
  for (i64 i = 0; i < g.num_nodes(); ++i) {
    const VertexSets s = compute_vertex_sets(g, o, i);
    EXPECT_EQ(o.dep_sets[static_cast<size_t>(i)], s.dependent)
        << "position " << i;
  }

  constexpr u64 kSeedsPerParam = 25;
  for (u64 k = 0; k < kSeedsPerParam; ++k) {
    const u64 seed = (GetParam() - 1) * kSeedsPerParam + k + 1;
    SCOPED_TRACE("seed " + std::to_string(seed));
    const i64 n = 4 + static_cast<i64>(seed % 17);
    Graph r = testing::random_graph(n, static_cast<i64>(seed % 9), seed);
    if (seed % 5 == 0)
      r = disjoint_union(r, testing::random_graph(3 + n / 2, 2, seed + 1000));
    expect_matches_oracles(r);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem2Sweep,
                         ::testing::Range<u64>(1, 13));

TEST(Ordering, Theorem2OnPaperBenchmarks) {
  for (const char* name :
       {"alexnet", "inception_v3", "rnnlm", "transformer", "densenet",
        "resnet50", "vgg16", "mobilenet_v1", "gnmt", "mlp", "resnet_large_p",
        "transformer_pipelined", "transformer_stack_50",
        "transformer_stack_250"}) {
    SCOPED_TRACE(name);
    const Graph g = *models::zoo_graph(name);
    const Ordering o = generate_seq(g);
    for (i64 i = 0; i < g.num_nodes(); ++i) {
      const VertexSets s = compute_vertex_sets(g, o, i);
      ASSERT_EQ(o.dep_sets[static_cast<size_t>(i)], s.dependent)
          << name << " position " << i;
    }
    expect_matches_oracles(g);
  }
}

TEST(Ordering, PathGraphDependentSetsAreSingletons) {
  // AlexNet is a path graph: |D(i)| <= 1 for every vertex under any
  // ordering family we provide (paper Table I discussion).
  const Graph g = models::alexnet();
  EXPECT_LE(max_dependent_set_size(g, generate_seq(g)), 1);
  EXPECT_LE(max_dependent_set_size(g, breadth_first(g)), 1);
}

TEST(Ordering, RnnlmIsPathGraphToo) {
  const Graph g = models::rnnlm();
  EXPECT_LE(max_dependent_set_size(g, generate_seq(g)), 1);
  EXPECT_LE(max_dependent_set_size(g, breadth_first(g)), 1);
}

TEST(Ordering, InceptionGenerateSeqKeepsDependentSetsTiny) {
  // Paper §III-C: GenerateSeq keeps |D(i) u {v^(i)}| <= 3 for InceptionV3
  // while breadth-first lets dependent sets reach ~10.
  const Graph g = models::inception_v3();
  EXPECT_LE(max_dependent_set_size(g, generate_seq(g)), 2);
  EXPECT_GE(max_dependent_set_size(g, breadth_first(g)), 5);
}

TEST(Ordering, TransformerGenerateSeqBeatsBreadthFirst) {
  const Graph g = models::transformer();
  const i64 m_gs = max_dependent_set_size(g, generate_seq(g));
  const i64 m_bf = max_dependent_set_size(g, breadth_first(g));
  EXPECT_LT(m_gs, m_bf);
  EXPECT_LE(m_gs, 4);
}

TEST(Ordering, GenerateSeqNeverWorseOnRandomGraphs) {
  for (u64 seed = 1; seed <= 10; ++seed) {
    const Graph g = testing::random_graph(12, 5, seed);
    EXPECT_LE(max_dependent_set_size(g, generate_seq(g)),
              max_dependent_set_size(g, breadth_first(g)))
        << "seed " << seed;
  }
}

TEST(Ordering, DenseGraphKeepsLargeDependentSets) {
  // Paper §V: for uniformly dense graphs (DenseNet) no ordering helps.
  const Graph g = models::densenet(32, 1, 6, 32);
  EXPECT_GE(max_dependent_set_size(g, generate_seq(g)), 4);
}

TEST(Ordering, SingleNodeGraph) {
  Graph g;
  g.add_node(ops::fully_connected("only", 4, 4, 4));
  const Ordering o = generate_seq(g);
  ASSERT_EQ(o.seq.size(), 1u);
  EXPECT_TRUE(o.dep_sets[0].empty());
}

}  // namespace
}  // namespace pase
