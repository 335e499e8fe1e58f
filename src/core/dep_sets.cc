#include "core/dep_sets.h"

#include <algorithm>

#include "util/bitset.h"
#include "util/check.h"

namespace pase {

namespace {

/// DFS from `start` through vertices with position < `limit_pos` (plus the
/// start itself); returns visited set.
Bitset dfs_prefix(const Graph& graph, const Ordering& order, NodeId start,
                  i64 limit_pos) {
  Bitset visited(graph.num_nodes());
  std::vector<NodeId> stack{start};
  visited.set(start);
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (NodeId w : graph.neighbors(v)) {
      if (!visited.test(w) && order.pos[static_cast<size_t>(w)] < limit_pos) {
        visited.set(w);
        stack.push_back(w);
      }
    }
  }
  return visited;
}

}  // namespace

VertexSets compute_vertex_sets(const Graph& graph, const Ordering& order,
                               i64 i) {
  const NodeId vi = order.seq[static_cast<size_t>(i)];
  VertexSets out;

  // X(i): reachable from v^(i) through vertices at positions <= i.
  const Bitset x = dfs_prefix(graph, order, vi, i + 1);
  x.for_each([&](i64 v) { out.connected.push_back(static_cast<NodeId>(v)); });

  // D(i) = N(X(i)) n V_>i.
  Bitset dep(graph.num_nodes());
  x.for_each([&](i64 v) {
    for (NodeId w : graph.neighbors(static_cast<NodeId>(v)))
      if (order.pos[static_cast<size_t>(w)] > i) dep.set(w);
  });
  dep.for_each(
      [&](i64 v) { out.dependent.push_back(static_cast<NodeId>(v)); });

  // S(i): components of X(i) - {v^(i)} within the induced prefix subgraph,
  // identified by their max-position anchor.
  Bitset remaining = x;
  remaining.reset(vi);
  while (remaining.any()) {
    NodeId seed = kInvalidNode;
    remaining.for_each([&](i64 v) {
      if (seed == kInvalidNode) seed = static_cast<NodeId>(v);
    });
    // Component of `seed` within positions < i.
    Bitset comp = dfs_prefix(graph, order, seed, i);
    comp &= remaining;  // restrict to X(i) - {v^(i)}
    i64 anchor = -1;
    comp.for_each([&](i64 v) {
      anchor = std::max(anchor, order.pos[static_cast<size_t>(v)]);
    });
    PASE_CHECK(anchor >= 0 && anchor < i);
    out.subset_anchors.push_back(anchor);
    remaining -= comp;
  }
  std::sort(out.subset_anchors.begin(), out.subset_anchors.end());
  return out;
}

AllVertexSets compute_all_vertex_sets(const Graph& graph,
                                      const Ordering& order) {
  const i64 n = static_cast<i64>(order.seq.size());
  AllVertexSets out;
  out.dependent.resize(static_cast<size_t>(n));
  out.subset_anchors.resize(static_cast<size_t>(n));

  // Union-find over the positions of the sequenced prefix V_<i. Each
  // component C is rooted at its maximum position j (the step that merges
  // components makes the new position their root), so C = X(j) and C's
  // frontier N(C) n V_>=i is D(j): a frontier vertex at a position in
  // (j, i) would have joined C.
  std::vector<i64> parent(static_cast<size_t>(n));
  auto find = [&](i64 x) {
    while (parent[static_cast<size_t>(x)] != x) {
      auto& p = parent[static_cast<size_t>(x)];
      p = parent[static_cast<size_t>(p)];  // path halving
      x = p;
    }
    return x;
  };

  for (i64 i = 0; i < n; ++i) {
    const NodeId vi = order.seq[static_cast<size_t>(i)];
    auto& dep = out.dependent[static_cast<size_t>(i)];
    auto& anchors = out.subset_anchors[static_cast<size_t>(i)];
    // S(i): the prefix components v^(i) touches. D(i): its later
    // neighbors plus those components' frontiers, minus v^(i).
    for (const NodeId w : graph.neighbors(vi)) {
      const i64 pw = order.pos[static_cast<size_t>(w)];
      if (pw > i)
        dep.push_back(w);
      else
        anchors.push_back(find(pw));
    }
    std::sort(anchors.begin(), anchors.end());
    anchors.erase(std::unique(anchors.begin(), anchors.end()), anchors.end());
    parent[static_cast<size_t>(i)] = i;
    for (const i64 j : anchors) {
      for (const NodeId w : out.dependent[static_cast<size_t>(j)])
        if (w != vi) dep.push_back(w);
      parent[static_cast<size_t>(j)] = i;
    }
    std::sort(dep.begin(), dep.end());
    dep.erase(std::unique(dep.begin(), dep.end()), dep.end());
    if (dep.empty()) out.roots.push_back(i);
  }
  std::reverse(out.roots.begin(), out.roots.end());
  return out;
}

i64 max_dependent_set_size(const Graph& graph, const Ordering& order) {
  i64 m = 0;
  for (const auto& dep : compute_all_vertex_sets(graph, order).dependent)
    m = std::max(m, static_cast<i64>(dep.size()));
  return m;
}

}  // namespace pase
