// Connected sets X(i), dependent sets D(i) and connected subsets S(i) of
// paper §III-B. compute_vertex_sets derives one position's sets from their
// definitions by DFS over the induced prefix subgraph (matching Fig. 4
// lines 6-7); it is the reference the tests and the dependent-set ablation
// use. compute_all_vertex_sets produces D(i) and S(i) for every position
// in one union-find pass over the sequence — what the DP solver runs.
//
// Thread safety: these are pure functions of (graph, order) — no shared
// mutable state, no caching. Concurrent calls on the same graph/ordering
// are safe. Dependent sets are sorted by node id; the DP solver relies on
// that order when laying out its dense mixed-radix substrategy tables (see
// dp_solver.cc), so it is part of this interface's contract.
#pragma once

#include <vector>

#include "core/ordering.h"
#include "graph/graph.h"
#include "util/types.h"

namespace pase {

/// Per-position vertex sets for position i (0-based) of an ordering.
struct VertexSets {
  /// X(i): vertices of V_<=i connected to v^(i) through V_<=i (incl. v^(i)).
  std::vector<NodeId> connected;
  /// D(i) = N(X(i)) n V_>i, sorted by node id.
  std::vector<NodeId> dependent;
  /// Anchors of S(i): for each connected component of X(i) - {v^(i)}, the
  /// position j of its maximum-position vertex (Fig. 4 line 14), ascending.
  /// The component equals X(j).
  std::vector<i64> subset_anchors;
};

/// Computes X(i), D(i), S(i) for position i of `order` by DFS.
VertexSets compute_vertex_sets(const Graph& graph, const Ordering& order,
                               i64 i);

/// D(i) and S(i) at every position of an ordering, plus the roots.
struct AllVertexSets {
  std::vector<std::vector<NodeId>> dependent;  ///< D(i), sorted by node id
  std::vector<std::vector<i64>> subset_anchors;  ///< S(i), ascending
  /// Positions with an empty D(i), descending: the maximum-position vertex
  /// of each weakly connected component, whose X(i) is that component.
  std::vector<i64> roots;
};

/// All positions in one pass, O(sum_i (|N(v^(i))| + |D(i)|) log |V|).
AllVertexSets compute_all_vertex_sets(const Graph& graph,
                                      const Ordering& order);

/// M = max_i |D(i)| for this ordering — the exponent of the DP complexity.
i64 max_dependent_set_size(const Graph& graph, const Ordering& order);

}  // namespace pase
