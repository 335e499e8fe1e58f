// Vertex orderings. The DP of recurrence (4) works with any ordering; its
// complexity is exponential in the largest dependent-set size M, which is a
// function of the ordering. GenerateSeq (paper Fig. 3) greedily keeps
// dependent sets small; breadth-first ordering is the paper's baseline that
// runs out of memory on InceptionV3/Transformer (Table I).
#pragma once

#include <vector>

#include "graph/graph.h"
#include "util/types.h"

namespace pase {

enum class OrderingKind {
  kGenerateSeq,   ///< paper Fig. 3
  kBreadthFirst,  ///< paper §III-A baseline
};

struct Ordering {
  /// seq[i] = node id of the (i+1)-th vertex v^(i+1) (0-based here).
  std::vector<NodeId> seq;
  /// pos[v] = position of node v in seq.
  std::vector<i64> pos;

  /// dep_sets[i] = v^(i).d at the moment v^(i) is sequenced (Fig. 3),
  /// sorted by node id; equal to D(i) by Theorem 2. Only populated by
  /// generate_seq().
  std::vector<std::vector<NodeId>> dep_sets;
};

/// Paper Fig. 3: greedy minimum-|v.d| sequencing. Ties are broken by
/// smallest node id for determinism. The v.d sets are sorted vectors and
/// the pick is the top of a (|v.d|, id) min-heap, so a step costs the
/// merges it performs plus O(log |V|) per size change — near-linear for
/// the bounded dependent sets real DNNs have (DESIGN.md §12).
Ordering generate_seq(const Graph& graph);

/// Breadth-first traversal from node 0, direction-agnostic.
Ordering breadth_first(const Graph& graph);

Ordering make_ordering(const Graph& graph, OrderingKind kind);

}  // namespace pase
