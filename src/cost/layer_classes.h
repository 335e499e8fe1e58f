// Structural equivalence classes of layers and edges.
//
// Real DNNs repeat structure — the Transformer stacks 6 identical encoder
// layers, InceptionV3 repeats whole modules — so many layers (and edges)
// are byte-for-byte copies of one another as far as the cost model can
// tell. LayerClasses groups nodes (and edges) into classes at construction
// by comparing every field the cost model reads (iteration space extents,
// FLOP density, parameter tensors, reduction dims, halos, output spec; edge
// tensor shape and dim maps) plus the configuration lists prices range over
// (a node's ConfigCache list id; an edge's two endpoint list ids — t_x
// reads nothing else of its endpoints, so edges between layers that differ
// only in FLOPs or parameters share a class). Class construction is exact
// (full structural comparison, no hashing shortcut), so two same-class
// nodes have the same configuration list and the same t_l for every
// configuration in it, and two same-class edges the same endpoint lists and
// the same t_x for every pair of endpoint configurations. A class id alone
// therefore decides whether a price can be reused.
//
// The DP solver indexes its t_l vectors by node class and its t_x tables
// by oriented edge class (core/dp_solver.cc), so a model that repeats a
// layer prices it once. Immutable after construction; safe to share across
// threads.
#pragma once

#include <vector>

#include "config/config_enum.h"
#include "graph/graph.h"
#include "util/types.h"

namespace pase {

class LayerClasses {
 public:
  LayerClasses(const Graph& graph, const ConfigCache& configs);

  /// Structural class ids: nodes with equal ids have equal configuration
  /// lists and identical cost behaviour for every configuration; likewise
  /// edges, over both endpoints' lists.
  u32 node_class(NodeId v) const {
    return node_class_[static_cast<size_t>(v)];
  }
  u32 edge_class(EdgeId e) const {
    return edge_class_[static_cast<size_t>(e)];
  }
  i64 num_node_classes() const { return num_node_classes_; }
  i64 num_edge_classes() const { return num_edge_classes_; }

 private:
  std::vector<u32> node_class_;
  std::vector<u32> edge_class_;
  i64 num_node_classes_ = 0;
  i64 num_edge_classes_ = 0;
};

}  // namespace pase
