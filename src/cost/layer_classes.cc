#include "cost/layer_classes.h"

#include <map>

#include "graph/iter_space.h"

namespace pase {

namespace {

/// Exact structural signature of everything layer_cost() reads from a Node.
/// Built as a flat integer/double vector and compared with std::map's exact
/// ordering, so two nodes share a class iff the cost model cannot tell them
/// apart (names and op kinds are irrelevant to cost).
std::vector<double> node_signature(const Node& n) {
  std::vector<double> s;
  s.push_back(static_cast<double>(n.space.rank()));
  for (i64 d = 0; d < n.space.rank(); ++d)
    s.push_back(static_cast<double>(n.space.dim(d).size));
  s.push_back(n.flops_per_point);
  s.push_back(static_cast<double>(n.reduction_dims.size()));
  for (i32 d : n.reduction_dims) s.push_back(static_cast<double>(d));
  s.push_back(static_cast<double>(n.params.size()));
  for (const ParamTensor& p : n.params) {
    s.push_back(static_cast<double>(p.volume));
    s.push_back(static_cast<double>(p.dims.size()));
    for (i32 d : p.dims) s.push_back(static_cast<double>(d));
  }
  s.push_back(static_cast<double>(n.halos.size()));
  for (const HaloSpec& h : n.halos) {
    s.push_back(static_cast<double>(h.dim));
    s.push_back(static_cast<double>(h.width));
  }
  s.push_back(static_cast<double>(n.output.volume));
  s.push_back(static_cast<double>(n.output.dims.size()));
  for (i32 d : n.output.dims) s.push_back(static_cast<double>(d));
  return s;
}

/// Everything transfer_bytes() reads from an Edge (endpoints excluded: the
/// cost depends only on the tensor and its dim maps, not on which node ids
/// carry it).
std::vector<double> edge_signature(const Edge& e) {
  std::vector<double> s;
  s.push_back(static_cast<double>(e.shape.size()));
  for (i64 x : e.shape) s.push_back(static_cast<double>(x));
  for (i32 x : e.src_dims) s.push_back(static_cast<double>(x));
  for (i32 x : e.dst_dims) s.push_back(static_cast<double>(x));
  return s;
}

}  // namespace

LayerClasses::LayerClasses(const Graph& graph) {
  std::map<std::vector<double>, u32> node_ids;
  node_class_.reserve(static_cast<size_t>(graph.num_nodes()));
  for (const Node& n : graph.nodes()) {
    const auto [it, inserted] = node_ids.emplace(
        node_signature(n), static_cast<u32>(node_ids.size()));
    (void)inserted;
    node_class_.push_back(it->second);
  }
  num_node_classes_ = static_cast<i64>(node_ids.size());

  std::map<std::vector<double>, u32> edge_ids;
  edge_class_.reserve(static_cast<size_t>(graph.num_edges()));
  for (const Edge& e : graph.edges()) {
    const auto [it, inserted] = edge_ids.emplace(
        edge_signature(e), static_cast<u32>(edge_ids.size()));
    (void)inserted;
    edge_class_.push_back(it->second);
  }
  num_edge_classes_ = static_cast<i64>(edge_ids.size());
}

}  // namespace pase
