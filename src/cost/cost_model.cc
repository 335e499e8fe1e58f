#include "cost/cost_model.h"

#include <algorithm>

#include "util/check.h"

namespace pase {

double ring_all_reduce_bytes(double bytes, i64 group) {
  if (group <= 1) return 0.0;
  return 2.0 * bytes * static_cast<double>(group - 1) /
         static_cast<double>(group);
}

namespace {

/// Product of config factors over a dim subset, clamped to >= 1.
double split_product(const Config& c, const std::vector<i32>& dims) {
  double prod = 1.0;
  for (i32 d : dims) prod *= static_cast<double>(c[d]);
  return prod;
}

}  // namespace

std::vector<CollectiveComm> layer_collectives(const Node& node,
                                              const Config& config,
                                              const CostParams& params) {
  PASE_CHECK(config.rank() == node.space.rank());
  const double degree = static_cast<double>(config.degree());
  std::vector<CollectiveComm> out;

  // (a) Partial-sum all-reduce when reduction dims are split: each device
  // holds a shard of the (reduction) output and reduces it across the
  // reduction group. Happens in forward and (for input gradients) backward.
  const double reduce_group = split_product(config, node.reduction_dims);
  if (reduce_group > 1.0 && node.output.volume > 0) {
    const double out_shard_bytes = static_cast<double>(node.output.volume) /
                                   split_product(config, node.output.dims) *
                                   params.bytes_per_element;
    out.push_back(CollectiveComm{
        CollectiveComm::Kind::kReduceAllReduce,
        params.fwd_bwd_comm_multiplier *
            ring_all_reduce_bytes(out_shard_bytes,
                                  static_cast<i64>(reduce_group)),
        static_cast<i64>(reduce_group),
        params.fwd_bwd_comm_multiplier * out_shard_bytes});
  }

  // (b) Gradient all-reduce: devices that are replicas w.r.t. a parameter
  // tensor (they agree on all dims indexing it) must average its gradient
  // once per step. This is the term that makes pure data parallelism
  // expensive for parameter-heavy layers.
  for (const ParamTensor& p : node.params) {
    const double owners = split_product(config, p.dims);
    const i64 group = static_cast<i64>(degree / owners + 0.5);
    if (group > 1) {
      const double shard_bytes =
          static_cast<double>(p.volume) / owners * params.bytes_per_element;
      out.push_back(CollectiveComm{
          CollectiveComm::Kind::kGradientAllReduce,
          ring_all_reduce_bytes(shard_bytes, group), group, shard_bytes});
    }
  }

  // (c) Halo exchange when a stencil's spatial dim is split: two one-sided
  // boundary planes per split dim, forward and backward.
  for (const HaloSpec& h : node.halos) {
    if (config[h.dim] <= 1) continue;
    // Elements in one unit-thick plane orthogonal to the halo dim, per
    // device (the other output dims are split too).
    double plane = static_cast<double>(node.output.volume) /
                   static_cast<double>(node.space.dim(h.dim).size);
    for (i32 d : node.output.dims)
      if (d != h.dim) plane /= static_cast<double>(config[d]);
    out.push_back(CollectiveComm{
        CollectiveComm::Kind::kHaloExchange,
        params.fwd_bwd_comm_multiplier * 2.0 *
            static_cast<double>(h.width) * plane * params.bytes_per_element,
        config[h.dim], 0.0});
  }
  return out;
}

double layer_flops(const Node& node, const Config& config,
                   const CostParams& params) {
  PASE_CHECK(config.rank() == node.space.rank());
  // Computation: FLOPs are divided evenly across the participating devices.
  // Under the hetero tables the proportional-shard scale (<= 1, exactly 1.0
  // when absent) re-expresses the division over the degree fastest devices
  // in weakest-device FLOP-equivalents (src/hetero/hetero.h).
  return node.fwd_flops() * (1.0 + params.bwd_flops_multiplier) /
         static_cast<double>(config.degree()) *
         params.compute_scale(config.degree());
}

double layer_cost(const Node& node, const Config& config,
                  const CostParams& params) {
  if (params.comm) {
    // Comm-model pricing: all-reduces priced by the attached algorithm
    // library on the logical tensor shard (volume_bytes), halo exchanges by
    // the neighbor-exchange primitive (two message latencies + plane bytes
    // on the split group's link class); seconds are rescaled to
    // FLOP-equivalents so the total stays on Eq. (1)'s scale.
    double comm_flops = 0.0;
    for (const CollectiveComm& c : layer_collectives(node, config, params)) {
      const double weight =
          c.kind == CollectiveComm::Kind::kGradientAllReduce
              ? params.gradient_comm_discount
              : 1.0;
      const double seconds =
          c.kind == CollectiveComm::Kind::kHaloExchange
              ? params.comm->halo_exchange_time(c.bytes, c.group)
              : params.comm->collective_time(Collective::kAllReduce,
                                             c.volume_bytes, c.group);
      comm_flops += weight * seconds * params.seconds_to_flops;
    }
    return layer_flops(node, config, params) + comm_flops;
  }
  if (params.heterogeneity_aware()) {
    // Placement-aware pricing: each collective pays the bottleneck link of
    // its own placed group instead of the machine-wide weakest-link r.
    double comm_flops = 0.0;
    for (const CollectiveComm& c : layer_collectives(node, config, params)) {
      const double weight =
          c.kind == CollectiveComm::Kind::kGradientAllReduce
              ? params.gradient_comm_discount
              : 1.0;
      comm_flops += weight * params.group_r(c.group) * c.bytes;
    }
    return layer_flops(node, config, params) + comm_flops;
  }
  double comm_bytes = 0.0;
  for (const CollectiveComm& c : layer_collectives(node, config, params)) {
    const double weight =
        c.kind == CollectiveComm::Kind::kGradientAllReduce
            ? params.gradient_comm_discount
            : 1.0;
    comm_bytes += weight * c.bytes;
  }
  return layer_flops(node, config, params) + params.r * comm_bytes;
}

double transfer_bytes(const Edge& edge, const Config& src_config,
                      const Config& dst_config, const CostParams& params) {
  // Per-device need volume |A(.,d)| on each side and held-overlap volume
  // |A(v,d) n A(u,d)| under uniform block partitions with hierarchically
  // aligned (greedy prefix) placement:
  //   need_u  = vol / prod_t cu_t     (consumer role in the backward pass)
  //   need_v  = vol / prod_t cv_t     (consumer role in the forward pass)
  //   overlap = vol / prod_t max(cu_t, cv_t)
  // The overlap only exists on devices the producing side actually used: if
  // the receiving side runs on more devices than the producing side, the
  // devices beyond the producer's prefix hold nothing, and the max over
  // devices in the paper's t_x definition is the full need.
  double need_u = 1.0;
  double need_v = 1.0;
  double overlap = 1.0;
  for (size_t t = 0; t < edge.shape.size(); ++t) {
    const double extent = static_cast<double>(edge.shape[t]);
    const i32 sd = edge.src_dims[t];
    const i32 dd = edge.dst_dims[t];
    // Clamp split factors by the tensor extent along this dim (slices of a
    // larger iteration dim can be narrower than the dim itself).
    const double cu =
        sd >= 0 ? std::min(static_cast<double>(src_config[sd]), extent) : 1.0;
    const double cv =
        dd >= 0 ? std::min(static_cast<double>(dst_config[dd]), extent) : 1.0;
    need_u *= extent / cu;
    need_v *= extent / cv;
    overlap *= extent / std::max(cu, cv);
  }
  const i64 deg_u = src_config.degree();
  const i64 deg_v = dst_config.degree();
  // Forward: the activation flows u -> v; backward: its gradient v -> u.
  const double fwd =
      deg_v > deg_u ? need_v : std::max(0.0, need_v - overlap);
  const double bwd =
      deg_u > deg_v ? need_u : std::max(0.0, need_u - overlap);
  return (fwd + bwd) * params.bytes_per_element;
}

double edge_flop_byte_ratio(const CostParams& params, const Config& src_config,
                            const Config& dst_config) {
  if (!params.heterogeneity_aware()) return params.r;
  return params.group_r(std::max(src_config.degree(), dst_config.degree()));
}

CostBreakdown CostModel::evaluate(const Strategy& phi) const {
  PASE_CHECK(static_cast<i64>(phi.size()) == graph_->num_nodes());
  CostBreakdown b;
  for (const Node& n : graph_->nodes())
    b.layer += node_cost(n.id, phi[static_cast<size_t>(n.id)]);
  for (const Edge& e : graph_->edges())
    b.transfer += edge_cost(e, phi[static_cast<size_t>(e.src)],
                            phi[static_cast<size_t>(e.dst)]);
  return b;
}

double CostModel::delta_cost(const Strategy& phi, NodeId v,
                             const Config& new_config) const {
  const Config& old_config = phi[static_cast<size_t>(v)];
  double delta = node_cost(v, new_config) - node_cost(v, old_config);
  for (EdgeId eid : graph_->incident_edges(v)) {
    const Edge& e = graph_->edge(eid);
    const Config& src_old = phi[static_cast<size_t>(e.src)];
    const Config& dst_old = phi[static_cast<size_t>(e.dst)];
    const Config& src_new = e.src == v ? new_config : src_old;
    const Config& dst_new = e.dst == v ? new_config : dst_old;
    delta += edge_cost(e, src_new, dst_new) - edge_cost(e, src_old, dst_old);
  }
  return delta;
}

}  // namespace pase
