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

/// Calls visit(const CollectiveComm&) for every internal communication of
/// t_l(v, C), in the order layer_collectives lists them, so layer_cost can
/// sum them without building the list.
template <class Visit>
void for_each_collective(const Node& node, const Config& config,
                         const CostParams& params, Visit&& visit) {
  PASE_CHECK(config.rank() == node.space.rank());
  const double degree = static_cast<double>(config.degree());

  // (a) Partial-sum all-reduce when reduction dims are split: each device
  // holds a shard of the (reduction) output and reduces it across the
  // reduction group. Happens in forward and (for input gradients) backward.
  const double reduce_group = split_product(config, node.reduction_dims);
  if (reduce_group > 1.0 && node.output.volume > 0) {
    const double out_shard_bytes = static_cast<double>(node.output.volume) /
                                   split_product(config, node.output.dims) *
                                   params.bytes_per_element;
    visit(CollectiveComm{
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
      visit(CollectiveComm{CollectiveComm::Kind::kGradientAllReduce,
                           ring_all_reduce_bytes(shard_bytes, group), group,
                           shard_bytes});
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
    visit(CollectiveComm{
        CollectiveComm::Kind::kHaloExchange,
        params.fwd_bwd_comm_multiplier * 2.0 *
            static_cast<double>(h.width) * plane * params.bytes_per_element,
        config[h.dim], 0.0});
  }
}

/// Gradient all-reduces overlap backward compute (CostParams::
/// gradient_comm_discount); every other collective counts in full.
double collective_weight(const CollectiveComm& c, const CostParams& params) {
  return c.kind == CollectiveComm::Kind::kGradientAllReduce
             ? params.gradient_comm_discount
             : 1.0;
}

/// One side's t_x quotient for a tensor dim of `extent` that this side maps
/// to iteration dim `dim` (-1 = unmapped): the per-device extent. Split
/// factors are clamped by the extent (slices of a larger iteration dim can
/// be narrower than the dim itself).
double transfer_quotient(double extent, i32 dim, const Config& config) {
  return dim >= 0
             ? extent / std::min(static_cast<double>(config[dim]), extent)
             : extent;
}

/// t_x in bytes from both sides' factors and their overlap. The overlap only
/// exists on devices the producing side actually used: if the receiving
/// side runs on more devices than the producing side, the devices beyond
/// the producer's prefix hold nothing, and the max over devices in the
/// paper's t_x definition is the full need.
double transfer_select(double need_u, double deg_u, double need_v,
                       double deg_v, double overlap,
                       double bytes_per_element) {
  // Forward: the activation flows u -> v; backward: its gradient v -> u.
  const double fwd =
      deg_v > deg_u ? need_v : std::max(0.0, need_v - overlap);
  const double bwd =
      deg_u > deg_v ? need_u : std::max(0.0, need_u - overlap);
  return (fwd + bwd) * bytes_per_element;
}

}  // namespace

std::vector<CollectiveComm> layer_collectives(const Node& node,
                                              const Config& config,
                                              const CostParams& params) {
  std::vector<CollectiveComm> out;
  for_each_collective(node, config, params,
                      [&](const CollectiveComm& c) { out.push_back(c); });
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
  // Each mode sums its collectives in layer_collectives' order.
  double comm = 0.0;
  if (params.comm) {
    // Comm-model pricing: all-reduces priced by the attached algorithm
    // library on the logical tensor shard (volume_bytes), halo exchanges by
    // the neighbor-exchange primitive (two message latencies + plane bytes
    // on the split group's link class); seconds are rescaled to
    // FLOP-equivalents so the total stays on Eq. (1)'s scale.
    for_each_collective(node, config, params, [&](const CollectiveComm& c) {
      const double seconds =
          c.kind == CollectiveComm::Kind::kHaloExchange
              ? params.comm->halo_exchange_time(c.bytes, c.group)
              : params.comm->collective_time(Collective::kAllReduce,
                                             c.volume_bytes, c.group);
      comm += collective_weight(c, params) * seconds * params.seconds_to_flops;
    });
    return layer_flops(node, config, params) + comm;
  }
  if (params.heterogeneity_aware()) {
    // Placement-aware pricing: each collective pays the bottleneck link of
    // its own placed group instead of the machine-wide weakest-link r.
    for_each_collective(node, config, params, [&](const CollectiveComm& c) {
      comm += collective_weight(c, params) * params.group_r(c.group) * c.bytes;
    });
    return layer_flops(node, config, params) + comm;
  }
  for_each_collective(node, config, params, [&](const CollectiveComm& c) {
    comm += collective_weight(c, params) * c.bytes;
  });
  return layer_flops(node, config, params) + params.r * comm;
}

double transfer_bytes(const Edge& edge, const Config& src_config,
                      const Config& dst_config, const CostParams& params) {
  // Per-device need volume |A(.,d)| on each side and held-overlap volume
  // |A(v,d) n A(u,d)| under uniform block partitions with hierarchically
  // aligned (greedy prefix) placement, from each side's quotients q_t:
  //   need_u  = prod_t qu_t            (consumer role in the backward pass)
  //   need_v  = prod_t qv_t            (consumer role in the forward pass)
  //   overlap = prod_t min(qu_t, qv_t)
  // TransferFactors and transfer_cost_row compute the same products.
  double need_u = 1.0;
  double need_v = 1.0;
  double overlap = 1.0;
  for (size_t t = 0; t < edge.shape.size(); ++t) {
    const double extent = static_cast<double>(edge.shape[t]);
    const double qu = transfer_quotient(extent, edge.src_dims[t], src_config);
    const double qv = transfer_quotient(extent, edge.dst_dims[t], dst_config);
    need_u *= qu;
    need_v *= qv;
    overlap *= std::min(qu, qv);
  }
  return transfer_select(need_u, static_cast<double>(src_config.degree()),
                         need_v, static_cast<double>(dst_config.degree()),
                         overlap, params.bytes_per_element);
}

TransferFactors::TransferFactors(const Edge& edge, bool src_side,
                                 const std::vector<Config>& configs,
                                 const CostParams& params)
    : count(configs.size()),
      dims(edge.shape.size()),
      quotient(dims * count),
      need(count, 1.0),
      degree(count),
      ratio(count) {
  const std::vector<i32>& map = src_side ? edge.src_dims : edge.dst_dims;
  for (size_t t = 0; t < dims; ++t) {
    const double extent = static_cast<double>(edge.shape[t]);
    double* const q = quotient.data() + t * count;
    for (size_t c = 0; c < count; ++c) {
      q[c] = transfer_quotient(extent, map[t], configs[c]);
      need[c] *= q[c];
    }
  }
  for (size_t c = 0; c < count; ++c) {
    degree[c] = static_cast<double>(configs[c].degree());
    ratio[c] = params.group_r(configs[c].degree());
  }
}

void transfer_cost_row(const TransferFactors& w, size_t cw,
                       const TransferFactors& v, bool v_is_src,
                       const CostParams& params, double* row) {
  PASE_CHECK(w.dims == v.dims && cw < w.count);
  const size_t k = v.count;
  std::fill(row, row + k, 1.0);
  for (size_t t = 0; t < v.dims; ++t) {
    const double qw = w.quotient[t * w.count + cw];
    const double* const qv = v.quotient.data() + t * k;
    for (size_t c = 0; c < k; ++c) row[c] *= std::min(qw, qv[c]);
  }
  // edge_flop_byte_ratio is the group r of the larger degree, which is the
  // ratio factor of the side with the larger degree.
  const double need_w = w.need[cw];
  const double deg_w = w.degree[cw];
  const double ratio_w = w.ratio[cw];
  const double bpe = params.bytes_per_element;
  if (v_is_src) {
    for (size_t c = 0; c < k; ++c)
      row[c] = (deg_w >= v.degree[c] ? ratio_w : v.ratio[c]) *
               transfer_select(v.need[c], v.degree[c], need_w, deg_w, row[c],
                               bpe);
  } else {
    for (size_t c = 0; c < k; ++c)
      row[c] = (deg_w >= v.degree[c] ? ratio_w : v.ratio[c]) *
               transfer_select(need_w, deg_w, v.need[c], v.degree[c], row[c],
                               bpe);
  }
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
