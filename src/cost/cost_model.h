// The analytical cost model of paper §II, Eq. (1):
//
//   F(G, phi) = sum_v t_l(v, phi, r)  +  sum_(u,v) r * t_x(u, v, phi)
//
// All costs are expressed in FLOPs; communication volumes are normalized by
// multiplying with the FLOP-to-byte ratio r = F/B.
//
//  * t_l — layer cost: per-device FLOPs plus r x internal communication
//    (partial-sum all-reduce when reduction dims are split, gradient
//    all-reduce across each parameter's replication group, halo exchange
//    for split stencil dims).
//  * t_x — transfer cost along an edge: the paper's
//    max_d |A(v,d,phi)| - |A(v,d,phi) n A(u,d,phi)| evaluated in closed form
//    for uniform block partitions under the greedy aligned placement,
//    counted in both directions (t_x is edge-direction agnostic). The
//    closed form reads per-configuration factors of each endpoint — one
//    per-device extent per tensor dim, their product and the degree — and
//    combines two of them with no division: the overlap is the product of
//    the per-dim minima. transfer_bytes prices one pair; TransferFactors
//    and transfer_cost_row price a whole row of a table with the same
//    factors, the form the DP solver uses.
//
// Collective pricing is pluggable: by default t_l uses the paper's ring
// wire-byte form (`simple`), but CostParams::comm can attach the src/comm
// algorithm library so internal collectives are priced by topology-aware
// alpha-beta closed forms instead (CommModelKind::kAuto picks the cheapest
// algorithm per message shape).
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "comm/comm_model.h"
#include "config/config.h"
#include "cost/machine.h"
#include "graph/graph.h"
#include "util/types.h"

namespace pase {

struct CostParams {
  double r = 1.0;              ///< FLOP-to-byte ratio F/B
  double bytes_per_element = 4.0;  ///< fp32 tensors
  /// Backward-pass FLOPs relative to forward (dL/dx and dL/dW GEMMs).
  double bwd_flops_multiplier = 2.0;
  /// Activation/gradient transfers happen in both directions.
  double fwd_bwd_comm_multiplier = 2.0;
  /// Weight applied to gradient all-reduce bytes in t_l: frameworks overlap
  /// the gradient sync with backward compute, so its marginal cost is lower
  /// than inline communication (the simulator models the overlap exactly;
  /// the analytical model only needs the relative weighting).
  double gradient_comm_discount = 0.3;

  /// Optional collective-pricing backend (src/comm). Null — the default,
  /// and what for_machine(m) produces — keeps the paper's `simple` pricing:
  /// ring wire bytes x r, bit-identical to the pre-comm-library model.
  /// When set, each internal collective of t_l is priced by the CommModel's
  /// alpha-beta closed forms in seconds and converted to FLOP-equivalents
  /// via seconds_to_flops; t_x keeps its closed-form redistribution bytes
  /// in every mode (it is a point-to-point reshard, not a collective).
  std::shared_ptr<const CommModel> comm;
  /// FLOP-equivalents per second of collective time under `comm`: the
  /// weakest device's achieved FLOPs, the same scale r bakes in (r * bytes
  /// == seconds_to_flops * bytes / B).
  double seconds_to_flops = 0.0;

  /// Heterogeneity-aware pricing tables (src/hetero/hetero.h installs
  /// them). Empty — the default, and what for_machine produces — keeps the
  /// homogeneous pricing bit-identical. Both are indexed by device-group
  /// size (entry g for a group of g devices, clamped to the last entry):
  ///   hetero_compute_scale[g]  proportional-shard compute scale over the g
  ///                            fastest devices, in weakest-device units
  ///                            (<= 1; layer_flops multiplies by it);
  ///   hetero_group_r[g]        FLOP-to-byte ratio for a collective over
  ///                            the placed group's bottleneck link (<= r).
  std::vector<double> hetero_compute_scale;
  std::vector<double> hetero_group_r;

  bool heterogeneity_aware() const { return !hetero_group_r.empty(); }

  double compute_scale(i64 degree) const {
    if (hetero_compute_scale.empty()) return 1.0;
    const size_t i = std::min(static_cast<size_t>(degree),
                              hetero_compute_scale.size() - 1);
    return hetero_compute_scale[i];
  }

  double group_r(i64 group) const {
    if (hetero_group_r.empty()) return r;
    const size_t i =
        std::min(static_cast<size_t>(group), hetero_group_r.size() - 1);
    return hetero_group_r[i];
  }

  static CostParams for_machine(const MachineSpec& m) {
    CostParams p;
    // Achieved (not peak) FLOPs per byte keeps compute and communication on
    // the same wall-clock scale. For heterogeneous clusters the paper's §V
    // rule applies: price compute at the weakest device.
    p.r = m.weakest_flops() / m.link_bandwidth * m.compute_efficiency;
    p.gradient_comm_discount = m.gradient_comm_discount;
    p.seconds_to_flops = m.weakest_flops() * m.compute_efficiency;
    return p;
  }

  /// for_machine plus a collective-pricing mode: kSimple attaches nothing
  /// (bit-identical to for_machine(m)); any other kind attaches a CommModel
  /// of that kind built over `m`'s links and topology.
  static CostParams for_machine(const MachineSpec& m, CommModelKind kind) {
    CostParams p = for_machine(m);
    if (kind != CommModelKind::kSimple)
      p.comm = std::make_shared<const CommModel>(m, kind);
    return p;
  }
};

/// Bytes moved per device by a ring all-reduce of `bytes` over `group`
/// devices: 2 * (g-1)/g * bytes.
double ring_all_reduce_bytes(double bytes, i64 group);

/// One internal communication a layer performs under a configuration
/// (partial-sum all-reduce, gradient all-reduce, or halo exchange), as
/// per-device bytes plus the participating group size — the discrete-event
/// simulator uses the group to pick intra- vs inter-node bandwidth.
struct CollectiveComm {
  enum class Kind { kReduceAllReduce, kGradientAllReduce, kHaloExchange };
  Kind kind;
  double bytes = 0.0;        ///< per device, both passes where applicable
  i64 group = 1;             ///< devices participating
  double volume_bytes = 0.0; ///< tensor shard being reduced (all-reduces
                             ///< only; lets the simulator price topology-
                             ///< aware hierarchical collectives)
};

/// All internal communications of t_l(v, C).
std::vector<CollectiveComm> layer_collectives(const Node& node,
                                              const Config& config,
                                              const CostParams& params);

/// Layer cost t_l(v, C, r) in FLOPs (computation + r x internal comm).
double layer_cost(const Node& node, const Config& config,
                  const CostParams& params);

/// The pure-computation part of t_l (per-device FLOPs, fwd + bwd).
double layer_flops(const Node& node, const Config& config,
                   const CostParams& params);

/// Transfer volume t_x for an edge, in bytes (both directions), given the
/// producer and consumer configurations.
double transfer_bytes(const Edge& edge, const Config& src_config,
                      const Config& dst_config, const CostParams& params);

/// FLOP-to-byte ratio applied to an edge's redistribution bytes: the
/// machine-wide r or, under the hetero tables, the per-group r of the wider
/// endpoint's placed group (the reshard runs over the union of the two
/// aligned fastest-first prefixes, which is the wider one).
double edge_flop_byte_ratio(const CostParams& params, const Config& src_config,
                            const Config& dst_config);

/// The factors t_x reads from one endpoint of an edge, for every
/// configuration of that endpoint's list, laid out for a row sweep (one
/// contiguous array per tensor dim). For configuration c and tensor dim t
/// mapped to iteration dim d on this side, the quotient is
/// extent_t / min(c[d], extent_t), the per-device extent; it is extent_t
/// when this side does not map t. `need` is the product of the quotients in
/// tensor-dim order, the per-device volume this side consumes; `ratio` is
/// params.group_r(degree), the r of a reshard over this side's group.
struct TransferFactors {
  TransferFactors() = default;
  TransferFactors(const Edge& edge, bool src_side,
                  const std::vector<Config>& configs, const CostParams& params);

  size_t count = 0;               ///< configurations
  size_t dims = 0;                ///< tensor dims
  std::vector<double> quotient;   ///< [t * count + c]
  std::vector<double> need;       ///< [c]
  std::vector<double> degree;     ///< [c]
  std::vector<double> ratio;      ///< [c]
};

/// r * t_x of one edge for configuration cw of endpoint w against every
/// configuration of the other endpoint v, into row[0 .. v.count): entry c
/// equals edge_flop_byte_ratio * transfer_bytes of that pair, bit for bit.
/// `v_is_src` says which endpoint is the producer. One sweep per tensor dim
/// builds the overlaps (no division: IEEE division is correctly rounded and
/// monotone, so min(e / cu, e / cv) is exactly e / max(cu, cv)), then one
/// pass applies the forward/backward selects and the ratio.
void transfer_cost_row(const TransferFactors& w, size_t cw,
                       const TransferFactors& v, bool v_is_src,
                       const CostParams& params, double* row);

/// Per-strategy cost breakdown of Eq. (1).
struct CostBreakdown {
  double layer = 0.0;     ///< sum of t_l, FLOPs
  double transfer = 0.0;  ///< sum of r * t_x, FLOPs
  double total() const { return layer + transfer; }
};

/// Evaluates Eq. (1) for full strategies and supports O(degree) incremental
/// re-evaluation when one node's configuration changes (used by the MCMC
/// search and by the DP's H function).
///
/// Thread-safety: a CostModel is immutable after construction and every
/// member function is const, so one instance may be shared by any number
/// of threads — the parallel DP solver and multi-chain MCMC rely on this.
/// Every query evaluates the closed forms directly: they cost tens of
/// nanoseconds, less than a hash-map lookup of a memoized value would.
/// CostParams carries no hidden state either: a kAuto CommModel behind
/// CostParams::comm computes its per-shape algorithm choice on every call,
/// so each price is a pure function of the shape and the machine (only the
/// model's relaxed use counters change).
class CostModel {
 public:
  CostModel(const Graph& graph, CostParams params)
      : graph_(&graph), params_(params) {}

  const Graph& graph() const { return *graph_; }
  const CostParams& params() const { return params_; }

  double node_cost(NodeId v, const Config& config) const {
    return layer_cost(graph_->node(v), config, params_);
  }

  /// r * t_x for edge e, in FLOPs.
  double edge_cost(const Edge& e, const Config& src_config,
                   const Config& dst_config) const {
    return edge_flop_byte_ratio(params_, src_config, dst_config) *
           transfer_bytes(e, src_config, dst_config, params_);
  }

  double edge_cost(EdgeId e, const Strategy& phi) const {
    const Edge& edge = graph_->edge(e);
    return edge_cost(edge, phi[static_cast<size_t>(edge.src)],
                     phi[static_cast<size_t>(edge.dst)]);
  }

  /// Full F(G, phi). `phi` must provide a configuration for every node.
  CostBreakdown evaluate(const Strategy& phi) const;

  double total_cost(const Strategy& phi) const {
    return evaluate(phi).total();
  }

  /// Change in F(G, phi) if node v's configuration is replaced by
  /// `new_config`; touches only v and its incident edges.
  double delta_cost(const Strategy& phi, NodeId v,
                    const Config& new_config) const;

 private:
  const Graph* graph_;
  CostParams params_;
};

}  // namespace pase
