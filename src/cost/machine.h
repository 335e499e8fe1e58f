// Machine description (paper §II): p devices, average peak FLOPS F per
// device, average link bandwidth B bytes/s; the cost model only needs the
// FLOP-to-byte ratio r = F/B. The discrete-event simulator (src/sim) uses
// the richer per-link fields.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.h"
#include "util/types.h"

namespace pase {

/// One interconnect tier of a multi-level fabric: every device group whose
/// placement spans at most `span` ranks communicates over a link of this
/// bandwidth/latency. Tiers are kept sorted by span; the smallest tier that
/// covers a group wins (NVLink island < PCIe host < IB rack < Ethernet pod).
struct LinkTier {
  i64 span = 0;            ///< max group extent served by this tier
  double bandwidth = 0.0;  ///< bytes/s (the β term)
  double latency_s = 0.0;  ///< per-message latency (the α term)
};

struct MachineSpec {
  std::string name;
  i64 num_devices = 1;          ///< p
  i64 devices_per_node = 8;     ///< GPUs per host
  double peak_flops = 1.0;      ///< F, per device
  double link_bandwidth = 1.0;  ///< B, bytes/s (average, for the cost model)

  /// Simulator-only refinements: intra-node (PCIe) vs inter-node (IB)
  /// bandwidths and a per-message latency.
  double intra_node_bandwidth = 0.0;  ///< bytes/s; 0 = use link_bandwidth
  double inter_node_bandwidth = 0.0;  ///< bytes/s; 0 = use link_bandwidth
  double link_latency_s = 5e-6;

  /// Achieved fraction of peak FLOPS (typical fp32 DNN utilization); used
  /// by the simulator for wall-clock compute time. The analytical cost
  /// model keeps peak F, as the paper does — it only needs relative ranks.
  double compute_efficiency = 0.35;

  /// Fraction of gradient all-reduce time hidden behind backward-pass
  /// compute (Mesh-TensorFlow overlaps them; the paper's §IV-B notes all
  /// such feasible optimizations were enabled in its measurements).
  double grad_overlap_efficiency = 1.0;

  /// Analytical-model weight for gradient all-reduce bytes (see
  /// CostParams::gradient_comm_discount). Machines with low balance hide a
  /// smaller fraction of the gradient sync, so the weight is higher.
  double gradient_comm_discount = 0.3;

  /// Heterogeneous clusters (paper §V): optional per-device peak FLOPS,
  /// rank-indexed, size num_devices. Empty = homogeneous at peak_flops.
  /// Following §V, the analytical cost model prices compute at the weakest
  /// device ("the primary bottleneck"); the simulator uses the true
  /// per-device peaks of the ranks a layer runs on.
  std::vector<double> device_flops;

  /// Multi-tier interconnect (optional): sorted by ascending span, spans
  /// strictly increasing, the last tier covering num_devices. Empty =
  /// two-level intra/inter behavior everywhere (the legacy presets). Only
  /// the heterogeneity-aware path (src/hetero, CommModel) consults tiers;
  /// the legacy analytical model keeps the scalar link_bandwidth.
  std::vector<LinkTier> link_tiers;

  bool has_link_tiers() const { return !link_tiers.empty(); }

  /// The smallest tier whose span covers a group of `group` consecutive
  /// ranks; the widest tier if none does (group > machine, defensive).
  const LinkTier& tier_for_group(i64 group) const {
    PASE_CHECK(!link_tiers.empty());
    for (const LinkTier& t : link_tiers)
      if (group <= t.span) return t;
    return link_tiers.back();
  }

  double tier_bandwidth(i64 group) const {
    return tier_for_group(group).bandwidth;
  }

  double flops_of(i64 rank) const {
    if (device_flops.empty()) return peak_flops;
    PASE_CHECK(rank >= 0 && rank < static_cast<i64>(device_flops.size()));
    return device_flops[static_cast<size_t>(rank)];
  }

  /// Weakest device overall (the §V rule for the analytical model).
  double weakest_flops() const {
    if (device_flops.empty()) return peak_flops;
    return *std::min_element(device_flops.begin(), device_flops.end());
  }

  /// Weakest device among ranks [0, degree) — the prefix a layer with that
  /// parallel degree occupies under the aligned placement.
  double prefix_weakest_flops(i64 degree) const {
    if (device_flops.empty()) return peak_flops;
    const i64 limit = std::min<i64>(degree, num_devices);
    double w = device_flops[0];
    for (i64 d = 1; d < limit; ++d) w = std::min(w, flops_of(d));
    return w;
  }

  double flop_to_byte_ratio() const {
    PASE_CHECK(link_bandwidth > 0);
    return peak_flops / link_bandwidth;
  }

  double intra_bw() const {
    return intra_node_bandwidth > 0 ? intra_node_bandwidth : link_bandwidth;
  }
  double inter_bw() const {
    return inter_node_bandwidth > 0 ? inter_node_bandwidth : link_bandwidth;
  }

  /// GeForce GTX 1080 Ti cluster: 8 GPUs/node, PCIe with peer-to-peer
  /// access, InfiniBand across nodes (paper §IV-B machine (a)).
  static MachineSpec gtx1080ti(i64 p) {
    MachineSpec m;
    m.name = "1080Ti";
    m.num_devices = p;
    m.peak_flops = 11.3e12;          // fp32
    m.intra_node_bandwidth = 12e9;  // PCIe 3.0 x16 with P2P
    m.inter_node_bandwidth = 7e9;   // FDR InfiniBand NIC per node
    // Analytical-model B: the weakest link, as the paper's §V prescribes.
    m.link_bandwidth = 7e9;
    // High machine balance: most of the gradient sync hides behind backward
    // compute.
    m.gradient_comm_discount = 0.15;
    return m;
  }

  /// GeForce RTX 2080 Ti cluster. 2080 Ti does not support PCIe
  /// peer-to-peer, so transfers stage through host memory: much lower
  /// effective bandwidth at a higher compute peak => very low machine
  /// balance, which amplifies strategy inefficiencies (paper §IV-B).
  static MachineSpec rtx2080ti(i64 p) {
    MachineSpec m;
    m.name = "2080Ti";
    m.num_devices = p;
    m.peak_flops = 13.4e12;
    m.intra_node_bandwidth = 3e9;  // staged through the host, no P2P
    m.inter_node_bandwidth = 3e9;
    m.link_bandwidth = 3e9;
    // Low machine balance: gradient sync mostly exceeds what backward
    // compute can hide.
    m.gradient_comm_discount = 0.5;
    return m;
  }

  /// A heterogeneous cluster: the first half of the ranks are 1080Ti-class
  /// devices, the second half an older generation at `slow_fraction` of the
  /// peak. Exercises the paper's §V heterogeneity rule.
  static MachineSpec mixed_cluster(i64 p, double slow_fraction = 0.6) {
    MachineSpec m = gtx1080ti(p);
    m.name = "Mixed";
    m.device_flops.assign(static_cast<size_t>(p), m.peak_flops);
    for (i64 d = p / 2; d < p; ++d)
      m.device_flops[static_cast<size_t>(d)] = m.peak_flops * slow_fraction;
    return m;
  }

  /// A mixed 1080Ti+2080Ti pod (ROADMAP item 3): the first half of the
  /// ranks are 2080Ti-class peaks behind the higher 1080Ti-style links, the
  /// second half 1080Ti-class. Two link tiers: PCIe within a host, IB
  /// across hosts. The scalar fields keep the §V weakest-device /
  /// weakest-link convention so the legacy model stays well-defined.
  static MachineSpec mixed_pod(i64 p) {
    MachineSpec m = gtx1080ti(p);
    m.name = "MixedPod";
    m.device_flops.assign(static_cast<size_t>(p), m.peak_flops);
    for (i64 d = 0; d < p / 2; ++d)
      m.device_flops[static_cast<size_t>(d)] = 13.4e12;  // 2080Ti-class peak
    m.link_tiers = {{std::min(m.devices_per_node, p), m.intra_node_bandwidth,
                     m.link_latency_s}};
    if (p > m.devices_per_node)
      m.link_tiers.push_back(
          {p, m.inter_node_bandwidth, m.link_latency_s * 4});
    return m;
  }

  /// A homogeneous pod behind a three-tier interconnect: PCIe island (8),
  /// IB rack (16), oversubscribed pod spine beyond. Small groups are cheap,
  /// pod-wide collectives pay the spine.
  static MachineSpec multi_tier(i64 p) {
    MachineSpec m = gtx1080ti(p);
    m.name = "MultiTier";
    m.link_tiers = {{8, 12e9, m.link_latency_s},
                    {16, 7e9, m.link_latency_s * 4}};
    if (p > 16) m.link_tiers.push_back({p, 3e9, m.link_latency_s * 10});
    // §V analytical B: the weakest link any group can land on.
    m.link_bandwidth = m.link_tiers.back().bandwidth;
    m.inter_node_bandwidth = m.link_bandwidth;
    return m;
  }

  // Fault-injection perturbations (src/fault): both return *this so a
  // FaultModel can chain them on a copy of the healthy spec.

  /// Slows rank `rank` to 1/`slowdown` of its current speed (straggler:
  /// thermal throttling, a sick host, a contended PCIe switch). Materializes
  /// `device_flops` on first use so the remaining ranks keep their speed.
  MachineSpec& slow_device(i64 rank, double slowdown) {
    PASE_CHECK(rank >= 0 && rank < num_devices && slowdown >= 1.0);
    if (device_flops.empty())
      device_flops.assign(static_cast<size_t>(num_devices), peak_flops);
    device_flops[static_cast<size_t>(rank)] /= slowdown;
    return *this;
  }

  /// Scales link bandwidths by the given factors in (0, 1] (degraded PCIe
  /// lane width, a flapping or rate-limited NIC). The analytical-model B
  /// follows the weakest of the two scaled links, matching how the presets
  /// derive it.
  MachineSpec& scale_links(double intra_factor, double inter_factor) {
    PASE_CHECK(intra_factor > 0 && intra_factor <= 1.0);
    PASE_CHECK(inter_factor > 0 && inter_factor <= 1.0);
    intra_node_bandwidth = intra_bw() * intra_factor;
    inter_node_bandwidth = inter_bw() * inter_factor;
    link_bandwidth = std::min(intra_node_bandwidth, inter_node_bandwidth);
    for (LinkTier& t : link_tiers) {
      t.bandwidth *= t.span <= devices_per_node ? intra_factor : inter_factor;
      link_bandwidth = std::min(link_bandwidth, t.bandwidth);
    }
    return *this;
  }
};

/// The named presets, spelled as pase_cli --machine and the serve
/// protocol's "machine" field take them. This is the one name table; both
/// front ends resolve through machine_preset.
struct MachinePreset {
  const char* name;
  MachineSpec (*make)(i64 p);
};
inline constexpr MachinePreset kMachinePresets[] = {
    {"1080ti", &MachineSpec::gtx1080ti},
    {"2080ti", &MachineSpec::rtx2080ti},
    {"mixed", [](i64 p) { return MachineSpec::mixed_cluster(p); }},
    {"mixed_pod", &MachineSpec::mixed_pod},
    {"multi_tier", &MachineSpec::multi_tier},
};

/// The preset called `name` at `p` devices; nullopt for an unknown name.
inline std::optional<MachineSpec> machine_preset(std::string_view name,
                                                 i64 p) {
  for (const MachinePreset& preset : kMachinePresets)
    if (name == preset.name) return preset.make(p);
  return std::nullopt;
}

}  // namespace pase
