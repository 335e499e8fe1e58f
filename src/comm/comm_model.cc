#include "comm/comm_model.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "util/check.h"

namespace pase {

namespace {

/// ceil(log2(g)) for g >= 1: the step count of the logarithmic algorithms.
double ceil_log2(i64 g) {
  i64 steps = 0;
  for (i64 span = 1; span < g; span <<= 1) ++steps;
  return static_cast<double>(steps);
}

/// Wire bytes per device of a ring all-reduce: 2(g-1)/g * n. Arithmetic
/// matches ring_all_reduce_bytes (src/cost) exactly; reimplemented here so
/// the comm library stays below src/cost in the link order.
double ring_wire_bytes(double bytes, i64 group) {
  if (group <= 1) return 0.0;
  return 2.0 * bytes * static_cast<double>(group - 1) /
         static_cast<double>(group);
}

}  // namespace

const char* collective_name(Collective c) {
  switch (c) {
    case Collective::kAllReduce: return "all-reduce";
    case Collective::kAllGather: return "all-gather";
    case Collective::kReduceScatter: return "reduce-scatter";
    case Collective::kBroadcast: return "broadcast";
    case Collective::kAllToAll: return "all-to-all";
  }
  return "?";
}

const char* comm_algo_name(CommAlgo a) {
  switch (a) {
    case CommAlgo::kRing: return "ring";
    case CommAlgo::kTree: return "tree";
    case CommAlgo::kHalvingDoubling: return "hd";
    case CommAlgo::kHierarchical: return "hier";
  }
  return "?";
}

const char* comm_model_kind_name(CommModelKind k) {
  switch (k) {
    case CommModelKind::kSimple: return "simple";
    case CommModelKind::kAuto: return "auto";
    case CommModelKind::kRing: return "ring";
    case CommModelKind::kTree: return "tree";
    case CommModelKind::kHalvingDoubling: return "hd";
    case CommModelKind::kHierarchical: return "hier";
  }
  return "?";
}

std::optional<CommModelKind> parse_comm_model_kind(const std::string& s) {
  if (s == "simple") return CommModelKind::kSimple;
  if (s == "auto") return CommModelKind::kAuto;
  if (s == "ring") return CommModelKind::kRing;
  if (s == "tree") return CommModelKind::kTree;
  if (s == "hd") return CommModelKind::kHalvingDoubling;
  if (s == "hier") return CommModelKind::kHierarchical;
  return std::nullopt;
}

CommModel::CommModel(const MachineSpec& m, CommModelKind kind)
    : kind_(kind),
      devices_per_node_(m.devices_per_node),
      intra_bw_(m.intra_bw()),
      inter_bw_(m.inter_bw()),
      latency_s_(m.link_latency_s),
      tiers_(m.link_tiers) {
  PASE_CHECK(devices_per_node_ >= 1);
  PASE_CHECK(intra_bw_ > 0 && inter_bw_ > 0);
  for (const LinkTier& t : tiers_)
    PASE_CHECK(t.span >= 1 && t.bandwidth > 0 && t.latency_s >= 0);
}

double CommModel::point_to_point_time(double bytes, i64 group) const {
  if (bytes <= 0.0) return 0.0;
  return bytes / link_bw(group) + link_latency(group);
}

double CommModel::halo_exchange_time(double bytes, i64 group) const {
  if (bytes <= 0.0 || group <= 1) return 0.0;
  // Each device trades one boundary plane with each of its (at most) two
  // neighbors along the split dim: two messages' latency, and `bytes` (the
  // up+down planes together) on the link class the split group spans. The
  // exchanges are pairwise and concurrent, so no group-size factor beyond
  // the link class — deeper splits only hurt through slower covering links
  // (and the shrinking per-device interior they leave behind).
  return 2.0 * link_latency(group) + bytes / link_bw(group);
}

double CommModel::simple_time(Collective c, double bytes, i64 group) const {
  if (bytes <= 0.0 || group <= 1) return 0.0;
  const i64 dpn = devices_per_node_;
  if (c != Collective::kAllReduce) {
    // The legacy model only knew one collective shape; everything else is
    // priced as ring wire bytes over the implied flat link.
    const double wire = c == Collective::kAllToAll
                            ? bytes * static_cast<double>(group - 1) /
                                  static_cast<double>(group)
                            : ring_wire_bytes(bytes, group) / 2.0;
    return wire / link_bw(group) + link_latency(group);
  }
  // The pre-comm-library Simulator::all_reduce_time closed form; link_bw /
  // link_latency return the legacy member doubles on two-level machines,
  // keeping this bit-exact, and the covering tier on multi-tier ones.
  if (group <= dpn) {
    const double wire = ring_wire_bytes(bytes, group);
    return wire / link_bw(group) + link_latency(group);
  }
  const i64 nodes = (group + dpn - 1) / dpn;
  const double intra_bytes = 2.0 * bytes * static_cast<double>(dpn - 1) /
                             static_cast<double>(dpn);
  const double inter_bytes =
      ring_wire_bytes(bytes / static_cast<double>(dpn), nodes);
  return intra_bytes / link_bw(dpn) + inter_bytes / link_bw(group) +
         link_latency(dpn) + link_latency(group);
}

double CommModel::flat_time(CommAlgo a, Collective c, double bytes, i64 group,
                            double bw, double alpha_s) const {
  if (bytes <= 0.0 || group <= 1) return 0.0;
  const double g = static_cast<double>(group);
  const double a_s = alpha_s;
  const double L = ceil_log2(group);
  const double ring_frac = bytes * (g - 1.0) / g;  // n(g-1)/g
  switch (a) {
    case CommAlgo::kRing:
      switch (c) {
        case Collective::kAllReduce:
          return 2.0 * (g - 1.0) * a_s + 2.0 * ring_frac / bw;
        case Collective::kAllGather:
        case Collective::kReduceScatter:
          return (g - 1.0) * a_s + ring_frac / bw;
        case Collective::kBroadcast:  // van de Geijn scatter + all-gather
          return (L + g - 1.0) * a_s + 2.0 * ring_frac / bw;
        case Collective::kAllToAll:  // pairwise exchange
          return (g - 1.0) * (a_s + bytes / g / bw);
      }
      break;
    case CommAlgo::kTree:
      switch (c) {
        case Collective::kAllReduce:  // binomial reduce + broadcast
          return 2.0 * L * (a_s + bytes / bw);
        case Collective::kAllGather:
        case Collective::kReduceScatter:
        case Collective::kBroadcast:
          return L * (a_s + bytes / bw);
        case Collective::kAllToAll:  // Bruck
          return L * a_s + L * bytes / 2.0 / bw;
      }
      break;
    case CommAlgo::kHalvingDoubling:
      switch (c) {
        case Collective::kAllReduce:  // Rabenseifner
          return 2.0 * L * a_s + 2.0 * ring_frac / bw;
        case Collective::kAllGather:
        case Collective::kReduceScatter:
          return L * a_s + ring_frac / bw;
        case Collective::kBroadcast:  // binomial scatter + hd all-gather
          return 2.0 * L * a_s + 2.0 * ring_frac / bw;
        case Collective::kAllToAll:  // no standard form: pairwise exchange
          return (g - 1.0) * (a_s + bytes / g / bw);
      }
      break;
    case CommAlgo::kHierarchical:
      PASE_CHECK(false);  // handled by hierarchical_phases()
  }
  return 0.0;
}

CommPhases CommModel::hierarchical_phases(Collective c, double bytes,
                                          i64 group) const {
  CommPhases ph;
  if (bytes <= 0.0 || group <= 1) return ph;
  const i64 dpn = devices_per_node_;
  const i64 local = std::min<i64>(group, dpn);
  const i64 nodes = (group + dpn - 1) / dpn;
  // The intra phase crosses the local link; the inter phase, spanning the
  // full group, pays that group's covering tier (the legacy inter link on
  // two-level machines).
  const double ib = link_bw(local), il = link_latency(local);
  const double xb = tiers_.empty() ? inter_bw_ : link_bw(group);
  const double xl = tiers_.empty() ? latency_s_ : link_latency(group);
  if (nodes <= 1) {
    ph.intra_s = flat_time(CommAlgo::kRing, c, bytes, local, ib, il);
    return ph;
  }
  const double nl = static_cast<double>(local);
  const double shard = bytes / nl;  // per-lane bytes after the intra split
  switch (c) {
    case Collective::kAllReduce:
      // Intra reduce-scatter + all-gather on the full tensor (= a ring
      // all-reduce's wire volume), inter ring all-reduce on each lane's
      // 1/local shard across the nodes.
      ph.intra_s = flat_time(CommAlgo::kRing, c, bytes, local, ib, il);
      ph.inter_s = flat_time(CommAlgo::kRing, c, shard, nodes, xb, xl);
      break;
    case Collective::kReduceScatter:
      ph.intra_s = flat_time(CommAlgo::kRing, c, bytes, local, ib, il);
      ph.inter_s = flat_time(CommAlgo::kRing, c, shard, nodes, xb, xl);
      break;
    case Collective::kAllGather:
      // Mirror image: gather each lane across nodes first, then complete
      // the tensor inside each node.
      ph.inter_s = flat_time(CommAlgo::kRing, c, shard, nodes, xb, xl);
      ph.intra_s = flat_time(CommAlgo::kRing, c, bytes, local, ib, il);
      break;
    case Collective::kBroadcast:
      // Binomial across nodes (one NIC hop per level), then binomial fan-out
      // inside each node.
      ph.inter_s = flat_time(CommAlgo::kTree, c, bytes, nodes, xb, xl);
      ph.intra_s = flat_time(CommAlgo::kTree, c, bytes, local, ib, il);
      break;
    case Collective::kAllToAll: {
      // Phase 1: node-local pairwise exchange of the locally-destined
      // blocks; phase 2: pairwise exchange between nodes of the aggregated
      // local*n/g blocks each node owes every other node.
      const double per_rank = bytes / static_cast<double>(group);
      ph.intra_s = static_cast<double>(local - 1) * (il + per_rank / ib);
      ph.inter_s = static_cast<double>(nodes - 1) * (xl + per_rank * nl / xb);
      break;
    }
  }
  return ph;
}

double CommModel::algorithm_time(CommAlgo a, Collective c, double bytes,
                                 i64 group) const {
  if (bytes <= 0.0 || group <= 1) return 0.0;
  if (a == CommAlgo::kHierarchical)
    return hierarchical_phases(c, bytes, group).total();
  return flat_time(a, c, bytes, group, link_bw(group), link_latency(group));
}

std::pair<CommAlgo, double> CommModel::cheapest(Collective c, double bytes,
                                                i64 group) const {
  CommAlgo best = CommAlgo::kRing;
  double best_time = algorithm_time(best, c, bytes, group);
  for (CommAlgo a : {CommAlgo::kTree, CommAlgo::kHalvingDoubling,
                     CommAlgo::kHierarchical}) {
    const double t = algorithm_time(a, c, bytes, group);
    if (t < best_time) {  // strict: ties keep the earlier enum value
      best = a;
      best_time = t;
    }
  }
  return {best, best_time};
}

CommAlgo CommModel::chosen_algorithm(Collective c, double bytes,
                                     i64 group) const {
  if (bytes <= 0.0 || group <= 1) return CommAlgo::kRing;
  return cheapest(c, bytes, group).first;
}

double CommModel::collective_time(Collective c, double bytes,
                                  i64 group) const {
  if (bytes <= 0.0 || group <= 1) return 0.0;
  auto count_use = [this](size_t slot) {
    use_counts_[slot].fetch_add(1, std::memory_order_relaxed);
  };
  switch (kind_) {
    case CommModelKind::kSimple:
      count_use(kSimpleUseSlot);
      return simple_time(c, bytes, group);
    case CommModelKind::kAuto: {
      const auto [a, t] = cheapest(c, bytes, group);
      count_use(static_cast<size_t>(a));
      return t;
    }
    case CommModelKind::kRing:
      count_use(static_cast<size_t>(CommAlgo::kRing));
      return algorithm_time(CommAlgo::kRing, c, bytes, group);
    case CommModelKind::kTree:
      count_use(static_cast<size_t>(CommAlgo::kTree));
      return algorithm_time(CommAlgo::kTree, c, bytes, group);
    case CommModelKind::kHalvingDoubling:
      count_use(static_cast<size_t>(CommAlgo::kHalvingDoubling));
      return algorithm_time(CommAlgo::kHalvingDoubling, c, bytes, group);
    case CommModelKind::kHierarchical:
      count_use(static_cast<size_t>(CommAlgo::kHierarchical));
      return algorithm_time(CommAlgo::kHierarchical, c, bytes, group);
  }
  return 0.0;
}

void CommModel::export_metrics(MetricsRegistry* metrics,
                               const std::string& prefix) const {
  if (!metrics) return;
  for (CommAlgo a : {CommAlgo::kRing, CommAlgo::kTree,
                     CommAlgo::kHalvingDoubling, CommAlgo::kHierarchical}) {
    const u64 n = use_count(a);
    if (n > 0)
      metrics->add_counter(prefix + ".algo." + comm_algo_name(a), n);
  }
  if (simple_use_count() > 0)
    metrics->add_counter(prefix + ".algo.simple", simple_use_count());
}

}  // namespace pase
