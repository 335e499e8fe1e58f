// Collective-communication algorithm library: prices all-reduce,
// all-gather, reduce-scatter, broadcast and all-to-all under several
// classic algorithms — ring, binomial tree, recursive halving-doubling,
// and a hierarchical two-level (intra-node, then inter-node) composition —
// each as an alpha-beta (latency + per-byte) cost over the machine's
// intra-/inter-node links.
//
// Why it exists: the paper's cost functions and the Fig. 6 simulator assume
// a single collective shape (ring wire bytes over one flat link). Real
// collectives switch algorithms with message size, group size and topology
// — NCCL/MPI pick trees or halving-doubling for latency-bound small
// messages and rings or hierarchical compositions for bandwidth-bound large
// ones — and Mesh-TensorFlow / FlexFlow both attribute strategy-ranking
// shifts to exactly this interaction. CommModelKind::kAuto models it: every
// call prices its (collective, bytes, group) with the cheapest algorithm,
// an argmin over the closed forms below taken anew on each call.
//
// Cost conventions (n = logical tensor bytes, g = group size,
// L = ceil(log2 g), alpha = per-message link latency, 1/bw = per-byte
// time of the link class a flat algorithm crosses — intra-node when the
// group fits inside one host, inter-node otherwise):
//
//   collective      ring                      tree (binomial)     halving-doubling
//   all-reduce      2(g-1)a + 2n(g-1)/g /bw   2L(a + n/bw)        2La + 2n(g-1)/g /bw
//   all-gather /
//   reduce-scatter  (g-1)a +  n(g-1)/g /bw     L(a + n/bw)         La +  n(g-1)/g /bw
//   broadcast       (L+g-1)a + 2n(g-1)/g /bw   L(a + n/bw)        2La + 2n(g-1)/g /bw
//   all-to-all      (g-1)(a + n/g /bw)         La + L n/2 /bw     = ring (pairwise)
//
// (ring broadcast is the van-de-Geijn scatter + all-gather; tree all-to-all
// is Bruck's algorithm; halving-doubling all-to-all has no standard form
// and falls back to pairwise exchange.) The hierarchical algorithm splits a
// multi-node group into an intra-node phase over min(g, devices_per_node)
// ranks on the intra link and an inter-node phase over the node count on
// the inter link (see hierarchical_phases(); for single-node groups it
// degenerates to the intra-node ring).
//
// CommModelKind::kSimple reproduces the legacy pricing bit-exactly — the
// flat-link + hierarchical-ring closed forms the pre-comm-library simulator
// hard-coded — so reproduction benches keep their output unchanged; it is
// the default everywhere.
//
// Thread-safety: const member functions are safe to call concurrently. The
// model keeps no cache: every price is a pure function of (collective,
// bytes, group) and the machine it was built from, so a price has the same
// bits on every thread and in every model built from the same machine. The
// only mutable state is the relaxed per-family use counters.
#pragma once

#include <array>
#include <atomic>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cost/machine.h"
#include "util/types.h"

namespace pase {

class MetricsRegistry;

/// The collective operations strategies induce: partial-sum and gradient
/// syncs are all-reduces; parameter resharding uses all-gather /
/// reduce-scatter; broadcast and all-to-all round out the library for
/// pipeline and expert-parallel layouts.
enum class Collective {
  kAllReduce,
  kAllGather,
  kReduceScatter,
  kBroadcast,
  kAllToAll,
};

/// The algorithm families (see the file comment for their closed forms).
enum class CommAlgo { kRing, kTree, kHalvingDoubling, kHierarchical };

/// Pricing mode: kSimple = legacy bit-exact pricing (default), kAuto =
/// cheapest algorithm per (collective, bytes, group), the rest force one
/// algorithm family for every collective.
enum class CommModelKind {
  kSimple,
  kAuto,
  kRing,
  kTree,
  kHalvingDoubling,
  kHierarchical,
};

const char* collective_name(Collective c);
const char* comm_algo_name(CommAlgo a);
const char* comm_model_kind_name(CommModelKind k);

/// Parses the CLI spelling {simple|auto|ring|tree|hd|hier}; nullopt on
/// anything else.
std::optional<CommModelKind> parse_comm_model_kind(const std::string& s);

/// The two phases of the hierarchical composition, in seconds. For
/// single-node groups inter_s is 0.
struct CommPhases {
  double intra_s = 0.0;
  double inter_s = 0.0;
  double total() const { return intra_s + inter_s; }
};

/// Prices collectives on one machine. Immutable after construction apart
/// from the use counters (see the file comment for thread-safety).
/// Built from a MachineSpec, so fault-layer perturbations (scale_links,
/// stragglers) compose automatically: a degraded spec yields a degraded
/// comm model.
class CommModel {
 public:
  explicit CommModel(const MachineSpec& m,
                     CommModelKind kind = CommModelKind::kSimple);

  CommModelKind kind() const { return kind_; }

  /// Seconds for collective `c` over a `bytes`-byte logical tensor across
  /// `group` devices, under this model's kind. 0 for empty tensors or
  /// single-device groups.
  double collective_time(Collective c, double bytes, i64 group) const;

  /// Seconds for a point-to-point transfer of per-device `bytes` over the
  /// link class implied by `group` (intra-node iff the group fits in one
  /// host) — identical in every kind, matching the legacy simulator.
  double point_to_point_time(double bytes, i64 group) const;

  /// Seconds for a halo exchange: per-device boundary-plane `bytes` traded
  /// with the two neighbors along a spatially split dim of `group` devices.
  /// Two message latencies plus the plane bytes on the group's link class;
  /// identical in every kind (a neighbor exchange has no algorithm choice).
  /// Monotone in both bytes and group. 0 for unsplit dims or empty planes.
  double halo_exchange_time(double bytes, i64 group) const;

  /// Seconds under one specific algorithm family, independent of kind()
  /// (kSimple excepted: it is a pricing mode, not an algorithm). Exposed
  /// for the auto-selector, tests and benches.
  double algorithm_time(CommAlgo a, Collective c, double bytes,
                        i64 group) const;

  /// The algorithm kAuto picks for this shape: the argmin of algorithm_time
  /// over all families, ties broken by enum order. Returns kRing for
  /// degenerate shapes (bytes <= 0 or group <= 1).
  CommAlgo chosen_algorithm(Collective c, double bytes, i64 group) const;

  /// Intra-/inter-node breakdown of the hierarchical composition;
  /// total() == algorithm_time(kHierarchical, ...) exactly.
  CommPhases hierarchical_phases(Collective c, double bytes, i64 group) const;

  i64 devices_per_node() const { return devices_per_node_; }

  /// How many non-degenerate collective_time() calls were priced through
  /// algorithm family `a` (for kAuto, the chosen family; for a forced kind,
  /// that family). Structural: call sites and auto choices are pure
  /// functions of the priced shapes, so counts are bit-identical across
  /// thread counts whenever the set of shapes priced is (the DP prices all
  /// shapes on its calling thread — see dp_solver.h).
  u64 use_count(CommAlgo a) const {
    return use_counts_[static_cast<size_t>(a)].load(
        std::memory_order_relaxed);
  }
  /// Same, for calls priced through the legacy kSimple closed forms.
  u64 simple_use_count() const {
    return use_counts_[kSimpleUseSlot].load(std::memory_order_relaxed);
  }
  /// Dumps the per-family use counts as `<prefix>.algo.<family>` counters
  /// (plus `<prefix>.algo.simple`), omitting zero counts so untouched
  /// families don't pad the snapshot.
  void export_metrics(MetricsRegistry* metrics,
                      const std::string& prefix) const;

 private:
  /// kAuto's choice and its price in one pass: the strict argmin of
  /// algorithm_time over the families in enum order, with the winner's time.
  std::pair<CommAlgo, double> cheapest(Collective c, double bytes,
                                       i64 group) const;
  /// A flat (single-level) algorithm over `group` ranks on the link class
  /// the group implies.
  double flat_time(CommAlgo a, Collective c, double bytes, i64 group,
                   double bw, double alpha_s) const;
  /// Legacy pricing (kSimple): the pre-comm-library simulator's flat ring /
  /// fixed hierarchical-ring closed form, reproduced bit-exactly on
  /// two-level machines; on multi-tier machines (link_tiers present) the
  /// same closed forms priced over each group's covering tier.
  double simple_time(Collective c, double bytes, i64 group) const;

  /// Bandwidth/latency of the link a `group`-rank collective crosses: the
  /// machine's covering link tier when tiers are present, else the legacy
  /// intra/inter pair — returning *exactly* those member doubles, so every
  /// closed form is byte-identical to the pre-tier pricing on two-level
  /// machines.
  double link_bw(i64 group) const {
    if (!tiers_.empty()) {
      for (const LinkTier& t : tiers_)
        if (group <= t.span) return t.bandwidth;
      return tiers_.back().bandwidth;
    }
    return group <= devices_per_node_ ? intra_bw_ : inter_bw_;
  }
  double link_latency(i64 group) const {
    if (!tiers_.empty()) {
      for (const LinkTier& t : tiers_)
        if (group <= t.span) return t.latency_s;
      return tiers_.back().latency_s;
    }
    return latency_s_;
  }

  CommModelKind kind_;
  i64 devices_per_node_;
  double intra_bw_;
  double inter_bw_;
  double latency_s_;
  std::vector<LinkTier> tiers_;  ///< multi-tier fabric; empty = two-level

  /// Slots 0..3 mirror CommAlgo; the extra slot counts kSimple pricings.
  static constexpr size_t kSimpleUseSlot = 4;
  mutable std::array<std::atomic<u64>, 5> use_counts_{};
};

}  // namespace pase
