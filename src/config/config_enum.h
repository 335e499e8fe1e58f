// Enumeration of the valid configuration set C(v) for a node (paper §II):
// all d-tuples with product <= p, restricted here to power-of-two factors and
// to dims the operator marks splittable (filter dims are never split — the
// same restriction the paper's prototype applies, which matches the paper's
// reported |C(v)| of ~10-30 at p=8 and ~100 at p=64 for InceptionV3).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "config/config.h"
#include "graph/node.h"
#include "util/types.h"

namespace pase {

/// Which classes of iteration dims the odometer may split. The default
/// (batch + param) reproduces the legacy batch/parameter space bitwise;
/// spatial and channel open the dims the paper's prototype keeps serial
/// (LBANN-style height/width and filter/per-head channel splits).
struct SplitDims {
  bool batch = true;    ///< the "b" dim (data parallelism)
  bool param = true;    ///< every other legacy-splittable dim
  bool spatial = false; ///< locked H/W on image ops, seq dim on seq ops
  bool channel = false; ///< locked filter taps (r/s) and per-head channels

  bool operator==(const SplitDims& o) const {
    return batch == o.batch && param == o.param && spatial == o.spatial &&
           channel == o.channel;
  }
  bool operator!=(const SplitDims& o) const { return !(*this == o); }

  /// True iff this is exactly the legacy space (the default).
  bool legacy() const { return batch && param && !spatial && !channel; }

  /// Canonical spelling: enabled classes in the fixed order
  /// "batch,param,spatial,channel" ("none" when all are off). Equivalent
  /// user spellings render identically, so cache keys built on this string
  /// collapse "spatial,batch" and "batch,spatial" into one entry.
  std::string to_string() const;
};

/// Parses a comma-separated class list ("batch,param,spatial", "all",
/// "none"); nullopt on unknown class names or empty elements.
std::optional<SplitDims> parse_split_dims(const std::string& spec);

/// The split class of one iteration dim of a node, independent of whether
/// the builder marked it splittable: kBatch for "b"; kSpatial for image
/// H/W and the sequence dim of sequence ops; kChannel for conv/pool filter
/// taps and attention per-head query channels; kParam for every other
/// builder-splittable dim; kNever for dims no gate may open (e.g. the
/// attention sequence dim, which would shard the attention pattern itself).
enum class SplitDimClass { kBatch, kParam, kSpatial, kChannel, kNever };
SplitDimClass split_dim_class(const Node& node, i64 dim);

/// Whether the odometer may split `dim` of `node` under `dims`. Dims the
/// builder marked splittable are gated by their batch/param class —
/// builder-level spatial opt-ins (model files with `spatial=1`,
/// allow_spatial_split call sites) stay open under every gate setting, so
/// the default gates reproduce the builder's space bitwise. Locked dims
/// open only when their spatial/channel gate is on.
bool dim_splittable(const Node& node, i64 dim, const SplitDims& dims);

struct ConfigOptions {
  i64 max_devices = 1;  ///< p

  /// Which dim classes the enumeration may split (see SplitDims). The
  /// default reproduces the legacy space bitwise.
  SplitDims split_dims;

  /// Restrict split factors to powers of two (real clusters come in powers
  /// of two and it keeps K near the paper's reported sizes).
  bool powers_of_two_only = true;

  /// Require the full machine to be used (product == p) rather than <= p.
  /// The paper uses <= p; full-use is provided for ablation.
  bool require_full_use = false;

  /// Optional per-configuration admission predicate, applied after the
  /// structural rules. Used e.g. for per-device memory caps (paper §I:
  /// large models cannot replicate their parameters, so data-parallel
  /// configurations must be excluded outright); see
  /// memory_config_filter() in sim/memory.h.
  std::function<bool(const Node&, const Config&)> filter;
};

/// Enumerates C(v) for the given iteration space. Factors for non-splittable
/// dims are fixed to 1, and no dim is split more ways than its extent. The
/// serial configuration (all ones) is always first (unless
/// require_full_use excludes it), making tie-breaking deterministic.
/// The per-node `filter` and the split-dim gates are not applied here
/// (there is no node to classify dims against).
std::vector<Config> enumerate_configs(const IterSpace& space,
                                      const ConfigOptions& opts);

/// Per-node variant: applies the opts.split_dims gates (via
/// dim_splittable, so locked spatial/channel dims open when enabled) and
/// then `opts.filter`. May return an empty list when the filter rejects
/// every configuration (the solver then reports the problem infeasible).
std::vector<Config> enumerate_node_configs(const Node& node,
                                           const ConfigOptions& opts);

/// Per-node configuration lists for a whole graph, indexed by NodeId:
/// at(v) equals enumerate_node_configs(v, opts), but each distinct
/// (extents, split mask) is enumerated once, a set `filter` runs per node,
/// and each distinct list is stored once. Two nodes share a list id iff
/// their lists are equal, and then share the storage too.
class ConfigCache {
 public:
  ConfigCache() = default;
  ConfigCache(const class Graph& graph, const ConfigOptions& opts);

  const std::vector<Config>& at(NodeId id) const {
    return lists_[list_id(id)];
  }
  /// Ids run 0..num_lists()-1 in the order the lists first appear.
  u32 list_id(NodeId id) const { return list_id_[static_cast<size_t>(id)]; }
  i64 num_nodes() const { return static_cast<i64>(list_id_.size()); }
  i64 num_lists() const { return static_cast<i64>(lists_.size()); }

  /// K = max_v |C(v)| (paper's complexity parameter).
  i64 max_configs() const;

 private:
  std::vector<std::vector<Config>> lists_;  ///< distinct, by list id
  std::vector<u32> list_id_;                ///< by node
};

}  // namespace pase
