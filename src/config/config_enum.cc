#include "config/config_enum.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <sstream>

#include "graph/graph.h"
#include "util/check.h"

namespace pase {

std::string Config::to_string() const {
  std::ostringstream os;
  os << '(';
  for (i64 i = 0; i < rank(); ++i) {
    if (i) os << ", ";
    os << (*this)[i];
  }
  os << ')';
  return os.str();
}

std::string SplitDims::to_string() const {
  std::string out;
  auto add = [&](const char* name) {
    if (!out.empty()) out += ',';
    out += name;
  };
  if (batch) add("batch");
  if (param) add("param");
  if (spatial) add("spatial");
  if (channel) add("channel");
  return out.empty() ? "none" : out;
}

std::optional<SplitDims> parse_split_dims(const std::string& spec) {
  SplitDims dims;
  dims.batch = dims.param = false;
  if (spec == "none") return dims;
  if (spec == "all") {
    dims.batch = dims.param = dims.spatial = dims.channel = true;
    return dims;
  }
  size_t at = 0;
  while (at <= spec.size()) {
    const size_t comma = std::min(spec.find(',', at), spec.size());
    const std::string part = spec.substr(at, comma - at);
    if (part == "batch") dims.batch = true;
    else if (part == "param") dims.param = true;
    else if (part == "spatial") dims.spatial = true;
    else if (part == "channel") dims.channel = true;
    else return std::nullopt;  // unknown class or empty element
    at = comma + 1;
  }
  return dims;
}

SplitDimClass split_dim_class(const Node& node, i64 dim) {
  const IterDim& d = node.space.dim(dim);
  if (d.name == "b") return SplitDimClass::kBatch;
  const bool windowed =
      node.kind == OpKind::kConv2D || node.kind == OpKind::kPool;
  if (windowed) {
    // Conv2D/Pool (b, c, h, w, [n,] r, s): h/w are the spatial stencil
    // dims, r/s the filter-window taps (LBANN's filter splits).
    if (d.name == "h" || d.name == "w") return SplitDimClass::kSpatial;
    if (d.name == "r" || d.name == "s") return SplitDimClass::kChannel;
  } else if (node.kind == OpKind::kAttention) {
    // Splitting s would shard the attention pattern itself — no gate opens
    // it; c is the per-head query channel (Megatron-style head-internal
    // tensor parallelism).
    if (d.name == "s") return SplitDimClass::kNever;
    if (d.name == "c") return SplitDimClass::kChannel;
  } else if (d.name == "h" || d.name == "w" || d.name == "s") {
    // Pointwise image ops lock h/w, sequence ops lock s: both are the
    // 1-D "spatial" axis of their data layout. Opening them alongside the
    // stencil ops keeps producer/consumer partitions aligned so spatial
    // strategies don't pay a full reshard on every edge.
    return SplitDimClass::kSpatial;
  }
  return d.splittable ? SplitDimClass::kParam : SplitDimClass::kNever;
}

bool dim_splittable(const Node& node, i64 dim, const SplitDims& dims) {
  const SplitDimClass cls = split_dim_class(node, dim);
  if (node.space.dim(dim).splittable) {
    // Builder-splittable: gated by the batch/param class. A spatial or
    // channel class here means the builder opted the dim in explicitly
    // (model files with spatial=1, allow_spatial_split call sites) — that
    // opt-in is honored under every gate setting, keeping the default
    // gates bitwise-identical to the builder's space.
    if (cls == SplitDimClass::kBatch) return dims.batch;
    if (cls == SplitDimClass::kParam) return dims.param;
    return true;
  }
  if (cls == SplitDimClass::kSpatial) return dims.spatial;
  if (cls == SplitDimClass::kChannel) return dims.channel;
  return false;
}

namespace {

/// `mask[i]`, not space.dim(i).splittable, decides whether dim i may take
/// factors > 1: the per-node entry points widen/narrow the mask by split
/// class while the space-only entry point reproduces the builder flags.
void enumerate_rec(const IterSpace& space, const ConfigOptions& opts,
                   const std::vector<bool>& mask, i64 dim, i64 degree_so_far,
                   Config& cur, std::vector<Config>& out) {
  if (dim == space.rank()) {
    if (!opts.require_full_use || degree_so_far == opts.max_devices)
      out.push_back(cur);
    return;
  }
  const IterDim& d = space.dim(dim);
  const i64 budget = opts.max_devices / degree_so_far;
  const i64 max_factor =
      std::min(mask[static_cast<size_t>(dim)] ? budget : 1, d.size);
  for (i64 f = 1; f <= max_factor;
       f = opts.powers_of_two_only ? f * 2 : f + 1) {
    cur.set(dim, static_cast<u16>(f));
    enumerate_rec(space, opts, mask, dim + 1, degree_so_far * f, cur, out);
  }
  cur.set(dim, 1);
}

std::vector<Config> enumerate_masked(const IterSpace& space,
                                     const ConfigOptions& opts,
                                     const std::vector<bool>& mask) {
  PASE_CHECK(opts.max_devices >= 1);
  std::vector<Config> out;
  Config cur = Config::ones(space.rank());
  enumerate_rec(space, opts, mask, 0, 1, cur, out);
  PASE_CHECK_MSG(!out.empty(), "configuration set must not be empty");
  return out;
}

}  // namespace

std::vector<Config> enumerate_configs(const IterSpace& space,
                                      const ConfigOptions& opts) {
  std::vector<bool> mask(static_cast<size_t>(space.rank()));
  for (i64 i = 0; i < space.rank(); ++i)
    mask[static_cast<size_t>(i)] = space.dim(i).splittable;
  return enumerate_masked(space, opts, mask);
}

std::vector<Config> enumerate_node_configs(const Node& node,
                                           const ConfigOptions& opts) {
  std::vector<bool> mask(static_cast<size_t>(node.space.rank()));
  for (i64 i = 0; i < node.space.rank(); ++i)
    mask[static_cast<size_t>(i)] = dim_splittable(node, i, opts.split_dims);
  std::vector<Config> out = enumerate_masked(node.space, opts, mask);
  if (opts.filter) {
    std::erase_if(out,
                  [&](const Config& c) { return !opts.filter(node, c); });
  }
  return out;
}

ConfigCache::ConfigCache(const Graph& graph, const ConfigOptions& opts) {
  // Enumeration reads only a node's extents and split mask, so each
  // distinct pair of them is enumerated once (with its list's id when no
  // filter runs); a filter reads the node itself and runs per node. `ids`
  // interns the lists in first-seen order, so equal lists share one id.
  std::map<std::vector<i64>, std::pair<std::vector<Config>, u32>> enumerated;
  std::map<std::vector<Config>, u32> ids;
  auto intern = [&](const std::vector<Config>& list) {
    return ids.try_emplace(list, static_cast<u32>(ids.size())).first->second;
  };
  std::vector<i64> inputs;
  std::vector<bool> mask;
  list_id_.reserve(static_cast<size_t>(graph.num_nodes()));
  for (const Node& n : graph.nodes()) {
    inputs.clear();
    mask.clear();
    for (i64 i = 0; i < n.space.rank(); ++i) {
      mask.push_back(dim_splittable(n, i, opts.split_dims));
      inputs.push_back(n.space.dim(i).size);
      inputs.push_back(mask.back());
    }
    auto [it, fresh] = enumerated.try_emplace(inputs);
    auto& [list, id] = it->second;
    if (fresh) {
      list = enumerate_masked(n.space, opts, mask);
      if (!opts.filter) id = intern(list);
    }
    if (!opts.filter) {
      list_id_.push_back(id);
      continue;
    }
    std::vector<Config> kept;
    std::copy_if(list.begin(), list.end(), std::back_inserter(kept),
                 [&](const Config& c) { return opts.filter(n, c); });
    list_id_.push_back(intern(kept));
  }
  lists_.resize(ids.size());
  for (const auto& [list, id] : ids) lists_[id] = list;
}

i64 ConfigCache::max_configs() const {
  i64 k = 0;
  for (const auto& l : lists_) k = std::max(k, static_cast<i64>(l.size()));
  return k;
}

}  // namespace pase
