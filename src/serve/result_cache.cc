#include "serve/result_cache.h"

#include <cstring>

#include "util/hash.h"

namespace pase::serve {

namespace {

u64 bits_of(double v) {
  u64 b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

u64 hash_string(u64 h, const std::string& s) {
  h = hash_combine(h, s.size());
  for (const char c : s) h = hash_combine(h, static_cast<u8>(c));
  return h;
}

template <typename T>
u64 hash_ints(u64 h, const std::vector<T>& v) {
  h = hash_combine(h, v.size());
  for (const T x : v) h = hash_combine(h, static_cast<u64>(x));
  return h;
}

}  // namespace

u64 graph_signature(const Graph& graph) {
  u64 h = 0x5ea5e57a7e6e57a7ull;
  h = hash_combine(h, static_cast<u64>(graph.num_nodes()));
  for (const Node& n : graph.nodes()) {
    // Everything the cost model reads; node names deliberately excluded.
    h = hash_combine(h, static_cast<u64>(n.kind));
    h = hash_combine(h, static_cast<u64>(n.space.rank()));
    for (const IterDim& d : n.space.dims()) {
      h = hash_string(h, d.name);
      h = hash_combine(h, static_cast<u64>(d.size));
      h = hash_combine(h, d.splittable ? 1 : 0);
    }
    h = hash_combine(h, bits_of(n.flops_per_point));
    h = hash_combine(h, n.params.size());
    for (const ParamTensor& p : n.params) {
      h = hash_combine(h, static_cast<u64>(p.volume));
      h = hash_ints(h, p.dims);
    }
    h = hash_ints(h, n.reduction_dims);
    h = hash_combine(h, n.halos.size());
    for (const HaloSpec& halo : n.halos) {
      h = hash_combine(h, static_cast<u64>(halo.dim));
      h = hash_combine(h, static_cast<u64>(halo.width));
    }
    h = hash_combine(h, static_cast<u64>(n.output.volume));
    h = hash_ints(h, n.output.dims);
  }
  h = hash_combine(h, static_cast<u64>(graph.num_edges()));
  for (const Edge& e : graph.edges()) {
    h = hash_combine(h, static_cast<u64>(e.src));
    h = hash_combine(h, static_cast<u64>(e.dst));
    h = hash_ints(h, e.shape);
    h = hash_ints(h, e.src_dims);
    h = hash_ints(h, e.dst_dims);
  }
  return h;
}

u64 ResultKey::hash() const {
  u64 h = graph_sig;
  h = hash_string(h, machine);
  h = hash_combine(h, static_cast<u64>(devices));
  h = hash_combine(h, bits_of(memory_gb));
  h = hash_string(h, comm_model);
  h = hash_combine(h, static_cast<u64>(beam_width));
  h = hash_string(h, split_dims);
  h = hash_combine(h, static_cast<u64>(pipeline_stages));
  h = hash_combine(h, static_cast<u64>(microbatches));
  return h;
}

ResultCache::ResultCache(i64 max_entries)
    : max_entries_(max_entries < 1 ? 1 : max_entries) {}

bool ResultCache::lookup(u64 key, Entry* out) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second);
  *out = it->second->entry;
  return true;
}

void ResultCache::store(u64 key, Entry entry) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Slot{key, std::move(entry)});
  index_[key] = lru_.begin();
  while (static_cast<i64>(lru_.size()) > max_entries_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

void ResultCache::erase(u64 key) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return;
  lru_.erase(it->second);
  index_.erase(it);
}

void ResultCache::corrupt(u64 key) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return;
  double& c = it->second->entry.check_cost;
  u64 b = bits_of(c);
  b ^= 0xffull;  // low mantissa bits: value changes, stays finite
  std::memcpy(&c, &b, sizeof(c));
}

i64 ResultCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<i64>(lru_.size());
}

}  // namespace pase::serve
