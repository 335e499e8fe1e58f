#include "core/ordering.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <queue>
#include <utility>

#include "util/bitset.h"
#include "util/check.h"

namespace pase {

Ordering generate_seq(const Graph& graph) {
  const i64 n = graph.num_nodes();
  Ordering out;
  out.seq.reserve(static_cast<size_t>(n));
  out.pos.assign(static_cast<size_t>(n), -1);
  out.dep_sets.resize(static_cast<size_t>(n));

  // v.d <- N(v)  (Fig. 3 line 1), as a sorted vector. A set never holds
  // its own vertex (Fig. 3 excludes it from |v.d|) nor a sequenced one:
  // sequenced vertices leave every set in lines 7-9, which touch exactly
  // the sets that contain them (membership is symmetric).
  std::vector<std::vector<NodeId>> d(static_cast<size_t>(n));
  // Min-heap on (|v.d|, v): its top is line 5's pick, the first strictly
  // smaller |v.d| of an id-order scan. A size change pushes a new entry;
  // entries whose size no longer matches (or whose vertex is sequenced)
  // are skipped when they surface.
  using Key = std::pair<i64, NodeId>;
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> heap;
  for (NodeId v = 0; v < n; ++v) {
    auto& dv = d[static_cast<size_t>(v)];
    dv = graph.neighbors(v);
    std::sort(dv.begin(), dv.end());
    heap.emplace(static_cast<i64>(dv.size()), v);
  }

  std::vector<NodeId> merged;
  for (i64 i = 0; i < n; ++i) {
    NodeId best = kInvalidNode;
    while (best == kInvalidNode) {
      PASE_CHECK(!heap.empty());
      const auto [size, v] = heap.top();
      heap.pop();
      if (out.pos[static_cast<size_t>(v)] < 0 &&
          size == static_cast<i64>(d[static_cast<size_t>(v)].size()))
        best = v;
    }
    out.seq.push_back(best);
    out.pos[static_cast<size_t>(best)] = i;

    // For all v in v^(i).d: v.d <- v.d U v^(i).d - {v^(i)}  (lines 7-9).
    const std::vector<NodeId>& db = d[static_cast<size_t>(best)];
    for (const NodeId v : db) {
      auto& dv = d[static_cast<size_t>(v)];
      merged.clear();
      std::set_union(dv.begin(), dv.end(), db.begin(), db.end(),
                     std::back_inserter(merged));
      std::erase_if(merged, [&](NodeId w) { return w == best || w == v; });
      if (merged.size() != dv.size())
        heap.emplace(static_cast<i64>(merged.size()), v);
      dv.swap(merged);
    }
    // v^(i).d is D(i) (Theorem 2).
    out.dep_sets[static_cast<size_t>(i)] =
        std::move(d[static_cast<size_t>(best)]);
  }
  return out;
}

Ordering breadth_first(const Graph& graph) {
  const i64 n = graph.num_nodes();
  Ordering out;
  out.seq.reserve(static_cast<size_t>(n));
  out.pos.assign(static_cast<size_t>(n), -1);

  Bitset seen(n);
  std::queue<NodeId> q;
  auto push = [&](NodeId v) {
    if (!seen.test(v)) {
      seen.set(v);
      q.push(v);
    }
  };
  for (NodeId start = 0; start < n; ++start) {
    // The graph is expected to be connected; the loop keeps the ordering
    // total even if it is not.
    push(start);
    while (!q.empty()) {
      const NodeId v = q.front();
      q.pop();
      out.pos[static_cast<size_t>(v)] = static_cast<i64>(out.seq.size());
      out.seq.push_back(v);
      for (NodeId w : graph.neighbors(v)) push(w);
    }
  }
  return out;
}

Ordering make_ordering(const Graph& graph, OrderingKind kind) {
  switch (kind) {
    case OrderingKind::kGenerateSeq: return generate_seq(graph);
    case OrderingKind::kBreadthFirst: return breadth_first(graph);
  }
  PASE_CHECK(false);
  return {};
}

}  // namespace pase
