// Parallelization configurations (paper §II): a configuration C_v of a node v
// is a d-tuple of positive integers describing how each dim of v's iteration
// space is split across devices; valid when the product of the entries is at
// most p.
#pragma once

#include <array>
#include <compare>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/hash.h"
#include "util/types.h"

namespace pase {

/// A parallelization configuration. Fixed capacity avoids per-config heap
/// allocations in the DP inner loops; DNN iteration spaces have rank <= 8.
class Config {
 public:
  static constexpr i64 kMaxRank = 8;

  Config() = default;
  explicit Config(std::initializer_list<u16> factors) {
    PASE_CHECK(static_cast<i64>(factors.size()) <= kMaxRank);
    for (u16 f : factors) push_back(f);
  }

  i64 rank() const { return rank_; }

  u16 operator[](i64 i) const {
    PASE_CHECK(i >= 0 && i < rank_);
    return c_[static_cast<size_t>(i)];
  }

  void push_back(u16 f) {
    PASE_CHECK(rank_ < kMaxRank && f >= 1);
    c_[static_cast<size_t>(rank_++)] = f;
  }

  void set(i64 i, u16 f) {
    PASE_CHECK(i >= 0 && i < rank_ && f >= 1);
    c_[static_cast<size_t>(i)] = f;
  }

  /// Degree of parallelism: product of all split factors.
  i64 degree() const {
    i64 d = 1;
    for (i64 i = 0; i < rank_; ++i) d *= c_[static_cast<size_t>(i)];
    return d;
  }

  /// A rank-d configuration with every factor 1 (fully serial).
  static Config ones(i64 rank) {
    Config c;
    for (i64 i = 0; i < rank; ++i) c.push_back(1);
    return c;
  }

  bool operator==(const Config& o) const {
    if (rank_ != o.rank_) return false;
    for (i64 i = 0; i < rank_; ++i)
      if (c_[static_cast<size_t>(i)] != o.c_[static_cast<size_t>(i)])
        return false;
    return true;
  }
  bool operator!=(const Config& o) const { return !(*this == o); }
  /// By rank, then factor by factor (slots past the rank stay zero), so
  /// configuration lists can key an ordered map.
  auto operator<=>(const Config& o) const = default;

  u64 hash() const { return hash_range(c_.data(), static_cast<size_t>(rank_)); }

  /// "(32, 1, 1, 1, 1, 1, 1)" — Table II format.
  std::string to_string() const;

 private:
  i64 rank_ = 0;
  std::array<u16, kMaxRank> c_{};
};

/// A complete parallelization strategy phi: one configuration per node,
/// indexed by NodeId.
using Strategy = std::vector<Config>;

}  // namespace pase
