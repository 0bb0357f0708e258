#include "cache/packed.h"

#include <algorithm>

namespace pred::cache {

void PackedCacheSim::load(const PackedCacheState& snapshot) {
  geometry_ = snapshot.geometry;
  policy_ = snapshot.policy;
  timing_ = snapshot.timing;
  ways_ = snapshot.geometry.ways;
  rng_ = snapshot.rng;
  pow2_ = detail::isPow2(geometry_.lineWords) && detail::isPow2(geometry_.numSets);
  lineShift_ = pow2_ ? std::countr_zero(
                           static_cast<std::uint64_t>(geometry_.lineWords))
                     : 0;
  setMask_ = pow2_ ? geometry_.numSets - 1 : 0;
  tags_.assign(snapshot.tags.begin(), snapshot.tags.end());
  valid_.assign(snapshot.valid.begin(), snapshot.valid.end());
  meta_.assign(snapshot.meta.begin(), snapshot.meta.end());
  hits_ = 0;
  misses_ = 0;
}

void PackedCacheSim::loadSet(const PackedCacheState& snapshot,
                             std::size_t set) {
  const auto ways = static_cast<std::size_t>(ways_);
  std::copy_n(snapshot.tags.begin() + static_cast<std::ptrdiff_t>(set * ways),
              ways, tags_.begin() + static_cast<std::ptrdiff_t>(set * ways));
  valid_[set] = snapshot.valid[set];
  meta_[set] = snapshot.meta[set];
}

void PackedCacheSim::resetContents(const PackedCacheState& snapshot) {
  const std::uint64_t rng = rng_;
  load(snapshot);
  rng_ = rng;
}

}  // namespace pred::cache
