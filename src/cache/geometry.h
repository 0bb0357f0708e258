#pragma once
// geometry.h — Address mapping and access timing shared by all cache models.

#include <cstdint>

namespace pred::cache {

using Cycles = std::uint64_t;

/// Latency parameters of a cache level backed by a flat memory.
struct CacheTiming {
  Cycles hitLatency = 1;
  Cycles missLatency = 10;  ///< full line fill from backing memory
};

struct AccessResult {
  bool hit = false;
  Cycles latency = 0;
};

/// Geometry of a set-associative cache over the word-addressed memory of the
/// mini ISA.  A "line" groups lineWords consecutive words; lines map to sets
/// by modulo.  Both maps round toward negative infinity, so a negative word
/// address gets a negative line and still a set in [0, numSets) — the same
/// answer the shift-and-mask form gives for power-of-two geometries.
struct CacheGeometry {
  std::int64_t lineWords = 4;
  std::int64_t numSets = 8;
  int ways = 2;

  /// Floor division: words -lineWords..-1 form line -1.
  std::int64_t lineOf(std::int64_t wordAddr) const {
    const std::int64_t q = wordAddr / lineWords;
    return q - (wordAddr % lineWords < 0 ? 1 : 0);
  }
  /// Euclidean modulo of the line: always in [0, numSets).
  std::int64_t setOfLine(std::int64_t line) const {
    const std::int64_t r = line % numSets;
    return r < 0 ? r + numSets : r;
  }
  std::int64_t setOf(std::int64_t wordAddr) const {
    return setOfLine(lineOf(wordAddr));
  }
  /// Tag = line number (keeping the set index in the tag is redundant but
  /// harmless and simplifies debugging).
  std::int64_t tagOf(std::int64_t wordAddr) const { return lineOf(wordAddr); }

  std::int64_t totalLines() const { return numSets * ways; }
  std::int64_t capacityWords() const { return totalLines() * lineWords; }
};

}  // namespace pred::cache
