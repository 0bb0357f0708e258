#pragma once
// stats.h — The benchmark's own arithmetic: percentiles, span self time and
// ratios.  Header-only so tests/stats_test.cpp checks exactly what the
// benchmark computes.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of the p-th percentile among n samples:
/// ceil(p/100 * n), clamped to [1, n].
inline std::size_t percentileRank(std::size_t n, double p) {
  if (n == 0) throw std::invalid_argument("percentile of no samples");
  if (!(p > 0.0 && p <= 100.0))
    throw std::invalid_argument("percentile outside (0, 100]");
  // The epsilon keeps a product like 0.9 * 100 = 90.00000000000001 on 90.
  const double exact = p / 100.0 * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly above the p-th percentile's rank.
inline std::size_t samplesBeyond(std::size_t n, double p) {
  return n - percentileRank(n, p);
}

/// The smallest sample count whose p-th percentile keeps at least `beyond`
/// samples above it.  A percentile is reported only when this many samples
/// back it, which is why the benchmark reports p90 and never p99 at its run
/// lengths.
inline std::size_t minSamplesFor(double p, std::size_t beyond) {
  std::size_t n = beyond + 1;
  while (samplesBeyond(n, p) < beyond) ++n;
  return n;
}

/// Nearest-rank percentile of unsorted samples.
inline double percentile(std::vector<double> samples, double p) {
  const std::size_t rank = percentileRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// num / den, or 0 when the base is zero (nothing to take a share of).
inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// A closed-open time interval [start, end).
struct Interval {
  double start = 0;
  double end = 0;
};

/// Length of the union of `parts`, each clipped to `within`.  Overlapping
/// parts (children running in parallel) count once.
inline double unionCovered(std::vector<Interval> parts, Interval within) {
  for (auto& p : parts) {
    p.start = std::max(p.start, within.start);
    p.end = std::min(p.end, within.end);
  }
  std::erase_if(parts, [](const Interval& p) { return p.end <= p.start; });
  std::sort(parts.begin(), parts.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double covered = 0;
  double runStart = 0, runEnd = 0;
  bool open = false;
  for (const auto& p : parts) {
    if (open && p.start <= runEnd) {
      runEnd = std::max(runEnd, p.end);
      continue;
    }
    if (open) covered += runEnd - runStart;
    runStart = p.start;
    runEnd = p.end;
    open = true;
  }
  if (open) covered += runEnd - runStart;
  return covered;
}

/// A span's self time: its duration minus the part its children cover.
inline double selfTime(Interval span, const std::vector<Interval>& children) {
  return (span.end - span.start) - unionCovered(children, span);
}

}  // namespace perfbench
