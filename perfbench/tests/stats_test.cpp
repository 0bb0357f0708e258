// stats_test.cpp — Checks the benchmark's own arithmetic: the percentile
// rule, span self time under overlapping children, and every per-layer
// ratio when its base is zero.  Run with `python3 perfbench/run.py
// --selftest`; exits non-zero on the first failed check's report.

#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>

#include "metrics.h"
#include "stats.h"
#include "trace.h"

namespace {

using namespace perfbench;

int gFailures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++gFailures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

void checkNear(double got, double want, const std::string& what) {
  check(std::fabs(got - want) < 1e-9,
        what + " (got " + std::to_string(got) + ", want " +
            std::to_string(want) + ")");
}

template <typename Fn>
void checkThrows(Fn&& fn, const std::string& what) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return;
  }
  check(false, what + " did not throw");
}

void percentileRule() {
  // p90 needs 100 samples for ten beyond it; 99 leave only nine.
  check(samplesBeyond(100, 90) == 10, "100 samples: 10 beyond p90");
  check(samplesBeyond(99, 90) == 9, "99 samples: 9 beyond p90");
  check(minSamplesFor(90, 10) == 100, "p90 needs 100 samples");
  check(minSamplesFor(50, 10) == 20, "p50 needs 20 samples");
  // p99 would need 1000: at a few hundred samples it has under ten beyond,
  // which is why it is never reported.
  check(minSamplesFor(99, 10) == 1000, "p99 needs 1000 samples");
  check(samplesBeyond(500, 99) == 5, "500 samples: 5 beyond p99");
  check(percentileRank(10, 90) == 9, "rank of p90 among 10 is 9");
  check(percentileRank(1, 50) == 1, "one sample is every percentile");

  checkNear(percentile({5, 1, 4, 2, 3}, 50), 3, "p50 of 1..5");
  checkNear(percentile({5, 1, 4, 2, 3}, 90), 5, "p90 of 1..5");
  checkNear(percentile({5, 1, 4, 2, 3}, 100), 5, "p100 of 1..5");
  checkNear(percentile({7}, 90), 7, "p90 of one sample");
  checkThrows([] { percentile({}, 50); }, "percentile of no samples");
  checkThrows([] { percentile({1}, 0); }, "p0");
  checkThrows([] { percentile({1}, 101); }, "p101");
}

void selfTimeUnion() {
  const Interval parent{0, 10};
  checkNear(selfTime(parent, {}), 10, "no children: all self");
  // Two shards evaluated in parallel: [1,4) and [3,6) cover [1,6).
  checkNear(selfTime(parent, {{1, 4}, {3, 6}}), 5, "overlap counts once");
  checkNear(selfTime(parent, {{1, 9}, {2, 3}}), 2, "nested child");
  checkNear(selfTime(parent, {{0, 2}, {2, 4}}), 6, "touching children");
  checkNear(selfTime(parent, {{0, 1}, {5, 6}}), 8, "disjoint children");
  checkNear(selfTime(parent, {{-5, 2}, {8, 15}}), 6, "clipped to parent");
  checkNear(selfTime(parent, {{12, 15}}), 10, "child outside parent");
  checkNear(unionCovered({{3, 6}, {1, 4}, {5, 7}}, parent), 6,
            "unsorted chain");

  // The tracer applies the same rule per span name.
  Tracer t;
  t.record({"job", 1, 0, 7, 0, 10});
  t.record({"shard", 2, 1, 7, 1, 4});
  t.record({"shard", 3, 1, 7, 3, 6});
  const auto totals = t.layerTotals();
  checkNear(totals.at("job").totalMs, 10, "job total");
  checkNear(totals.at("job").selfMs, 5, "job self under parallel shards");
  checkNear(totals.at("shard").selfMs, 6, "leaf self is its duration");
  check(totals.at("shard").count == 2, "two shard spans");
}

void zeroBases() {
  checkNear(ratio(5, 0), 0, "ratio over zero base");
  checkNear(ratio(0, 0), 0, "zero over zero");
  checkNear(ratio(1, 4), 0.25, "plain ratio");

  // Nothing recorded: every metric is a finite 0, whatever its base.
  const auto empty = layerMetrics(LayerData{}, 0, 0, {}, std::nullopt);
  for (const auto& [name, value] : empty) {
    check(std::isfinite(value) && value == 0, name + " with zero base");
  }
  check(empty.size() == std::size(kLayerMetrics) - 10,
        "every non-function metric is derived");

  // Lookups but no misses: hit ratio 1, no resolves.
  LayerData warm;
  warm.requests = 2;
  warm.engine.hits = 128;
  warm.engine.classes = 128;
  const auto w = layerMetrics(warm, 4, 4, {}, std::nullopt);
  checkNear(w.at("exp.trace_store.hit_ratio"), 1, "all hits");
  checkNear(w.at("grid.resolves_per_input"), 0, "no misses");
  checkNear(w.at("exp.trace_store.classes_per_input"), 1, "one class each");
  checkNear(w.at("exp.engine.collapse_ratio"), 0, "no cells: no collapse");
  checkNear(w.at("grid.fleet_busy_ratio"), 0, "no request time");
  checkNear(w.at("trace.overhead_pct"), 0, "equal medians");

  // A server that answered nothing yet: zero cache lookups.
  pred::obs::RunReport stats;
  stats.counters["grid.cache.hits"] = 0;
  stats.counters["grid.cache.misses"] = 0;
  const auto g = layerMetrics(LayerData{}, 2, 3, {}, stats);
  checkNear(g.at("grid.cache.hit_ratio"), 0, "no cache lookups");
  checkNear(g.at("trace.overhead_pct"), 50, "traced p50 1.5x untraced");
}

}  // namespace

int main() {
  percentileRule();
  selfTimeUnion();
  zeroBases();
  if (gFailures != 0) {
    std::cerr << gFailures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench selftest: all checks passed\n";
  return 0;
}
