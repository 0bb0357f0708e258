#pragma once
// metrics.h — Per-layer metrics derived from the library's RunReports, the
// benchmark's spans and the layer-function timings of a traced run.

#include <map>
#include <optional>
#include <string>

#include "obs/run_report.h"

namespace perfbench {

/// Attached grid workers serving the grid-job workload.
inline constexpr int kAttachedWorkers = 2;

/// Engine telemetry summed over RunReports (one per query, or one per
/// shard of a grid job).
struct EngineSums {
  double resolveNs = 0, replayNs = 0, mergeNs = 0;
  double cells = 0, collapsed = 0, classes = 0, hits = 0, misses = 0;

  void add(const pred::obs::RunReport& r);
  double phasesMs() const { return (resolveNs + replayNs + mergeNs) / 1e6; }
};

/// What a traced run accumulates over its traced computed requests.
struct LayerData {
  std::size_t requests = 0;
  EngineSums engine;       ///< grid: summed over the jobs' shard reports
  double requestMs = 0;    ///< summed request spans
  double uncoveredMs = 0;  ///< request span minus the evaluation it covers
  std::size_t shards = 0;  ///< grid only, as are the two below
  double shardEvalMs = 0;
  double shardSelfMs = 0;  ///< shard span minus its engine phases
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The per-layer metrics every traced run reports, in output order.
inline constexpr MetricSpec kLayerMetrics[] = {
    {"exp.engine.resolve_ms", "ms"},
    {"exp.engine.replay_ms", "ms"},
    {"exp.engine.replay_ns_per_cell", "ns"},
    {"exp.engine.merge_ms", "ms"},
    {"exp.engine.collapse_ratio", "ratio"},
    {"exp.trace_store.hit_ratio", "ratio"},
    {"exp.trace_store.classes_per_input", "ratio"},
    {"grid.resolves_per_input", "ratio"},
    {"request.uncovered_ms", "ms"},
    {"isa.functional_run_us", "us"},
    {"exp.trace_fingerprint_us", "us"},
    {"exp.compile_trace_us", "us"},
    {"exp.platform.make_ms", "ms"},
    {"core.measures.serialize_us", "us"},
    {"core.measures.deserialize_us", "us"},
    {"exp.shard.merge_us", "us"},
    {"exp.shard.spec_roundtrip_us", "us"},
    {"grid.protocol.frame_roundtrip_us", "us"},
    {"grid.fingerprint.job_us", "us"},
    {"grid.fleet_busy_ratio", "ratio"},
    {"grid.cache.hit_ratio", "ratio"},
    {"grid.shards.retried", "count"},
    {"grid.worker.deaths", "count"},
    {"trace.overhead_pct", "%"},
};

/// Every kLayerMetrics value.  `functions` holds the layer-function
/// timings (layers.h), `stats` the grid server's report when there is a
/// server.  A ratio whose base is zero (no requests, no lookups, no grid)
/// reads 0.
std::map<std::string, double> layerMetrics(
    const LayerData& d, double untracedP50Ms, double tracedP50Ms,
    std::map<std::string, double> functions,
    const std::optional<pred::obs::RunReport>& stats);

}  // namespace perfbench
