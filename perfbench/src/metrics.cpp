#include "metrics.h"

#include "stats.h"
#include "workloads.h"

namespace perfbench {

void EngineSums::add(const pred::obs::RunReport& r) {
  const auto phase = [&](const char* name) -> double {
    const auto it = r.phases.find(name);
    return it == r.phases.end() ? 0.0
                                : static_cast<double>(it->second.totalNs);
  };
  resolveNs += phase("resolve");
  replayNs += phase("replay.packed") + phase("replay.interpreted") +
              phase("replay.batched");
  mergeNs += phase("reduce.merge");
  cells += static_cast<double>(r.counter("engine.cells"));
  collapsed += static_cast<double>(r.counter("engine.cells_collapsed"));
  classes += static_cast<double>(r.counter("engine.trace_classes"));
  hits += static_cast<double>(r.counter("trace_store.hits"));
  misses += static_cast<double>(r.counter("trace_store.misses"));
}

std::map<std::string, double> layerMetrics(
    const LayerData& d, double untracedP50Ms, double tracedP50Ms,
    std::map<std::string, double> functions,
    const std::optional<pred::obs::RunReport>& stats) {
  const double n = static_cast<double>(d.requests);
  const auto& e = d.engine;
  std::map<std::string, double> m = std::move(functions);
  m["exp.engine.resolve_ms"] = ratio(e.resolveNs / 1e6, n);
  m["exp.engine.replay_ms"] = ratio(e.replayNs / 1e6, n);
  m["exp.engine.replay_ns_per_cell"] = ratio(e.replayNs, e.cells);
  m["exp.engine.merge_ms"] = ratio(e.mergeNs / 1e6, n);
  m["exp.engine.collapse_ratio"] = ratio(e.collapsed, e.cells + e.collapsed);
  m["exp.trace_store.hit_ratio"] = ratio(e.hits, e.hits + e.misses);
  m["exp.trace_store.classes_per_input"] = ratio(e.classes, e.hits + e.misses);
  m["grid.resolves_per_input"] =
      ratio(e.misses, n * static_cast<double>(kInputs));
  m["request.uncovered_ms"] = ratio(d.uncoveredMs, n);
  // A closed loop keeps the fleet busy only while a request is open.
  m["grid.fleet_busy_ratio"] =
      ratio(d.shardEvalMs, kAttachedWorkers * d.requestMs);
  const auto counter = [&](const char* name) {
    return stats ? static_cast<double>(stats->counter(name)) : 0.0;
  };
  m["grid.cache.hit_ratio"] =
      ratio(counter("grid.cache.hits"),
            counter("grid.cache.hits") + counter("grid.cache.misses"));
  m["grid.shards.retried"] = counter("grid.shards.retried");
  m["grid.worker.deaths"] = counter("grid.worker.deaths");
  m["trace.overhead_pct"] =
      100.0 * ratio(tracedP50Ms - untracedP50Ms, untracedP50Ms);
  return m;
}

}  // namespace perfbench
