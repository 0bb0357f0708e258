#pragma once
// layers.h — Direct timings of the layers' public functions on a
// workload's own inputs.  Used by the traced run only.

#include <map>
#include <string>
#include <vector>

#include "exp/shard.h"
#include "study/workloads.h"

namespace perfbench {

struct LayerInputs {
  const pred::study::WorkloadInstance* workload = nullptr;
  /// Every platform the workload queries; the first one shapes the spec.
  std::vector<std::string> platforms;
  /// Whole-grid spec of the workload on platforms[0], under a registry name.
  pred::exp::ShardSpec wholeSpec;
};

/// Median time of one call of each layer function, keyed by per-layer
/// metric name: isa.functional_run_us, exp.trace_fingerprint_us,
/// exp.compile_trace_us, exp.platform.make_ms, core.measures.serialize_us,
/// core.measures.deserialize_us, exp.shard.merge_us (8 shards),
/// exp.shard.spec_roundtrip_us, grid.protocol.frame_roundtrip_us and
/// grid.fingerprint.job_us.
std::map<std::string, double> timeLayerFunctions(const LayerInputs& in);

}  // namespace perfbench
