#include "layers.h"

#include <chrono>
#include <cstdint>

#include "exp/engine.h"
#include "exp/replay.h"
#include "exp/trace_store.h"
#include "grid/fingerprint.h"
#include "grid/protocol.h"
#include "isa/exec.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using namespace pred;

namespace {

using Clock = std::chrono::steady_clock;

/// Keeps results observable so the timed calls are not optimized away.
volatile std::uint64_t gSink = 0;

/// Calls fn() at least `minCalls` times and for at least 20 ms; returns the
/// median call time in microseconds.
template <typename Fn>
double medianCallUs(std::size_t minCalls, Fn&& fn) {
  std::vector<double> us;
  const auto start = Clock::now();
  while (us.size() < minCalls ||
         Clock::now() - start < std::chrono::milliseconds(20)) {
    const auto t0 = Clock::now();
    gSink = gSink + fn();
    us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  return percentile(std::move(us), 50);
}

}  // namespace

std::map<std::string, double> timeLayerFunctions(const LayerInputs& in) {
  const exp::PlatformRegistry platforms;
  const auto& w = *in.workload;
  std::map<std::string, double> out;

  std::size_t next = 0;
  const auto nextInput = [&]() -> const isa::Input& {
    return w.inputs[next++ % w.inputs.size()];
  };
  out["isa.functional_run_us"] = medianCallUs(w.inputs.size(), [&] {
    return isa::FunctionalCore::run(w.program, nextInput()).steps;
  });

  std::vector<isa::Trace> traces;
  for (const auto& input : w.inputs)
    traces.push_back(isa::FunctionalCore::run(w.program, input).trace);
  next = 0;
  out["exp.trace_fingerprint_us"] = medianCallUs(traces.size(), [&] {
    return exp::traceFingerprint(traces[next++ % traces.size()]);
  });
  next = 0;
  out["exp.compile_trace_us"] = medianCallUs(traces.size(), [&] {
    return static_cast<std::uint64_t>(
        exp::compileTrace(traces[next++ % traces.size()]).fetchPc.size());
  });

  next = 0;
  out["exp.platform.make_ms"] =
      medianCallUs(4 * in.platforms.size(),
                   [&] {
                     const auto& name =
                         in.platforms[next++ % in.platforms.size()];
                     return static_cast<std::uint64_t>(
                         platforms.make(name, w.program, in.wholeSpec.options)
                             ->numStates());
                   }) /
      1000.0;

  const auto model =
      platforms.make(in.wholeSpec.platform, w.program, in.wholeSpec.options);
  const auto reference = referenceAccumulator(*model, w);
  const std::string accText = reference.serialize();
  out["core.measures.serialize_us"] =
      medianCallUs(16, [&] { return reference.serialize().size(); });
  out["core.measures.deserialize_us"] = medianCallUs(16, [&] {
    return core::StreamingMeasures::deserialize(accText).numInputs();
  });

  // The eight shard accumulators of one grid job, merged as the server does.
  std::vector<core::StreamingMeasures> shardAccs;
  for (const auto& shard : exp::planShards(in.wholeSpec, 8)) {
    exp::ExperimentEngine engine(shard.engine);
    shardAccs.push_back(engine.reduceCellsRange(*model, w.program, w.inputs,
                                                shard.qBegin, shard.qEnd,
                                                shard.iBegin, shard.iEnd));
  }
  {
    std::vector<double> us;
    for (int rep = 0; rep < 64; ++rep) {
      auto copy = shardAccs;  // mergeShards consumes its argument
      const auto t0 = Clock::now();
      gSink = gSink + exp::ExperimentEngine::mergeShards(std::move(copy))
                          .numStates();
      us.push_back(std::chrono::duration<double, std::micro>(Clock::now() -
                                                             t0)
                       .count());
    }
    out["exp.shard.merge_us"] = percentile(std::move(us), 50);
  }

  out["exp.shard.spec_roundtrip_us"] = medianCallUs(64, [&] {
    return exp::parseShardSpec(exp::serializeShardSpec(in.wholeSpec)).qEnd;
  });

  const std::string payload = grid::encodeJobResultMsg(
      {false, grid::jobFingerprint(in.wholeSpec), accText});
  out["grid.protocol.frame_roundtrip_us"] = medianCallUs(64, [&] {
    const std::string bytes =
        grid::encodeFrame(grid::Frame{grid::FrameType::Result, payload});
    std::size_t offset = 0;
    return static_cast<std::uint64_t>(
        grid::decodeFrame(bytes, offset)->payload.size());
  });
  out["grid.fingerprint.job_us"] = medianCallUs(
      64, [&] { return grid::jobFingerprint(in.wholeSpec).size(); });
  return out;
}

}  // namespace perfbench
