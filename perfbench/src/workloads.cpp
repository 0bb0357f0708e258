#include "workloads.h"

#include <cstdio>
#include <sstream>

#include "exp/engine.h"
#include "isa/ast.h"
#include "isa/workloads.h"

namespace perfbench {

using namespace pred;

std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a ^ (b * 0x9e3779b97f4a7c15ull);
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

study::WorkloadInstance linearSearchGrid(std::uint64_t seed) {
  auto prog = isa::ast::compileBranchy(isa::workloads::linearSearch(16));
  auto inputs = isa::workloads::randomArrayInputs(
      prog, "a", 16, static_cast<int>(kInputs), seed, 64);
  for (auto& in : inputs)
    in = isa::mergeInputs(in, isa::varInput(prog, "key", 7));
  return study::WorkloadInstance{std::move(prog), std::move(inputs)};
}

study::WorkloadInstance bubbleSortGrid(std::uint64_t seed) {
  auto prog = isa::ast::compileBranchy(isa::workloads::bubbleSort(8));
  auto inputs = isa::workloads::randomArrayInputs(
      prog, "a", 8, static_cast<int>(kInputs), seed, 24);
  return study::WorkloadInstance{std::move(prog), std::move(inputs)};
}

exp::PlatformOptions gridOptions() {
  exp::PlatformOptions o;
  o.numStates = static_cast<int>(kStates);
  return o;
}

exp::ShardSpec wholeGridSpec(const std::string& workload,
                             const std::string& platform,
                             std::size_t numStates) {
  exp::ShardSpec spec;
  spec.platform = platform;
  spec.workload = workload;
  spec.options = gridOptions();
  spec.qBegin = 0;
  spec.qEnd = numStates;
  spec.iBegin = 0;
  spec.iEnd = kInputs;
  spec.engine.threads = 1;
  return spec;
}

core::StreamingMeasures referenceAccumulator(const exp::TimingModel& model,
                                             const study::WorkloadInstance& w) {
  // The plainest walk: one cell per input, no trace-class collapse, so the
  // reference shares as little as possible with the paths it checks.
  exp::ExperimentEngine engine(
      exp::EngineConfig{.threads = 1, .collapseTraceClasses = false});
  return engine.reduceCells(model, w.program, w.inputs);
}

namespace {

std::string hexDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

}  // namespace

std::string canonicalFinding(const study::Finding& f) {
  std::ostringstream out;
  out << f.workload << '|' << f.platform << '|' << f.numStates << 'x'
      << f.numInputs << '|' << f.bcet << ".." << f.wcet << '|'
      << core::toString(f.mode) << '|' << core::toString(f.provenance);
  for (const auto m : f.requested) {
    const auto& v = f.value(m);
    out << '|' << study::toString(m) << '=' << hexDouble(v.value) << ' '
        << v.minTime << '@' << v.q1 << ',' << v.i1 << ' ' << v.maxTime << '@'
        << v.q2 << ',' << v.i2 << ' ' << core::toString(v.provenance);
  }
  for (const auto& label : f.stateLabels) out << '|' << label;
  return out.str();
}

}  // namespace perfbench
