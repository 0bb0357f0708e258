#pragma once
// workloads.h — Seeded generation of the benchmark's grids, and the
// byte-identity reference every result is checked against.
//
// The library only ever receives these generated programs and inputs; the
// shared WorkloadRegistry presets are never consulted.

#include <cstdint>
#include <string>

#include "core/measures.h"
#include "exp/platform.h"
#include "exp/shard.h"
#include "study/finding.h"
#include "study/workloads.h"

namespace perfbench {

inline constexpr std::size_t kStates = 64;  ///< |Q| of every grid
inline constexpr std::size_t kInputs = 64;  ///< |I| of every grid

/// splitmix64 of a ^ golden-ratio-spread b: independent streams per
/// (run seed, purpose, request index).
std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b);

/// linearsearch-16 over 64 seeded random arrays (values in [0, 64), key 7):
/// few trace classes per grid, so resolving traces dominates a cold query.
pred::study::WorkloadInstance linearSearchGrid(std::uint64_t seed);

/// bubblesort-8 over 64 seeded random arrays (values in [0, 24)): nearly
/// every input is its own trace class, so replay dominates a warm query.
pred::study::WorkloadInstance bubbleSortGrid(std::uint64_t seed);

/// Platform options of every grid: |Q| = kStates.
pred::exp::PlatformOptions gridOptions();

/// The whole-grid spec of a registry workload on a platform, with the
/// worker engine pinned to one thread.
pred::exp::ShardSpec wholeGridSpec(const std::string& workload,
                                   const std::string& platform,
                                   std::size_t numStates);

/// The single-process reference: ExperimentEngine::reduceCells over the
/// whole grid, one thread, trace-class collapse off.
pred::core::StreamingMeasures referenceAccumulator(
    const pred::exp::TimingModel& model,
    const pred::study::WorkloadInstance& w);

/// Every Finding field the accumulator determines — values, witnesses,
/// extremes, shape and labels — rendered exactly (values as hex floats).
/// The wall-clock report is left out.
std::string canonicalFinding(const pred::study::Finding& f);

}  // namespace perfbench
