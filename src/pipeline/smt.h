#pragma once
// smt.h — Simultaneous multithreading with a real-time thread (Barre,
// Rochange, Sainrat [2]; Mische, Uhrig, Kluge, Ungerer [16]; Table 1,
// row 3).
//
// Several hardware threads share one issue port.  The uncertainty source is
// the *execution context*: which other tasks run in the non-real-time
// threads.  Two thread-select policies:
//   * RoundRobin — fair sharing; the real-time thread's completion time
//     depends on the co-runners (variable).
//   * RtPriority — the real-time thread (thread 0) issues whenever it is
//     ready; non-RT threads only fill its stall slots.  The RT thread then
//     experiences ZERO interference: its timing equals its solo timing, for
//     any co-runner set — the predictability claim of both papers.

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "isa/exec.h"
#include "isa/instr.h"

namespace pred::pipeline {

using Cycles = std::uint64_t;

enum class SmtPolicy : std::uint8_t { RoundRobin, RtPriority };

std::string toString(SmtPolicy p);

struct SmtConfig {
  SmtPolicy policy = SmtPolicy::RtPriority;
  Cycles aluLatency = 1;
  Cycles mulLatency = 4;
  Cycles memLatency = 2;  ///< scratchpad-backed to isolate issue interference
  Cycles controlLatency = 1;
  bool constantDiv = true;
};

/// Issue latency of one instruction by latency class: the one table that
/// both SmtPipeline::run and the packed kernel (smtRtCompletion) read.
/// With constantDiv off, a Divide takes its data-dependent extraLatency.
class SmtLatencies {
 public:
  explicit SmtLatencies(const SmtConfig& config);

  Cycles of(isa::LatencyClass cls, std::int32_t extraLatency) const {
    if (cls == isa::LatencyClass::Divide && !constantDiv_) {
      return static_cast<Cycles>(extraLatency);
    }
    return byClass_[static_cast<std::size_t>(cls)];
  }

 private:
  std::array<Cycles, 6> byClass_{};  ///< indexed by isa::LatencyClass
  bool constantDiv_ = true;
};

/// Hardware threads the packed kernel holds in fixed arrays: the
/// real-time thread plus up to three co-runners.
inline constexpr std::size_t kMaxSmtThreads = 4;

/// The cycle bound past which both SMT simulations give up and throw.
inline constexpr Cycles kSmtSafetyCycles = 100000000ULL;

class SmtPipeline {
 public:
  explicit SmtPipeline(SmtConfig config);

  /// Runs one trace per thread (thread 0 = real-time thread; nullptr =
  /// empty thread) and returns per-thread completion cycles.  Steps one
  /// cycle at a time over every thread: the oracle of smtRtCompletion.
  std::vector<Cycles> run(const std::vector<const isa::Trace*>& threads) const;

 private:
  SmtConfig config_;
  SmtLatencies latencies_;
};

/// Completion cycle of thread 0, equal to
/// SmtPipeline::run(threads)[0], computed over pre-lowered latencies:
/// thread 0 runs `rtOps` ops whose latencies rtLatency(k) yields, and
/// co-runner t (1-based) runs the latencies in *coRunners[t - 1].
///
/// Event-driven: when no thread can issue, the clock jumps to the
/// smallest readyAt.  That is exact, because an idle cycle moves neither
/// rotation pointer.  The run ends when thread 0 issues its last op, so
/// co-runners are not simulated past it, and under RtPriority they are not
/// simulated at all.  Throws std::runtime_error when
/// thread 0 has not finished by kSmtSafetyCycles, and
/// std::invalid_argument for more than kMaxSmtThreads threads.
/// Allocates nothing.
template <typename RtLatency>
Cycles smtRtCompletion(SmtPolicy policy, std::size_t rtOps,
                       const RtLatency& rtLatency,
                       const std::vector<Cycles>* const* coRunners,
                       std::size_t numCoRunners) {
  if (numCoRunners + 1 > kMaxSmtThreads) {
    throw std::invalid_argument("SMT kernel: more than " +
                                std::to_string(kMaxSmtThreads) + " threads");
  }
  // Under RtPriority thread 0 issues whenever it is ready, so co-runners
  // never delay it: its completion is its solo completion, and the
  // round-robin pick below over thread 0 alone computes exactly that.
  const std::size_t n =
      policy == SmtPolicy::RtPriority ? 1 : numCoRunners + 1;
  if (rtOps == 0) return 0;
  std::array<std::size_t, kMaxSmtThreads> next{};
  std::array<std::size_t, kMaxSmtThreads> length{};
  std::array<Cycles, kMaxSmtThreads> readyAt{};
  std::array<bool, kMaxSmtThreads> done{};
  length[0] = rtOps;
  for (std::size_t t = 1; t < n; ++t) {
    length[t] = coRunners[t - 1]->size();
    done[t] = length[t] == 0;
  }

  std::size_t rrNext = 0;  // round-robin pointer (all threads)
  Cycles cycle = 0;
  for (;;) {
    if (cycle >= kSmtSafetyCycles) {
      throw std::runtime_error("SMT run exceeded safety bound");
    }
    // SmtPipeline::run's round-robin rotation, stepped without a modulo.
    std::size_t chosen = n;  // none
    std::size_t t = rrNext;
    for (std::size_t k = 0; k < n; ++k) {
      if (!done[t] && readyAt[t] <= cycle) {
        chosen = t;
        rrNext = t + 1 == n ? 0 : t + 1;
        break;
      }
      t = t + 1 == n ? 0 : t + 1;
    }

    if (chosen == n) {
      // Nobody can issue: skip to the first cycle at which someone can.
      // Thread 0 is live, so the minimum is finite and lies ahead.
      Cycles wake = std::numeric_limits<Cycles>::max();
      for (std::size_t t = 0; t < n; ++t) {
        if (!done[t]) wake = std::min(wake, readyAt[t]);
      }
      cycle = wake;
      continue;
    }
    const std::size_t k = next[chosen]++;
    const Cycles lat =
        chosen == 0 ? rtLatency(k) : (*coRunners[chosen - 1])[k];
    readyAt[chosen] = cycle + lat;  // in-order thread: next issues after
    if (next[chosen] >= length[chosen]) {
      if (chosen == 0) return cycle + lat;
      done[chosen] = true;
    }
    ++cycle;
  }
}

}  // namespace pred::pipeline
