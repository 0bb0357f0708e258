#include "pipeline/smt.h"

#include <stdexcept>

namespace pred::pipeline {

std::string toString(SmtPolicy p) {
  switch (p) {
    case SmtPolicy::RoundRobin: return "round-robin";
    case SmtPolicy::RtPriority: return "rt-priority";
  }
  return "?";
}

SmtLatencies::SmtLatencies(const SmtConfig& config)
    : constantDiv_(config.constantDiv) {
  const auto set = [this](isa::LatencyClass cls, Cycles lat) {
    byClass_[static_cast<std::size_t>(cls)] = lat;
  };
  set(isa::LatencyClass::Single, config.aluLatency);
  set(isa::LatencyClass::Multiply, config.mulLatency);
  set(isa::LatencyClass::Divide, static_cast<Cycles>(isa::maxDivLatency()));
  set(isa::LatencyClass::Memory, config.memLatency);
  set(isa::LatencyClass::Control, config.controlLatency);
  set(isa::LatencyClass::None, 1);
}

SmtPipeline::SmtPipeline(SmtConfig config)
    : config_(config), latencies_(config) {}

std::vector<Cycles> SmtPipeline::run(
    const std::vector<const isa::Trace*>& threads) const {
  struct ThreadState {
    std::size_t next = 0;   ///< next trace index to issue
    Cycles readyAt = 0;     ///< cycle at which the next instr may issue
    bool done = false;
  };
  const std::size_t n = threads.size();
  std::vector<ThreadState> st(n);
  std::vector<Cycles> completion(n, 0);
  for (std::size_t t = 0; t < n; ++t) {
    st[t].done = threads[t] == nullptr || threads[t]->empty();
  }

  std::size_t rrNext = 0;      // round-robin pointer (all threads)
  std::size_t bgNext = 1;      // rotation pointer among non-RT threads
  Cycles cycle = 0;
  std::size_t remaining = 0;
  for (std::size_t t = 0; t < n; ++t) {
    if (!st[t].done) ++remaining;
  }

  while (remaining > 0 && cycle < kSmtSafetyCycles) {
    // Pick the thread that issues this cycle.
    std::size_t chosen = n;  // none
    auto ready = [&](std::size_t t) {
      return !st[t].done && st[t].readyAt <= cycle;
    };
    if (config_.policy == SmtPolicy::RtPriority) {
      if (n > 0 && ready(0)) {
        chosen = 0;
      } else {
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t t = n <= 1 ? 0 : 1 + (bgNext - 1 + k) % (n - 1);
          if (t != 0 && ready(t)) {
            chosen = t;
            bgNext = t + 1 > n - 1 ? 1 : t + 1;
            break;
          }
        }
      }
    } else {  // RoundRobin
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t t = (rrNext + k) % n;
        if (ready(t)) {
          chosen = t;
          rrNext = (t + 1) % n;
          break;
        }
      }
    }

    if (chosen < n) {
      auto& ts = st[chosen];
      const auto& rec = (*threads[chosen])[ts.next];
      const Cycles lat =
          latencies_.of(isa::latencyClass(rec.instr.op), rec.extraLatency);
      ts.readyAt = cycle + lat;  // in-order thread: next issues after this
      ++ts.next;
      if (ts.next >= threads[chosen]->size()) {
        ts.done = true;
        completion[chosen] = cycle + lat;
        --remaining;
      }
    }
    ++cycle;
  }
  if (remaining > 0) throw std::runtime_error("SMT run exceeded safety bound");
  return completion;
}

}  // namespace pred::pipeline
