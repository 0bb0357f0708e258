#pragma once
// trace_store.h — Memoized functional traces, their compiled replay form,
// and their trace-equivalence classes.
//
// Every timing model in this repository is trace-driven (isa/exec.h): the
// functional trace of a program depends on the input i alone, never on the
// hardware state q.  The seed benches nevertheless re-ran the functional
// core once per (q, i) cell or once per bench.  The TraceStore computes the
// trace for each (program, input) pair exactly once and shares it across
// every hardware state, platform, and scenario that replays it — the
// "shared precomputed structure" idea applied to Definition 2's inner loop.
//
// Keys are content fingerprints (program code + full memory layout + input
// bindings), not object addresses, so two structurally identical programs
// share entries and the store stays valid however long callers keep it
// around.  All methods are thread-safe; returned trace/compiled pointers
// are stable for the store's lifetime.  Internally the key map is sharded
// into kNumBuckets independently locked buckets keyed by the key's hash,
// so a wide worker pool filling the store does not serialize on one mutex.
//
// Trace-equivalence classes: distinct inputs frequently lower to the SAME
// functional trace (duplicated inputs, permutations the program never
// observes, values that steer no branch).  Since T(q, i) is a function of
// the trace alone, such inputs are timing-indistinguishable on every
// platform.  The store is therefore organized around classes: a class owns
// one trace and its lazily lowered ReplayProgram (exp/replay.h), and each
// store entry maps a key to its class.  A freshly run trace that matches an
// existing class record-for-record is dropped, and the entry points at the
// class representative — so every member of a class gets the SAME trace
// and compiled pointers, and each class is lowered exactly once however
// many inputs share it.  Class ids are dense, stable for the store's
// lifetime (clear() resets the numbering along with everything else), and
// the ExperimentEngine uses them to evaluate each class once per hardware
// state and fan the result out to all member inputs
// (EngineConfig::collapseTraceClasses).  Classes are grouped by trace
// content fingerprint and then CONFIRMED by exact record-for-record
// comparison, so a hash collision can only cost a comparison, never merge
// two distinct traces (which would corrupt results).

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "exp/replay.h"
#include "obs/metrics.h"
#include "isa/exec.h"
#include "isa/machine.h"
#include "isa/program.h"

namespace pred::exp {

/// Content fingerprint of a program: traceFingerprint's word mixer over the
/// instruction stream (one packed word per instruction) AND all four
/// MemoryLayout fields.  The bases matter even though they never change an
/// address the code computes: staticBase/stackBase/heapBase decide
/// the DataRegion classification of every access (split-cache routing), and
/// memWords decides how out-of-range addresses wrap (MachineState::wrapAddr)
/// — two code-identical programs with different layouts can produce
/// different traces and MUST NOT share a store entry.  (A pre-fix version
/// mixed memWords only; the layout-collision regression test in
/// tests/exp_engine_test.cpp fails against it.)  Exposed for tests.
std::uint64_t programFingerprint(const isa::Program& program);

/// Content fingerprint of one functional trace: every dynamic record (pc,
/// decoded instruction, branch outcome, successor, effective address,
/// data-dependent latency) packed losslessly into four 64-bit words and
/// mixed a word at a time.  Each mixing step is a bijection of the hash
/// state, so two traces of equal length that differ in exactly one packed
/// word always hash differently.  Equal traces always hash equal; the class
/// machinery below never trusts the converse.  Exposed for tests.
std::uint64_t traceFingerprint(const isa::Trace& trace);

/// Exact record-for-record equality of two traces — the relation that
/// defines a trace-equivalence class.
bool tracesIdentical(const isa::Trace& a, const isa::Trace& b);

class TraceStore {
 public:
  /// Lock shards; a power of two so the hash maps onto buckets by mask.
  static constexpr std::size_t kNumBuckets = 16;

  /// Returns the memoized trace of `program` on `input`, computing it on
  /// first use.  Throws if the program does not halt on the input.  The
  /// returned reference is the trace of the input's class (shared by every
  /// member input) and stays valid until clear()/destruction.
  const isa::Trace& traceFor(const isa::Program& program,
                             const isa::Input& input);

  /// The trace, its compiled replay form and its trace-equivalence class
  /// id with a single lookup (and a single hit/miss count) — what the
  /// engine's resolve pass uses per input.  `compile` lowers the class's
  /// ReplayProgram on its first compiling lookup (shared by every member
  /// input); without it `compiled` is null, so the interpreted path, where
  /// lowering would be pure waste, still gets the class id.
  struct EntryRef {
    const isa::Trace* trace;
    const ReplayProgram* compiled;
    std::uint32_t classId;
  };
  EntryRef entryRefFor(const isa::Program& program, const isa::Input& input,
                       bool compile);

  /// Keys (distinct (program, input) pairs) memoized so far.
  std::size_t size() const;
  /// Distinct trace-equivalence classes assigned so far (<= size()).
  std::size_t classCount() const;
  /// Lookup statistics, exact once concurrent fillers are joined (the
  /// counters are relaxed obs::Counters — see the memory-order contract in
  /// obs/metrics.h; hit/miss attribution is per LOOKUP, so entryRefFor's
  /// single combined lookup counts once however the entry path resolves).
  /// Note the split is deterministic only for serial filling: when two
  /// workers race to miss on the same key, the loser's lookup counts as a
  /// hit (the store already had the trace by the time it inserted).
  std::uint64_t hits() const { return hits_.value(); }
  std::uint64_t misses() const { return misses_.value(); }
  /// ReplayPrograms lowered so far: at most one per class, for any number
  /// of concurrent fillers.
  std::uint64_t compiles() const { return compiles_.value(); }

  /// Drops every entry and class AND resets the counters and the class
  /// numbering — a cleared store reports like a fresh one.
  void clear();

 private:
  /// One trace-equivalence class: the trace every member input shares and
  /// its compiled form, lowered on first demand.  Heap-allocated and never
  /// moved, so the pointers handed out stay stable until clear().
  struct TraceClass {
    isa::Trace trace;
    std::uint32_t id = 0;
    std::once_flag compileOnce;
    ReplayProgram compiled;
  };
  struct Bucket {
    mutable std::mutex mu;
    std::unordered_map<std::string, TraceClass*> entries;
  };

  Bucket& bucketFor(const std::string& key);
  /// The class of (program, input), running the program and assigning the
  /// class on first use of the key.
  TraceClass& classOf(const isa::Program& program, const isa::Input& input);
  /// The existing class whose trace is record-for-record identical to
  /// `trace`, or a fresh class that takes ownership of it.
  TraceClass& internClass(isa::Trace&& trace);
  /// `cls`'s compiled form, lowering it on first call (exactly once per
  /// class, whichever thread gets there first).
  const ReplayProgram& compiledOf(TraceClass& cls);

  std::array<Bucket, kNumBuckets> buckets_;
  /// Owns every class, in id order; classesByFingerprint_ indexes them by
  /// trace content fingerprint.  The per-fingerprint vector is the collision
  /// guard: same-fingerprint-different-content traces get distinct classes.
  mutable std::mutex classMu_;
  std::vector<std::unique_ptr<TraceClass>> classes_;
  std::unordered_map<std::uint64_t, std::vector<TraceClass*>>
      classesByFingerprint_;
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter compiles_;
};

}  // namespace pred::exp
