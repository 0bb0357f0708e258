// exp_engine_test.cpp — The parallel experiment engine: bit-identical
// parallel/serial matrices, trace memoization, and agreement with the
// legacy exhaustive-analysis path it replaces.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <utility>

#include "analysis/exhaustive.h"
#include "exp/engine.h"
#include "exp/platform.h"
#include "exp/trace_store.h"
#include "exp/worker_pool.h"
#include "isa/ast.h"
#include "isa/workloads.h"
#include "study/workloads.h"

namespace pred::exp {
namespace {

isa::Program testProgram() {
  return isa::ast::compileBranchy(isa::workloads::linearSearch(8));
}

std::vector<isa::Input> testInputs(const isa::Program& prog, int howMany) {
  auto inputs = isa::workloads::randomArrayInputs(prog, "a", 8, howMany, 11);
  for (auto& in : inputs) {
    in = isa::mergeInputs(in, isa::varInput(prog, "key", 3));
  }
  return inputs;
}

TEST(ExperimentEngine, ParallelEqualsSerialCellForCell) {
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 12);
  PlatformOptions opts;
  opts.numStates = 10;
  const auto model =
      PlatformRegistry::instance().make("inorder-lru", prog, opts);

  ExperimentEngine serial(EngineConfig{1, 4, 8});
  ExperimentEngine parallel(EngineConfig{4, 4, 8});
  const auto ms = serial.computeMatrix(*model, prog, inputs);
  const auto mp = parallel.computeMatrix(*model, prog, inputs);

  ASSERT_EQ(ms.numStates(), 10u);
  ASSERT_EQ(ms.numInputs(), 12u);
  EXPECT_TRUE(ms == mp);
  for (std::size_t q = 0; q < ms.numStates(); ++q) {
    for (std::size_t i = 0; i < ms.numInputs(); ++i) {
      EXPECT_EQ(ms.at(q, i), mp.at(q, i)) << "q=" << q << " i=" << i;
    }
  }
}

TEST(ExperimentEngine, DeterministicAcrossThreadCountsAndTileShapes) {
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 9);
  PlatformOptions opts;
  opts.numStates = 7;
  const auto model =
      PlatformRegistry::instance().make("inorder-fifo", prog, opts);

  ExperimentEngine reference(EngineConfig{1, 1, 1});
  const auto expected = reference.computeMatrix(*model, prog, inputs);
  for (int threads : {1, 2, 3, 8}) {
    for (auto [tq, ti] : {std::pair<std::size_t, std::size_t>{1, 1},
                          {3, 5},
                          {64, 64}}) {
      ExperimentEngine engine(EngineConfig{threads, tq, ti});
      EXPECT_TRUE(expected == engine.computeMatrix(*model, prog, inputs))
          << "threads=" << threads << " tile=" << tq << "x" << ti;
    }
  }
}

TEST(ExperimentEngine, MatchesLegacyExhaustiveAnalysisPath) {
  // Same Q enumeration parameters as analysis::exhaustiveInOrder — the
  // engine must reproduce the seed's ground-truth matrix exactly.
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 6);
  const cache::CacheGeometry geom{4, 8, 2};
  const cache::CacheTiming timing{1, 10};
  const auto legacy = analysis::exhaustiveInOrder(
      prog, inputs, geom, cache::Policy::LRU, timing, 8, 42,
      pipeline::InOrderConfig{});

  PlatformOptions opts;
  opts.numStates = 8;
  opts.seed = 42;
  opts.dataGeom = geom;
  opts.dataTiming = timing;
  const auto model =
      PlatformRegistry::instance().make("inorder-lru", prog, opts);
  ExperimentEngine engine(EngineConfig{4});
  EXPECT_TRUE(legacy.matrix == engine.computeMatrix(*model, prog, inputs));
}

TEST(TraceStore, MemoizedTracesEqualFreshTraces) {
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 5);
  TraceStore store;
  for (const auto& in : inputs) {
    const auto& memoized = store.traceFor(prog, in);
    const auto fresh = isa::FunctionalCore::run(prog, in).trace;
    ASSERT_EQ(memoized.size(), fresh.size());
    for (std::size_t k = 0; k < fresh.size(); ++k) {
      EXPECT_EQ(memoized[k].pc, fresh[k].pc);
      EXPECT_EQ(memoized[k].nextPc, fresh[k].nextPc);
      EXPECT_EQ(memoized[k].branchTaken, fresh[k].branchTaken);
      EXPECT_EQ(memoized[k].memWordAddr, fresh[k].memWordAddr);
      EXPECT_EQ(memoized[k].extraLatency, fresh[k].extraLatency);
    }
  }
}

TEST(TraceStore, ComputesEachInputOnceAndReturnsStablePointers) {
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 6);
  TraceStore store;
  const auto tracesFor = [&] {
    std::vector<const isa::Trace*> out;
    for (const auto& in : inputs) out.push_back(&store.traceFor(prog, in));
    return out;
  };
  const auto first = tracesFor();
  EXPECT_EQ(store.misses(), 6u);
  EXPECT_EQ(store.size(), 6u);
  const auto second = tracesFor();
  EXPECT_EQ(store.misses(), 6u);  // no recomputation
  EXPECT_EQ(store.hits(), 6u);
  EXPECT_EQ(first, second);  // identical pointers
}

TEST(TraceStore, KeysByContentNotByObjectAddress) {
  const auto progA = testProgram();
  const auto progB = testProgram();  // distinct object, same code
  EXPECT_EQ(programFingerprint(progA), programFingerprint(progB));
  const auto different =
      isa::ast::compileBranchy(isa::workloads::sumLoop(8));
  EXPECT_NE(programFingerprint(progA), programFingerprint(different));

  TraceStore store;
  store.traceFor(progA, isa::Input{});
  store.traceFor(progB, isa::Input{});
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.hits(), 1u);
}

/// Code-identical raw program parameterized by layout only: loads word 100,
/// whose wrapped address (memWords) and region classification (bases) both
/// depend on the MemoryLayout alone.
isa::Program rawLoadProgram(const isa::MemoryLayout& layout) {
  isa::Program p;
  p.code = {
      isa::Instr{isa::Op::LI, 1, 0, 0, 100},
      isa::Instr{isa::Op::LD, 2, 1, 0, 0},
      isa::Instr{isa::Op::HALT, 0, 0, 0, 0},
  };
  p.layout = layout;
  return p;
}

TEST(TraceStore, CodeIdenticalProgramsWithDifferentBasesStayDistinct) {
  // THE regression for the fingerprint-collision bug: the pre-fix
  // programFingerprint mixed layout.memWords but NOT the three base fields,
  // so these two code-identical programs collided and the store served one
  // layout's memoized entry for the other.  Their traces are equal (bases
  // never change an executed address), but the REGION of the accessed word
  // differs — Static under the default layout, Heap once heapBase drops
  // below it — which is exactly what split-cache timing keys on.
  isa::MemoryLayout defaultLayout;
  isa::MemoryLayout lowHeap;
  lowHeap.heapBase = 64;
  const auto progA = rawLoadProgram(defaultLayout);
  const auto progB = rawLoadProgram(lowHeap);
  ASSERT_EQ(defaultLayout.regionOf(100), isa::DataRegion::Static);
  ASSERT_EQ(lowHeap.regionOf(100), isa::DataRegion::Heap);

  EXPECT_NE(programFingerprint(progA), programFingerprint(progB));
  // Every base field must be identity-bearing, not just heapBase.
  for (auto mutate : {+[](isa::MemoryLayout& l) { l.staticBase = 8; },
                      +[](isa::MemoryLayout& l) { l.stackBase = 512; },
                      +[](isa::MemoryLayout& l) { l.memWords = 64; }}) {
    isa::MemoryLayout changed;
    mutate(changed);
    EXPECT_NE(programFingerprint(rawLoadProgram(changed)),
              programFingerprint(progA));
  }

  TraceStore store;
  store.traceFor(progA, isa::Input{});
  store.traceFor(progB, isa::Input{});
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.misses(), 2u);
  EXPECT_EQ(store.hits(), 0u);
}

TEST(TraceStore, CodeIdenticalProgramsWithDifferentMemWordsDifferInTrace) {
  // memWords changes the WRAPPED effective address, so here even the traces
  // differ — sharing an entry would corrupt every measure downstream.
  isa::MemoryLayout big;     // wrapAddr(100) = 100
  isa::MemoryLayout small;   // wrapAddr(100) = 100 % 64 = 36
  small.memWords = 64;
  const auto progA = rawLoadProgram(big);
  const auto progB = rawLoadProgram(small);

  TraceStore store;
  const auto& traceA = store.traceFor(progA, isa::Input{});
  const auto& traceB = store.traceFor(progB, isa::Input{});
  EXPECT_EQ(store.size(), 2u);
  ASSERT_EQ(traceA.size(), traceB.size());
  EXPECT_EQ(traceA[1].memWordAddr, 100);
  EXPECT_EQ(traceB[1].memWordAddr, 36);
  EXPECT_FALSE(tracesIdentical(traceA, traceB));
  EXPECT_NE(traceFingerprint(traceA), traceFingerprint(traceB));
}

TEST(TraceStore, TraceEquivalentInputsShareAClassId) {
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 2);
  TraceStore store;

  // Three trace-equal flavors of input 0: the input itself, a renamed exact
  // copy (same store key), and a copy with one never-read scratch word
  // (distinct store key, identical trace).
  const auto ref0 = store.entryRefFor(prog, inputs[0], false);
  isa::Input renamed = inputs[0];
  renamed.name = "renamed";
  const auto refRenamed = store.entryRefFor(prog, renamed, false);
  isa::Input scratch = inputs[0];
  scratch.mem[prog.layout.memWords - 1] = 42;
  const auto refScratch = store.entryRefFor(prog, scratch, false);

  EXPECT_EQ(ref0.classId, refRenamed.classId);
  EXPECT_EQ(ref0.trace, refRenamed.trace);  // same entry entirely
  EXPECT_EQ(ref0.classId, refScratch.classId);
  // Distinct entry, same class: the scratch input's own run was dropped
  // and its entry points at the class representative.
  EXPECT_EQ(ref0.trace, refScratch.trace);

  // An input whose trace certainly differs (the key lands in slot 0, so
  // the very first comparison ends the scan) gets its own class;
  // compiling and non-compiling lookups agree on ids.
  isa::Input found = inputs[0];
  found.mem[prog.variables.at("a")] = 3;
  found.name = "found-at-0";
  const auto ref1 = store.entryRefFor(prog, found, true);
  EXPECT_NE(ref1.classId, ref0.classId);
  EXPECT_EQ(store.entryRefFor(prog, found, false).classId, ref1.classId);

  EXPECT_EQ(store.size(), 3u);        // input0, scratch, found
  EXPECT_EQ(store.classCount(), 2u);  // {input0, scratch}, {found}
  EXPECT_EQ(store.compiles(), 1u);    // only a compiling lookup lowers
  EXPECT_EQ(ref0.compiled, nullptr);
  EXPECT_NE(ref1.compiled, nullptr);

  // clear() resets the class numbering along with the entries.
  store.clear();
  EXPECT_EQ(store.classCount(), 0u);
  EXPECT_EQ(store.compiles(), 0u);
  EXPECT_EQ(store.entryRefFor(prog, found, false).classId, 0u);
}

/// A three-record trace whose middle record sets every ExecRecord field to
/// a distinct, non-default value.
isa::Trace fieldProbeTrace() {
  isa::ExecRecord rec;
  rec.pc = 5;
  rec.instr = isa::Instr{isa::Op::LD, 3, 4, 6, -7};
  rec.branchTaken = false;
  rec.nextPc = 6;
  rec.memWordAddr = 100;
  rec.extraLatency = 2;
  return isa::Trace(3, rec);
}

TEST(TraceFingerprint, EveryRecordFieldReachesTheHash) {
  // Guards the word packing: a field shifted out of its word, or two
  // fields sharing bits, would let a one-field change go unnoticed.
  using Mutation = std::pair<const char*, std::function<void(isa::ExecRecord&)>>;
  const std::vector<Mutation> mutations = {
      {"pc", [](isa::ExecRecord& r) { r.pc = 9; }},
      {"pc negative", [](isa::ExecRecord& r) { r.pc = -5; }},
      {"op", [](isa::ExecRecord& r) { r.instr.op = isa::Op::ST; }},
      {"rd", [](isa::ExecRecord& r) { r.instr.rd = 255; }},
      {"rs1", [](isa::ExecRecord& r) { r.instr.rs1 = 5; }},
      {"rs2", [](isa::ExecRecord& r) { r.instr.rs2 = 7; }},
      {"imm negative", [](isa::ExecRecord& r) { r.instr.imm = -8; }},
      {"imm sign", [](isa::ExecRecord& r) { r.instr.imm = 7; }},
      {"imm min", [](isa::ExecRecord& r) { r.instr.imm = INT32_MIN; }},
      {"branchTaken", [](isa::ExecRecord& r) { r.branchTaken = true; }},
      {"nextPc", [](isa::ExecRecord& r) { r.nextPc = 7; }},
      {"memWordAddr -1", [](isa::ExecRecord& r) { r.memWordAddr = -1; }},
      {"memWordAddr > 2^32",
       [](isa::ExecRecord& r) { r.memWordAddr = 100 + (1LL << 32); }},
      {"memWordAddr bit 62",
       [](isa::ExecRecord& r) { r.memWordAddr = 100 + (1LL << 62); }},
      {"extraLatency", [](isa::ExecRecord& r) { r.extraLatency = 3; }},
      {"extraLatency high bit",
       [](isa::ExecRecord& r) { r.extraLatency = 2 + INT32_MIN; }},
      // Swapped neighbours: the fields must not share bits.
      {"rd <-> rs1",
       [](isa::ExecRecord& r) { std::swap(r.instr.rd, r.instr.rs1); }},
      {"rs1 <-> rs2",
       [](isa::ExecRecord& r) { std::swap(r.instr.rs1, r.instr.rs2); }},
      {"pc <-> nextPc", [](isa::ExecRecord& r) { std::swap(r.pc, r.nextPc); }},
  };
  const isa::Trace base = fieldProbeTrace();
  const std::uint64_t baseFp = traceFingerprint(base);
  for (const auto& [name, mutate] : mutations) {
    isa::Trace changed = base;
    mutate(changed[1]);
    EXPECT_FALSE(tracesIdentical(base, changed)) << name;
    EXPECT_NE(traceFingerprint(changed), baseFp) << name;
  }
  // Length is part of the content too.
  isa::Trace longer = base;
  longer.push_back(base.back());
  EXPECT_NE(traceFingerprint(longer), baseFp);
  EXPECT_EQ(traceFingerprint(isa::Trace(base)), baseFp);
}

TEST(ProgramFingerprint, EveryInstructionAndLayoutFieldReachesTheHash) {
  isa::Program base;
  base.code = {
      isa::Instr{isa::Op::LI, 1, 0, 0, 100},
      isa::Instr{isa::Op::LD, 2, 1, 3, -4},
      isa::Instr{isa::Op::HALT, 0, 0, 0, 0},
  };
  using Mutation = std::pair<const char*, std::function<void(isa::Program&)>>;
  const std::vector<Mutation> mutations = {
      {"op", [](isa::Program& p) { p.code[1].op = isa::Op::ST; }},
      {"rd", [](isa::Program& p) { p.code[1].rd = 255; }},
      {"rs1", [](isa::Program& p) { p.code[1].rs1 = 4; }},
      {"rs2", [](isa::Program& p) { p.code[1].rs2 = 9; }},
      {"imm negative", [](isa::Program& p) { p.code[1].imm = -5; }},
      {"imm sign", [](isa::Program& p) { p.code[1].imm = 4; }},
      {"rd <-> rs1",
       [](isa::Program& p) { std::swap(p.code[1].rd, p.code[1].rs1); }},
      {"rs1 <-> rs2",
       [](isa::Program& p) { std::swap(p.code[1].rs1, p.code[1].rs2); }},
      {"staticBase", [](isa::Program& p) { p.layout.staticBase = 8; }},
      {"stackBase", [](isa::Program& p) { p.layout.stackBase = 512; }},
      {"heapBase", [](isa::Program& p) { p.layout.heapBase = 64; }},
      {"heapBase > 2^32",
       [](isa::Program& p) { p.layout.heapBase += 1LL << 32; }},
      {"memWords", [](isa::Program& p) { p.layout.memWords = 64; }},
      {"memWords > 2^32",
       [](isa::Program& p) { p.layout.memWords += 1LL << 40; }},
      {"extra instruction",
       [](isa::Program& p) { p.code.push_back(p.code.back()); }},
  };
  const std::uint64_t baseFp = programFingerprint(base);
  for (const auto& [name, mutate] : mutations) {
    isa::Program changed = base;
    mutate(changed);
    EXPECT_NE(programFingerprint(changed), baseFp) << name;
  }
}

TEST(TraceStore, CompilesEachClassOnceAndSharesItAcrossMembers) {
  // linearsearch-16x64-dup: 64 inputs over 48 store keys, 16 trace classes.
  const auto w =
      study::WorkloadRegistry::instance().make("linearsearch-16x64-dup");
  ASSERT_EQ(w.inputs.size(), 64u);
  PlatformOptions options;
  options.numStates = 4;
  const auto model =
      PlatformRegistry::instance().make("inorder-lru", w.program, options);
  ExperimentEngine engine(EngineConfig{1});
  engine.reduceCells(*model, w.program, w.inputs);
  const auto report = engine.report();
  EXPECT_EQ(report.counter("trace_store.entries"), 48u);
  EXPECT_EQ(report.counter("trace_store.classes"), 16u);
  EXPECT_EQ(report.counter("trace_store.compiles"),
            report.counter("trace_store.classes"));

  // Every member of a class gets the class's own trace and compiled form.
  TraceStore& store = engine.traceStore();
  std::map<std::uint32_t, TraceStore::EntryRef> firstOfClass;
  for (const auto& in : w.inputs) {
    const auto ref = store.entryRefFor(w.program, in, true);
    const auto [it, fresh] = firstOfClass.try_emplace(ref.classId, ref);
    if (!fresh) {
      EXPECT_EQ(ref.compiled, it->second.compiled);
      EXPECT_EQ(ref.trace, it->second.trace);
    }
  }
  EXPECT_EQ(firstOfClass.size(), 16u);
  EXPECT_EQ(store.compiles(), 16u);  // re-lookups lower nothing
}

TEST(TraceStore, ConcurrentFillCompilesEachClassOnce) {
  const auto w =
      study::WorkloadRegistry::instance().make("linearsearch-16x64-dup");
  PlatformOptions options;
  options.numStates = 4;
  const auto model =
      PlatformRegistry::instance().make("inorder-lru", w.program, options);
  ExperimentEngine serial(EngineConfig{1});
  const auto expected = serial.reduceCells(*model, w.program, w.inputs);

  // The engine's own threads=4 resolve pass.
  ExperimentEngine parallel(EngineConfig{4});
  EXPECT_TRUE(parallel.reduceCells(*model, w.program, w.inputs)
                  .identicalTo(expected));
  const auto report = parallel.report();
  EXPECT_EQ(report.counter("trace_store.entries"), 48u);
  EXPECT_EQ(report.counter("trace_store.classes"), 16u);
  EXPECT_EQ(report.counter("trace_store.compiles"), 16u);

  // Four workers racing over every input three times: same classes, one
  // lowering each, whoever loses each race.
  TraceStore store;
  WorkerPool::shared().run(w.inputs.size() * 3, 4, [&](std::size_t k, int) {
    store.entryRefFor(w.program, w.inputs[k % w.inputs.size()], true);
  });
  EXPECT_EQ(store.size(), 48u);
  EXPECT_EQ(store.classCount(), 16u);
  EXPECT_EQ(store.compiles(), 16u);
}

TEST(TraceStore, ThrowsOnNonHaltingProgram) {
  isa::Program infinite;
  infinite.code = {isa::Instr{isa::Op::JMP, 0, 0, 0, 0}};
  TraceStore store;
  EXPECT_THROW(store.traceFor(infinite, isa::Input{}), std::runtime_error);
}

class ThrowingModel : public TimingModel {
 public:
  std::string name() const override { return "throwing"; }
  std::size_t numStates() const override { return 4; }
  Cycles time(std::size_t q, const isa::Trace&) const override {
    if (q == 2) throw std::runtime_error("boom");
    return 1;
  }
};

TEST(ExperimentEngine, WorkerExceptionsPropagateToCaller) {
  const auto prog = testProgram();
  const auto inputs = testInputs(prog, 4);
  ThrowingModel model;
  for (int threads : {1, 4}) {
    ExperimentEngine engine(EngineConfig{threads, 1, 1});
    EXPECT_THROW(engine.computeMatrix(model, prog, inputs),
                 std::runtime_error);
  }
}

TEST(ExperimentEngine, EmptyAxesYieldEmptyMatrix) {
  const auto prog = testProgram();
  PlatformOptions opts;
  opts.numStates = 3;
  const auto model =
      PlatformRegistry::instance().make("inorder-lru", prog, opts);
  ExperimentEngine engine;
  const auto m = engine.computeMatrix(*model, prog, {});
  EXPECT_EQ(m.numStates(), 3u);
  EXPECT_EQ(m.numInputs(), 0u);
  EXPECT_EQ(m.bcet(), 0u);  // defined (zero) rather than UB on empty axes
  EXPECT_EQ(m.wcet(), 0u);
}

}  // namespace
}  // namespace pred::exp
