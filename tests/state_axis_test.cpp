// state_axis_test.cpp — Differentials for the state-axis replay paths:
// the per-set column replay of InOrderSnapshotModel::timePackedStates and
// the event-driven SMT kernel (pipeline::smtRtCompletion), each against
// its oracle, on configurations beyond the registry defaults.
//
// Oracles: per-state timePacked and the interpreted time(q, trace) for the
// in-order columns; SmtPipeline::run for the SMT kernel.  Every value must
// match bit for bit, for every q band a tile or a shard can ask for.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "branch/dynamic.h"
#include "cache/mustmay.h"
#include "cache/packed.h"
#include "cache/set_assoc.h"
#include "core/measures.h"
#include "exp/engine.h"
#include "exp/platform.h"
#include "exp/replay.h"
#include "isa/ast.h"
#include "isa/exec.h"
#include "isa/workloads.h"
#include "pipeline/smt.h"

namespace pred {
namespace {

const std::vector<cache::Policy> kAllPolicies = {
    cache::Policy::LRU, cache::Policy::FIFO, cache::Policy::PLRU,
    cache::Policy::MRU, cache::Policy::RANDOM};

/// A snapshot model over warmed caches of one policy (MRU has no preset).
std::unique_ptr<exp::InOrderSnapshotModel> snapshotModel(
    cache::Policy policy, const cache::CacheGeometry& geom, int numStates,
    bool withICache, bool withBimodal) {
  const cache::CacheTiming timing{1, 10};
  auto caches = cache::enumerateInitialStates(geom, policy, timing,
                                              numStates, 91, 512);
  std::vector<cache::SetAssocCache> icaches;
  if (withICache) {
    icaches = cache::enumerateInitialStates(geom, policy, {0, 6}, numStates,
                                            17, 256);
  }
  std::vector<exp::InOrderSnapshotModel::State> states;
  for (std::size_t k = 0; k < caches.size(); ++k) {
    exp::InOrderSnapshotModel::State s{std::move(caches[k]), std::nullopt,
                                       nullptr, "s" + std::to_string(k)};
    if (withICache) s.icache = std::move(icaches[k]);
    if (withBimodal) {
      s.predictor = std::make_shared<branch::BimodalPredictor>(
          64, static_cast<int>(k % 4));
    }
    states.push_back(std::move(s));
  }
  return std::make_unique<exp::InOrderSnapshotModel>(
      "inorder-" + cache::toString(policy), pipeline::InOrderConfig{},
      std::move(states));
}

/// Traces of bubblesort-8 over seeded inputs.
std::vector<isa::Trace> bubbleTraces(int howMany, std::uint64_t seed) {
  const auto prog = isa::ast::compileBranchy(isa::workloads::bubbleSort(8));
  std::vector<isa::Trace> out;
  for (const auto& in :
       isa::workloads::randomArrayInputs(prog, "a", 8, howMany, seed, 24)) {
    out.push_back(isa::FunctionalCore::run(prog, in).trace);
  }
  return out;
}

/// A hand-built trace of loads and stores at the given word addresses.
isa::Trace dataTrace(const std::vector<std::int64_t>& addrs) {
  isa::Trace trace;
  for (std::size_t k = 0; k < addrs.size(); ++k) {
    isa::ExecRecord rec;
    rec.pc = static_cast<std::int32_t>(k);
    rec.instr.op = k % 3 == 0 ? isa::Op::ST : isa::Op::LD;
    rec.nextPc = rec.pc + 1;
    rec.memWordAddr = addrs[k];
    trace.push_back(rec);
  }
  return trace;
}

/// A data trace whose word addresses include negative ones.  On the 4-word
/// x 8-set geometry the negative addresses floor to lines -1, -9 and -17
/// (set 7) and -8 and -16 (set 0), where they contend with the
/// non-negative lines 7, 0, 8 and 16; sets 1..6 see ordinary traffic.
isa::Trace negativeAddressTrace() {
  return dataTrace({-1, 0, -3, 32, -32, -35, 64, -64, -2, 5, -67, 33, -33,
                    12, -1, 0, 64, 36, -64, -32, 17, 29, -34, 3});
}

/// Every band of a partition of [0, nQ) into pieces of `width` states.
std::vector<std::pair<std::size_t, std::size_t>> bands(std::size_t nQ,
                                                       std::size_t width) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t a = 0; a < nQ; a += width) {
    out.emplace_back(a, std::min(nQ, a + width));
  }
  return out;
}

/// Column replay over every band of widths 1, 2, 3, 5 and |Q| equals
/// per-state timePacked and the interpreted time(q, trace).
void expectColumnsMatch(const exp::TimingModel& model,
                        const std::vector<isa::Trace>& traces,
                        const std::string& label) {
  ASSERT_TRUE(model.supportsPackedReplay()) << label;
  const std::size_t nQ = model.numStates();
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const auto rp = exp::compileTrace(traces[i]);
    std::vector<exp::Cycles> want(nQ);
    for (std::size_t q = 0; q < nQ; ++q) {
      want[q] = model.timePacked(q, rp);
      ASSERT_EQ(want[q], model.time(q, traces[i]))
          << label << " q=" << q << " i=" << i;
    }
    for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{5}, nQ}) {
      for (const auto& [a, b] : bands(nQ, width)) {
        std::vector<exp::Cycles> got(b - a, 0);
        model.timePackedStates(rp, a, b, got.data());
        for (std::size_t q = a; q < b; ++q) {
          ASSERT_EQ(got[q - a], want[q])
              << label << " band [" << a << "," << b << ") q=" << q
              << " i=" << i;
        }
      }
    }
  }
}

TEST(ColumnReplay, EveryPolicyMatchesPerStateReplay) {
  const auto traces = bubbleTraces(6, 5);
  for (const auto policy : kAllPolicies) {
    for (const auto& geom :
         {cache::CacheGeometry{4, 8, 2}, cache::CacheGeometry{3, 5, 4}}) {
      const auto model = snapshotModel(policy, geom, 13, false, false);
      expectColumnsMatch(*model, traces,
                         cache::toString(policy) + "/" +
                             std::to_string(geom.numSets) + "sets");
    }
  }
}

TEST(ColumnReplay, ICacheAndPredictorStatesMatchPerStateReplay) {
  const auto traces = bubbleTraces(4, 8);
  for (const auto policy : kAllPolicies) {
    const auto model =
        snapshotModel(policy, cache::CacheGeometry{4, 8, 2}, 9, true, true);
    expectColumnsMatch(*model, traces,
                       cache::toString(policy) + "/icache+bimodal");
  }
  const auto prog = isa::ast::compileBranchy(isa::workloads::bubbleSort(8));
  exp::PlatformOptions opts;
  opts.numStates = 11;
  for (const char* preset : {"inorder-lru-icache", "inorder-lru-bimodal",
                             "inorder-random", "inorder-plru"}) {
    const auto model = exp::PlatformRegistry::instance().make(preset, prog,
                                                              opts);
    expectColumnsMatch(*model, traces, preset);
  }
}

/// States that hold the SAME lines in the same ways of every set but
/// differ in the policy's meta word: each state fills lines 0..3, with the
/// first k ways first taken by other lines and refilled (which moves the
/// FIFO pointer to k), then hits the four lines in its own order (which
/// permutes LRU recency, PLRU and MRU bits).  A class key that ignored the
/// meta word would merge them; the load stream that follows, reusing those
/// lines and bringing in new ones, tells them apart.
TEST(ColumnReplay, StatesDifferingOnlyInPolicyMetaStayApart) {
  const cache::CacheGeometry geom{1, 4, 4};  // one word per line
  const cache::CacheTiming timing{1, 10};
  const std::vector<std::vector<std::int64_t>> hitOrders = {
      {0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1},
      {0, 2, 1, 3}, {3, 1, 2, 0}, {1, 0, 3, 2}, {2, 3, 0, 1}};
  const auto addr = [](std::int64_t line, std::int64_t set) {
    return line * 4 + set;
  };
  isa::Trace trace;
  for (const std::int64_t line : {4, 0, 8, 1, 12, 2, 16, 3, 0, 20, 1, 24}) {
    for (std::int64_t set = 0; set < 4; ++set) {
      isa::ExecRecord rec;
      rec.instr.op = isa::Op::LD;
      rec.memWordAddr = addr(line, set);
      trace.push_back(rec);
    }
  }
  for (const auto policy : kAllPolicies) {
    std::vector<exp::InOrderSnapshotModel::State> states;
    for (std::size_t k = 0; k < hitOrders.size(); ++k) {
      cache::SetAssocCache c(geom, policy, timing);
      const auto refilled = static_cast<std::int64_t>(k % 4);
      for (std::int64_t set = 0; set < 4; ++set) {
        for (std::int64_t w = 0; w < 4; ++w) {
          c.access(addr(w < refilled ? 100 + w : w, set));
        }
        for (std::int64_t w = 0; w < refilled; ++w) c.access(addr(w, set));
        for (const std::int64_t line : hitOrders[k]) c.access(addr(line, set));
      }
      states.push_back(exp::InOrderSnapshotModel::State{
          std::move(c), std::nullopt, nullptr, "s" + std::to_string(k)});
    }
    const exp::InOrderSnapshotModel model("meta-" + cache::toString(policy),
                                          {}, std::move(states));
    expectColumnsMatch(model, {trace}, cache::toString(policy) + "/meta");
  }
}

TEST(ColumnReplay, NegativeDataAddressesTakeTheDivisionPath) {
  // The power-of-two geometry maps by shift and mask, the 3-word x 6-set
  // one by CacheGeometry's floor division and Euclidean modulo.
  const std::vector<isa::Trace> traces = {negativeAddressTrace()};
  for (const auto& geom :
       {cache::CacheGeometry{4, 8, 2}, cache::CacheGeometry{3, 6, 2}}) {
    for (const auto policy : kAllPolicies) {
      const auto model = snapshotModel(policy, geom, 10, false, false);
      expectColumnsMatch(*model, traces,
                         cache::toString(policy) + "/negative/" +
                             std::to_string(geom.lineWords) + "x" +
                             std::to_string(geom.numSets));
    }
  }
}

TEST(ColumnReplay, NegativeAddressesMapToFloorLinesAndInRangeSets) {
  // Word -4 on 4-word lines over 8 sets is line -1, set 7; truncating
  // division used to give set -1, an out-of-bounds index.
  const cache::CacheGeometry pow2{4, 8, 2};
  EXPECT_EQ(pow2.lineOf(-4), -1);
  EXPECT_EQ(pow2.lineOf(-1), -1);
  EXPECT_EQ(pow2.lineOf(-33), -9);
  EXPECT_EQ(pow2.lineOf(-5), -2);
  EXPECT_EQ(pow2.lineOf(7), 1);
  for (const std::int64_t a : {-4, -1, -33}) EXPECT_EQ(pow2.setOf(a), 7);
  const cache::CacheGeometry odd{3, 6, 2};
  EXPECT_EQ(odd.lineOf(-4), -2);
  EXPECT_EQ(odd.setOf(-4), 4);
  EXPECT_EQ(odd.lineOf(-1), -1);
  EXPECT_EQ(odd.setOf(-1), 5);
  EXPECT_EQ(odd.lineOf(-33), -11);
  EXPECT_EQ(odd.setOf(-33), 1);

  const std::vector<std::int64_t> addrs = {-4, 28, -1, 60, -33, -4, 3,
                                           -36, -1, 124, -33, -2};
  const isa::Trace trace = dataTrace(addrs);
  const cache::CacheTiming timing{1, 10};
  for (const auto& geom : {pow2, odd}) {
    for (const auto policy : kAllPolicies) {
      const std::string label = cache::toString(policy) + "/" +
                                std::to_string(geom.lineWords) + "x" +
                                std::to_string(geom.numSets);
      // Words -4 and -1 share line -1, so the second access hits.
      cache::SetAssocCache fresh(geom, policy, timing, 3);
      EXPECT_FALSE(fresh.access(-4).hit) << label;
      EXPECT_EQ(fresh.access(-1).hit, geom.lineOf(-1) == geom.lineOf(-4))
          << label;

      // SetAssocCache and PackedCacheSim agree access for access, and the
      // sim's shift-and-mask mapping equals the geometry's.
      cache::SetAssocCache ref(geom, policy, timing, 3);
      cache::PackedCacheSim sim;
      sim.load(ref.pack());
      cache::AbstractCache must(geom);
      for (const std::int64_t a : addrs) {
        const auto slot = sim.locate(a);
        EXPECT_EQ(slot.line, geom.lineOf(a)) << label << " addr " << a;
        EXPECT_EQ(slot.set, static_cast<std::size_t>(geom.setOf(a)))
            << label << " addr " << a;
        const auto want = ref.access(a);
        const auto got = sim.access(a);
        EXPECT_EQ(got.hit, want.hit) << label << " addr " << a;
        EXPECT_EQ(got.latency, want.latency) << label << " addr " << a;
        EXPECT_TRUE(ref.contains(a)) << label << " addr " << a;
        must.accessExact(a);
        EXPECT_TRUE(must.mustContain(a)) << label << " addr " << a;
      }
      must.accessRange(-40, -1);
      EXPECT_EQ(ref.hits(), sim.hits()) << label;

      // The engine's column replay over these states matches per-state
      // time for every band.
      const auto model = snapshotModel(policy, geom, 10, false, false);
      expectColumnsMatch(*model, {trace}, label);
    }
  }
}

TEST(ColumnReplay, CountersSeparateClassesFromFallbackColumns) {
  const auto prog = isa::ast::compileBranchy(isa::workloads::bubbleSort(8));
  const auto inputs =
      isa::workloads::randomArrayInputs(prog, "a", 8, 6, 3, 24);
  exp::PlatformOptions opts;
  opts.numStates = 16;
  const auto counters = [&](const char* preset) {
    const auto model =
        exp::PlatformRegistry::instance().make(preset, prog, opts);
    exp::ExperimentEngine engine(exp::EngineConfig{1});
    engine.reduceCells(*model, prog, inputs);
    return std::make_pair(
        engine.metrics().counter("engine.state_classes").value(),
        engine.metrics().counter("engine.state_fallback").value());
  };
  // One column per trace class, and the default tile spans all 16 states.
  const auto [lruClasses, lruFallback] = counters("inorder-lru");
  EXPECT_GT(lruClasses, 0u);
  EXPECT_EQ(lruFallback, 0u);
  // The classes replayed never exceed sets x states per column.
  EXPECT_LE(lruClasses, 8u * 16u * inputs.size());
  const auto [rndClasses, rndFallback] = counters("inorder-random");
  EXPECT_EQ(rndClasses, 0u);
  EXPECT_GT(rndFallback, 0u);
  const auto [smtClasses, smtFallback] = counters("smt-rr");
  EXPECT_EQ(smtClasses, 0u);
  EXPECT_GT(smtFallback, 0u);
}

/// Engine-level: odd tile heights, Q-banded shard rectangles and the
/// interpreted oracle all give the same accumulator, value and witness.
TEST(ColumnReplay, TileHeightsAndShardBandsAreInvisible) {
  const auto prog = isa::ast::compileBranchy(isa::workloads::bubbleSort(8));
  const auto inputs =
      isa::workloads::randomArrayInputs(prog, "a", 8, 7, 21, 24);
  exp::PlatformOptions opts;
  opts.numStates = 17;
  for (const char* preset : {"inorder-lru", "inorder-fifo",
                             "inorder-lru-icache", "inorder-random",
                             "smt-rr", "smt-rtprio"}) {
    const auto model =
        exp::PlatformRegistry::instance().make(preset, prog, opts);
    const std::size_t nQ = model->numStates();
    exp::EngineConfig oracleCfg{1};
    oracleCfg.usePackedReplay = false;
    oracleCfg.collapseTraceClasses = false;
    exp::ExperimentEngine oracle(oracleCfg);
    const auto want = oracle.reduceCells(*model, prog, inputs);
    const auto wantMatrix = oracle.computeMatrix(*model, prog, inputs);
    for (const std::size_t tileStates : {std::size_t{2}, std::size_t{3},
                                         std::size_t{5}, std::size_t{64}}) {
      exp::ExperimentEngine engine(exp::EngineConfig{2, tileStates, 3});
      EXPECT_TRUE(engine.reduceCells(*model, prog, inputs).identicalTo(want))
          << preset << " tileStates=" << tileStates;
      EXPECT_TRUE(engine.computeMatrix(*model, prog, inputs) == wantMatrix)
          << preset << " tileStates=" << tileStates;
      // Q-banded shards of width 2, 3 and 5, merged.
      for (const std::size_t width : {std::size_t{2}, std::size_t{3},
                                      std::size_t{5}}) {
        std::vector<core::StreamingMeasures> shards;
        for (const auto& [a, b] : bands(nQ, width)) {
          shards.push_back(
              engine.reduceCellsRange(*model, prog, inputs, a, b, 0,
                                      inputs.size()));
        }
        EXPECT_TRUE(exp::ExperimentEngine::mergeShards(std::move(shards))
                        .identicalTo(want))
            << preset << " tileStates=" << tileStates << " band=" << width;
      }
    }
  }
}

// ---------------------------------------------------------------- SMT

/// RT traces for the SMT differential: bubblesort (ALU/memory/branches)
/// and a DIV-heavy kernel whose data-dependent latencies matter once
/// constantDiv is off.
std::vector<isa::Trace> smtTraces() {
  auto out = bubbleTraces(3, 44);
  const auto div = isa::ast::compileBranchy(isa::workloads::divKernel(6));
  for (const auto& in : isa::workloads::randomArrayInputs(div, "a", 6, 3, 9,
                                                          1 << 20)) {
    out.push_back(isa::FunctionalCore::run(div, in).trace);
  }
  out.emplace_back();  // an empty RT trace
  return out;
}

TEST(SmtKernel, MatchesSteppedPipelineBeyondRegistryDefaults) {
  const auto traces = smtTraces();
  const auto prog = isa::ast::compileBranchy(isa::workloads::bubbleSort(8));
  std::vector<pipeline::SmtConfig> configs;
  for (const bool constantDiv : {true, false}) {
    pipeline::SmtConfig c;
    c.constantDiv = constantDiv;
    configs.push_back(c);
    c.memLatency = 5;
    configs.push_back(c);
    c.aluLatency = 0;
    configs.push_back(c);
  }
  for (const char* preset : {"smt-rr", "smt-rtprio"}) {
    for (std::size_t k = 0; k < configs.size(); ++k) {
      for (int numStates = 1; numStates <= 8; ++numStates) {
        exp::PlatformOptions opts;
        opts.numStates = numStates;
        opts.smt = configs[k];
        const auto model =
            exp::PlatformRegistry::instance().make(preset, prog, opts);
        ASSERT_EQ(model->numStates(), static_cast<std::size_t>(numStates));
        expectColumnsMatch(*model, traces,
                           std::string(preset) + "/config" +
                               std::to_string(k) + "/Q" +
                               std::to_string(numStates));
      }
    }
  }
}

TEST(SmtKernel, EmptyRtTraceCompletesAtCycleZero) {
  const auto prog = isa::ast::compileBranchy(isa::workloads::bubbleSort(8));
  exp::PlatformOptions opts;
  opts.numStates = 8;
  const auto model = exp::PlatformRegistry::instance().make("smt-rr", prog,
                                                            opts);
  const auto rp = exp::compileTrace(isa::Trace{});
  for (std::size_t q = 0; q < model->numStates(); ++q) {
    EXPECT_EQ(model->timePacked(q, rp), 0u) << q;
    EXPECT_EQ(model->time(q, isa::Trace{}), 0u) << q;
  }
}

TEST(SmtKernel, RejectsMoreThreadsThanItsFixedArrays) {
  const std::vector<exp::Cycles> lat = {1, 2};
  const std::vector<const std::vector<exp::Cycles>*> coRunners(
      pipeline::kMaxSmtThreads, &lat);
  const auto rt = [](std::size_t) { return exp::Cycles{1}; };
  EXPECT_THROW(pipeline::smtRtCompletion(pipeline::SmtPolicy::RoundRobin, 3,
                                         rt, coRunners.data(),
                                         coRunners.size()),
               std::invalid_argument);
  // Three co-runners fit, and agree with the stepped pipeline.
  isa::Trace rtTrace(3), bg(2);
  for (auto& rec : rtTrace) rec.instr.op = isa::Op::ADD;
  bg[0].instr.op = isa::Op::ADD;
  bg[1].instr.op = isa::Op::MUL;
  pipeline::SmtConfig cfg;
  cfg.policy = pipeline::SmtPolicy::RoundRobin;
  cfg.aluLatency = 1;
  cfg.mulLatency = 2;
  const auto want =
      pipeline::SmtPipeline(cfg).run({&rtTrace, &bg, &bg, &bg})[0];
  EXPECT_EQ(pipeline::smtRtCompletion(cfg.policy, 3, rt, coRunners.data(),
                                      pipeline::kMaxSmtThreads - 1),
            want);
}

}  // namespace
}  // namespace pred
