#include "exp/platform.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "branch/dynamic.h"
#include "isa/ast.h"
#include "isa/cfg.h"
#include "isa/workloads.h"
#include "pipeline/memory_iface.h"
#include "pipeline/ooo_kernel.h"
#include "pipeline/vtrace.h"

namespace pred::exp {

std::string TimingModel::stateLabel(std::size_t q) const {
  return "q" + std::to_string(q);
}

Cycles TimingModel::timePacked(std::size_t, const ReplayProgram&) const {
  throw std::logic_error("model '" + name() +
                         "' does not support packed replay");
}

ColumnStats TimingModel::timePackedStates(const ReplayProgram& rp,
                                          std::size_t qBegin,
                                          std::size_t qEnd,
                                          Cycles* out) const {
  for (std::size_t q = qBegin; q < qEnd; ++q) {
    out[q - qBegin] = timePacked(q, rp);
  }
  ColumnStats stats;
  stats.fallbackColumns = 1;
  return stats;
}

namespace {

/// The conditional-branch penalties of one in-order replay under a clone
/// of `prototype`.
Cycles predictorCycles(const branch::Predictor& prototype,
                       const ReplayProgram& rp,
                       const pipeline::InOrderConfig& config) {
  const auto predictor = prototype.clone();
  Cycles total = 0;
  for (std::size_t k = 0; k < rp.condBranchPc.size(); ++k) {
    const std::int32_t pc = rp.condBranchPc[k];
    const bool taken = rp.condBranchTaken[k] != 0;
    if (predictor->predictTaken(pc) != taken) {
      total += config.mispredictPenalty;
    } else if (taken) {
      total += config.takenPenalty;
    }
    predictor->update(pc, taken);
  }
  return total;
}

/// True when two snapshots share geometry, policy and timing, so one
/// PackedCacheSim configuration serves both.
bool sameShape(const cache::PackedCacheState& a,
               const cache::PackedCacheState& b) {
  return a.geometry.lineWords == b.geometry.lineWords &&
         a.geometry.numSets == b.geometry.numSets &&
         a.geometry.ways == b.geometry.ways && a.policy == b.policy &&
         a.timing.hitLatency == b.timing.hitLatency &&
         a.timing.missLatency == b.timing.missLatency;
}

/// One step of the row hash (splitmix64 over the running value).
std::uint64_t mixWord(std::uint64_t h, std::uint64_t x) {
  std::uint64_t z = h ^ (x + 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

InOrderSnapshotModel::InOrderSnapshotModel(std::string name,
                                           pipeline::InOrderConfig config,
                                           std::vector<State> states)
    : name_(std::move(name)), config_(config), states_(std::move(states)) {
  packedOk_ = !states_.empty();
  for (const State& s : states_) {
    if (!cache::packable(s.cache.geometry()) ||
        (s.icache && !cache::packable(s.icache->geometry()))) {
      packedOk_ = false;
      break;
    }
  }
  if (!packedOk_) return;
  packed_.reserve(states_.size());
  for (const State& s : states_) {
    PackedState p;
    p.data = s.cache.pack();
    if (s.icache) {
      p.icache = s.icache->pack();
      p.hasICache = true;
    }
    packed_.push_back(std::move(p));
  }

  // The per-set decomposition needs one cache shape across Q and a policy
  // that keeps its state per set (RANDOM's xorshift spans all sets).
  const PackedState& first = packed_.front();
  perSetOk_ = first.data.policy != cache::Policy::RANDOM &&
              (!first.hasICache ||
               first.icache.policy != cache::Policy::RANDOM);
  for (const PackedState& p : packed_) {
    if (!perSetOk_) break;
    perSetOk_ = p.hasICache == first.hasICache &&
                sameShape(p.data, first.data) &&
                (!p.hasICache || sameShape(p.icache, first.icache));
  }
  if (!perSetOk_) return;
  dataClasses_ = classifySets(&PackedState::data);
  if (first.hasICache) icacheClasses_ = classifySets(&PackedState::icache);
}

InOrderSnapshotModel::SetClasses InOrderSnapshotModel::classifySets(
    CacheOf which) const {
  const std::size_t nQ = packed_.size();
  const auto pick = [&](std::size_t q) -> const cache::PackedCacheState& {
    return packed_[q].*which;
  };
  const auto sets = static_cast<std::size_t>(pick(0).geometry.numSets);
  const auto ways = static_cast<std::size_t>(pick(0).geometry.ways);
  const auto rowHash = [&](const cache::PackedCacheState& st,
                           std::size_t s) {
    const std::uint64_t valid = st.valid[s];
    std::uint64_t h = mixWord(mixWord(0, valid), st.meta[s]);
    for (std::size_t w = 0; w < ways; ++w) {
      if ((valid >> w) & 1) {
        h = mixWord(h, static_cast<std::uint64_t>(st.tags[s * ways + w]));
      }
    }
    return h;
  };
  const auto sameRow = [&](const cache::PackedCacheState& a,
                           const cache::PackedCacheState& b, std::size_t s) {
    const std::uint64_t valid = a.valid[s];
    if (valid != b.valid[s] || a.meta[s] != b.meta[s]) return false;
    for (std::size_t w = 0; w < ways; ++w) {
      if (((valid >> w) & 1) && a.tags[s * ways + w] != b.tags[s * ways + w]) {
        return false;
      }
    }
    return true;
  };

  // Open-addressed (row hash -> class) table, cleared per set.  A hash
  // match is confirmed by comparing the rows, so a collision costs a probe
  // and never merges two different set states.
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t cls = 0;
    bool used = false;
  };
  std::size_t cap = 4;
  while (cap < 2 * nQ) cap *= 2;
  std::vector<Slot> table(cap);

  SetClasses out;
  out.classOf.resize(sets * nQ);
  out.repBegin.reserve(sets + 1);
  for (std::size_t s = 0; s < sets; ++s) {
    const std::size_t base = out.repOf.size();
    out.repBegin.push_back(base);
    std::fill(table.begin(), table.end(), Slot{});
    for (std::size_t q = 0; q < nQ; ++q) {
      const cache::PackedCacheState& st = pick(q);
      const std::uint64_t h = rowHash(st, s);
      std::size_t i = static_cast<std::size_t>(h) & (cap - 1);
      while (table[i].used &&
             !(table[i].hash == h &&
               sameRow(st, pick(out.repOf[base + table[i].cls]), s))) {
        i = (i + 1) & (cap - 1);
      }
      if (!table[i].used) {
        table[i] = Slot{h, static_cast<std::uint32_t>(out.repOf.size() - base),
                        true};
        out.repOf.push_back(static_cast<std::uint32_t>(q));
      }
      out.classOf[s * nQ + q] = table[i].cls;
    }
  }
  out.repBegin.push_back(out.repOf.size());
  return out;
}

template <typename Addr>
std::uint64_t InOrderSnapshotModel::addSetColumns(
    const SetClasses& classes, CacheOf which,
    const std::vector<Addr>& stream, std::size_t qBegin, std::size_t qEnd,
    Cycles* out) const {
  if (stream.empty()) return 0;
  const std::size_t nQ = packed_.size();
  const auto pick = [&](std::size_t q) -> const cache::PackedCacheState& {
    return packed_[q].*which;
  };
  // The sim supplies the exact line/set mapping of access() (locate) and
  // replays one set at a time (loadSet + accessLine).
  thread_local cache::PackedCacheSim sim;
  sim.load(pick(qBegin));
  const auto sets = static_cast<std::size_t>(pick(qBegin).geometry.numSets);

  // Bucket the stream by set (counting sort, stream order kept per set).
  thread_local std::vector<cache::PackedCacheSim::Slot> slots;
  thread_local std::vector<std::size_t> begin;
  thread_local std::vector<std::size_t> cursor;
  thread_local std::vector<std::int64_t> lines;
  slots.resize(stream.size());
  begin.assign(sets + 1, 0);
  for (std::size_t k = 0; k < stream.size(); ++k) {
    slots[k] = sim.locate(static_cast<std::int64_t>(stream[k]));
    ++begin[slots[k].set + 1];
  }
  for (std::size_t s = 0; s < sets; ++s) begin[s + 1] += begin[s];
  cursor.assign(begin.begin(), begin.end() - 1);
  lines.resize(stream.size());
  for (const auto& slot : slots) lines[cursor[slot.set]++] = slot.line;

  // f_s(c) per present class, memoized under a per-set epoch stamp.
  thread_local std::vector<Cycles> memo;
  thread_local std::vector<std::uint64_t> stamp;
  thread_local std::uint64_t epoch = 0;
  std::uint64_t replayed = 0;
  for (std::size_t s = 0; s < sets; ++s) {
    if (begin[s] == begin[s + 1]) continue;
    const std::uint32_t* classOf = &classes.classOf[s * nQ];
    const std::uint32_t* repOf = &classes.repOf[classes.repBegin[s]];
    const std::size_t numClasses =
        classes.repBegin[s + 1] - classes.repBegin[s];
    if (memo.size() < numClasses) {
      memo.resize(numClasses);
      stamp.resize(numClasses, 0);
    }
    ++epoch;
    for (std::size_t q = qBegin; q < qEnd; ++q) {
      const std::uint32_t c = classOf[q];
      if (stamp[c] != epoch) {
        sim.loadSet(pick(repOf[c]), s);
        Cycles f = 0;
        for (std::size_t j = begin[s]; j < begin[s + 1]; ++j) {
          f += sim.accessLine(s, lines[j]).latency;
        }
        memo[c] = f;
        stamp[c] = epoch;
        ++replayed;
      }
      out[q - qBegin] += memo[c];
    }
  }
  return replayed;
}

Cycles InOrderSnapshotModel::time(std::size_t q,
                                  const isa::Trace& trace) const {
  const State& s = states_[q];
  pipeline::CachedMemory mem(s.cache);  // fresh copy of the snapshot
  std::unique_ptr<branch::Predictor> predictor =
      s.predictor ? s.predictor->clone() : nullptr;
  std::unique_ptr<pipeline::CachedMemory> imem;
  if (s.icache) imem = std::make_unique<pipeline::CachedMemory>(*s.icache);
  pipeline::InOrderPipeline pipe(config_, &mem, predictor.get(), imem.get());
  return pipe.run(trace);
}

Cycles InOrderSnapshotModel::timePacked(std::size_t q,
                                        const ReplayProgram& rp) const {
  const State& s = states_[q];
  const PackedState& p = packed_[q];
  const bool withPredictor = s.predictor != nullptr;
  Cycles total = replayBaseCycles(rp, config_, withPredictor);

  // The D-cache, I-cache, and predictor are independent state machines and
  // every contribution is additive, so the interleaved legacy walk and
  // these three flat streams produce the same total, cycle for cycle.
  thread_local cache::PackedCacheSim dataSim;
  dataSim.load(p.data);
  for (const std::int64_t addr : rp.dataAddr) {
    total += dataSim.access(addr).latency;
  }

  if (p.hasICache) {
    thread_local cache::PackedCacheSim instrSim;
    instrSim.load(p.icache);
    for (const std::int32_t pc : rp.fetchPc) {
      total += instrSim.access(pc).latency;
    }
  }

  if (withPredictor) total += predictorCycles(*s.predictor, rp, config_);
  return total;
}

ColumnStats InOrderSnapshotModel::timePackedStates(const ReplayProgram& rp,
                                                   std::size_t qBegin,
                                                   std::size_t qEnd,
                                                   Cycles* out) const {
  if (!perSetOk_ || qBegin == qEnd) {
    return TimingModel::timePackedStates(rp, qBegin, qEnd, out);
  }
  // Every contribution is additive (see timePacked), so the per-state
  // base and predictor walk go in first and the per-set cache terms are
  // summed on top.
  const Cycles base = replayBaseCycles(rp, config_, false);
  for (std::size_t q = qBegin; q < qEnd; ++q) {
    const State& s = states_[q];
    out[q - qBegin] =
        s.predictor ? replayBaseCycles(rp, config_, true) +
                          predictorCycles(*s.predictor, rp, config_)
                    : base;
  }
  ColumnStats stats;
  stats.stateClasses = addSetColumns(dataClasses_, &PackedState::data,
                                     rp.dataAddr, qBegin, qEnd, out);
  if (packed_.front().hasICache) {
    stats.stateClasses += addSetColumns(icacheClasses_, &PackedState::icache,
                                        rp.fetchPc, qBegin, qEnd, out);
  }
  return stats;
}

namespace {

std::int64_t dataWarmSpace(const isa::Program& program,
                           const cache::CacheGeometry& geom,
                           std::int64_t requested) {
  if (requested > 0) return requested;
  return std::min(program.layout.memWords, 8 * geom.capacityWords());
}

std::int64_t instrWarmSpace(const isa::Program& program,
                            const cache::CacheGeometry& geom) {
  return std::max<std::int64_t>(static_cast<std::int64_t>(program.size()),
                                2 * geom.capacityWords());
}

// ---------------------------------------------------------------- in-order

std::unique_ptr<TimingModel> makeInOrderCached(const std::string& name,
                                               cache::Policy policy,
                                               bool withICache,
                                               bool withBimodal,
                                               const isa::Program& program,
                                               const PlatformOptions& opts) {
  auto caches = cache::enumerateInitialStates(
      opts.dataGeom, policy, opts.dataTiming, opts.numStates, opts.seed,
      dataWarmSpace(program, opts.dataGeom, opts.warmAddrSpace));
  std::vector<cache::SetAssocCache> icaches;
  if (withICache) {
    icaches = cache::enumerateInitialStates(
        opts.instrGeom, policy, opts.instrTiming, opts.numStates,
        opts.seed * 31 + 7, instrWarmSpace(program, opts.instrGeom));
  }
  std::vector<InOrderSnapshotModel::State> states;
  states.reserve(caches.size());
  for (std::size_t k = 0; k < caches.size(); ++k) {
    InOrderSnapshotModel::State s{std::move(caches[k]), std::nullopt,
                                  nullptr, "cache#" + std::to_string(k)};
    if (withICache) {
      s.icache = std::move(icaches[k]);
      s.label += "+ic";
    }
    if (withBimodal) {
      // Enumerate the predictor-table part of q: initial counter k mod 4.
      s.predictor = std::make_shared<branch::BimodalPredictor>(
          64, static_cast<int>(k % 4));
      s.label += "+bim" + std::to_string(k % 4);
    }
    states.push_back(std::move(s));
  }
  return std::make_unique<InOrderSnapshotModel>(name, opts.inorder,
                                                std::move(states));
}

/// In-order pipeline over a scratchpad: constant memory latency, no
/// enumerable hardware state (|Q| = 1) — the state-predictable reference.
class ScratchpadModel : public TimingModel {
 public:
  ScratchpadModel(pipeline::InOrderConfig config, Cycles latency)
      : config_(config), latency_(latency) {}

  std::string name() const override { return "inorder-scratchpad"; }
  std::size_t numStates() const override { return 1; }
  std::string stateLabel(std::size_t) const override { return "scratchpad"; }

  Cycles time(std::size_t, const isa::Trace& trace) const override {
    pipeline::FixedLatencyMemory mem(latency_);
    pipeline::InOrderPipeline pipe(config_, &mem);
    return pipe.run(trace);
  }

 private:
  pipeline::InOrderConfig config_;
  Cycles latency_;
};

// ------------------------------------------------------------ out-of-order

/// Out-of-order pipeline; q pairs a cache snapshot with an initial
/// unit-occupancy residue (the domino-effect state of Section 2.2).  The
/// occupancy is already a few flat words, so the packed form of a state is
/// just PackedCacheState next to it: timePacked loads the snapshot into a
/// reusable PackedCacheSim and runs the SAME dispatch loop (ooo_kernel.h)
/// the interpreted walk runs, over the pre-lowered op stream.
class OooModel : public TimingModel {
 public:
  struct State {
    cache::SetAssocCache cache;
    pipeline::OooInitialState occupancy;
    std::string label;
  };

  OooModel(std::string name, pipeline::OooConfig config,
           std::vector<State> states)
      : name_(std::move(name)),
        config_(config),
        states_(std::move(states)) {
    packedOk_ = !states_.empty();
    for (const State& s : states_) {
      if (!cache::packable(s.cache.geometry())) {
        packedOk_ = false;
        break;
      }
    }
    if (!packedOk_) return;
    packed_.reserve(states_.size());
    for (const State& s : states_) packed_.push_back(s.cache.pack());
  }

  std::string name() const override { return name_; }
  std::size_t numStates() const override { return states_.size(); }
  std::string stateLabel(std::size_t q) const override {
    return states_[q].label;
  }

  Cycles time(std::size_t q, const isa::Trace& trace) const override {
    const State& s = states_[q];
    pipeline::CachedMemory mem(s.cache);
    pipeline::OooPipeline pipe(config_, &mem);
    return pipe.run(trace, s.occupancy);
  }

  bool supportsPackedReplay() const override { return packedOk_; }

  Cycles timePacked(std::size_t q, const ReplayProgram& rp) const override {
    thread_local cache::PackedCacheSim sim;
    sim.load(packed_[q]);
    // SkipStallCycles is sound here: PackedCacheSim retries are idempotent
    // (see ooo_kernel.h).
    return pipeline::runOooKernel</*SkipStallCycles=*/true>(
        config_, rp.oooOps(),
        [](std::int64_t wordAddr) { return sim.access(wordAddr).latency; },
        states_[q].occupancy, nullptr);
  }

 private:
  std::string name_;
  pipeline::OooConfig config_;
  std::vector<State> states_;
  std::vector<cache::PackedCacheState> packed_;  ///< parallel when packedOk_
  bool packedOk_ = false;
};

/// Out-of-order pipeline over a fixed-latency scratchpad; Q = the
/// enumerated unit-occupancy residues alone.  Optionally drains at
/// basic-block leaders (the preschedule execution mode of Table 1, row 2),
/// which removes the occupancy's influence entirely.
class OooFixedLatModel : public TimingModel {
 public:
  OooFixedLatModel(std::string name, pipeline::OooConfig config,
                   Cycles memLatency, std::vector<pipeline::OooInitialState>
                       states,
                   std::set<std::int32_t> drainBefore)
      : name_(std::move(name)),
        config_(config),
        memLatency_(memLatency),
        states_(std::move(states)),
        drainBefore_(std::move(drainBefore)) {}

  std::string name() const override { return name_; }
  std::size_t numStates() const override { return states_.size(); }
  std::string stateLabel(std::size_t q) const override {
    const auto& s = states_[q];
    return "occ" + std::to_string(s.iu0Busy) + std::to_string(s.iu1Busy) +
           std::to_string(s.lsuBusy);
  }

  Cycles time(std::size_t q, const isa::Trace& trace) const override {
    pipeline::FixedLatencyMemory mem(memLatency_);
    pipeline::OooPipeline pipe(config_, &mem);
    return pipe.run(trace, states_[q],
                    drainBefore_.empty() ? nullptr : &drainBefore_);
  }

  /// No cache to snapshot at all: the packed replay is the shared kernel
  /// over the flat op stream with a constant memory latency — covering the
  /// drainBefore_ preschedule mode too, which is kernel-internal.
  bool supportsPackedReplay() const override { return !states_.empty(); }

  Cycles timePacked(std::size_t q, const ReplayProgram& rp) const override {
    return pipeline::runOooKernel</*SkipStallCycles=*/true>(
        config_, rp.oooOps(),
        [lat = memLatency_](std::int64_t) { return lat; }, states_[q],
        drainBefore_.empty() ? nullptr : &drainBefore_);
  }

 private:
  std::string name_;
  pipeline::OooConfig config_;
  Cycles memLatency_;
  std::vector<pipeline::OooInitialState> states_;
  std::set<std::int32_t> drainBefore_;
};

std::unique_ptr<TimingModel> makeOooFixedLat(const std::string& name,
                                             bool preschedule,
                                             const isa::Program& program,
                                             const PlatformOptions& opts) {
  // Deterministic occupancy residues: the same (iu0, iu1, lsu) sweep the
  // pre-engine preschedule bench enumerated by hand.
  std::vector<pipeline::OooInitialState> states;
  for (Cycles a = 0; a <= 4; ++a) {
    for (Cycles b = 0; b <= 4; b += 2) {
      states.push_back(pipeline::OooInitialState{a, b, 0});
    }
  }
  const auto wanted =
      static_cast<std::size_t>(std::max(opts.numStates, 1));
  if (states.size() > wanted) states.resize(wanted);
  std::set<std::int32_t> drain;
  if (preschedule) {
    isa::Cfg cfg(program);
    for (const auto& bb : cfg.blocks()) drain.insert(bb.begin);
  }
  return std::make_unique<OooFixedLatModel>(name, opts.ooo,
                                            opts.scratchpadLatency,
                                            std::move(states),
                                            std::move(drain));
}

/// Virtual-trace discipline: the per-boundary pipeline reset makes the
/// execution time a pure function of the path — |Q| = 1 by construction.
class VirtualTraceModel : public TimingModel {
 public:
  VirtualTraceModel(pipeline::VirtualTraceConfig config,
                    std::set<std::int32_t> boundaries)
      : pipe_(config, std::move(boundaries)) {}

  std::string name() const override { return "vtrace"; }
  std::size_t numStates() const override { return 1; }
  std::string stateLabel(std::size_t) const override { return "reset"; }

  Cycles time(std::size_t, const isa::Trace& trace) const override {
    return pipe_.run(trace);
  }

 private:
  pipeline::VirtualTracePipeline pipe_;
};

std::unique_ptr<TimingModel> makeOoo(const std::string& name,
                                     cache::Policy policy,
                                     const isa::Program& program,
                                     const PlatformOptions& opts) {
  auto caches = cache::enumerateInitialStates(
      opts.dataGeom, policy, opts.dataTiming, opts.numStates, opts.seed,
      dataWarmSpace(program, opts.dataGeom, opts.warmAddrSpace));
  std::vector<OooModel::State> states;
  states.reserve(caches.size());
  for (std::size_t k = 0; k < caches.size(); ++k) {
    // Deterministic occupancy residue per index: cycles until IU0/IU1/LSU
    // free, the enumerable leftover of previously executing code.
    pipeline::OooInitialState occ{k % 4, (k / 2) % 3, (k / 3) % 2};
    states.push_back(OooModel::State{
        std::move(caches[k]), occ,
        "cache#" + std::to_string(k) + "+occ" + std::to_string(occ.iu0Busy) +
            std::to_string(occ.iu1Busy) + std::to_string(occ.lsuBusy)});
  }
  return std::make_unique<OooModel>(name, opts.ooo, std::move(states));
}

// ------------------------------------------------------------------- PRET

/// PRET thread-interleaved pipeline; q = the hardware-thread slot the
/// program runs in.  Per the PRET guarantee the slot is the ONLY state the
/// timing can depend on.
class PretModel : public TimingModel {
 public:
  PretModel(pipeline::PretConfig config, std::size_t numSlots)
      : config_(config), numSlots_(numSlots) {}

  std::string name() const override { return "pret"; }
  std::size_t numStates() const override { return numSlots_; }
  std::string stateLabel(std::size_t q) const override {
    return "slot" + std::to_string(q);
  }

  Cycles time(std::size_t q, const isa::Trace& trace) const override {
    return pipeline::PretPipeline(config_).threadTime(trace,
                                                      static_cast<int>(q));
  }

 private:
  pipeline::PretConfig config_;
  std::size_t numSlots_;
};

// -------------------------------------------------------------------- SMT

/// SMT pipeline; q = the execution context, i.e. which co-runner traces
/// occupy the non-real-time threads.  The program under measurement is
/// always thread 0.
class SmtModel : public TimingModel {
 public:
  SmtModel(std::string name, pipeline::SmtConfig config, int numContexts)
      : name_(std::move(name)), config_(config), latencies_(config) {
    // Fixed co-runner pool; contexts are the prefixes and singletons of it,
    // deterministic and independent of the measured program.
    const std::pair<const char*, isa::ast::AstProgram> pool[] = {
        {"matMul", isa::workloads::matMul(4)},
        {"bubbleSort", isa::workloads::bubbleSort(8)},
        {"divKernel", isa::workloads::divKernel(12)},
    };
    const pipeline::SmtLatencies latencies(config_);
    for (const auto& [bgName, ast] : pool) {
      auto run = isa::FunctionalCore::run(isa::ast::compileBranchy(ast),
                                          isa::Input{});
      // The co-runners are fixed, so the packed kernel reads their
      // latencies lowered once here.
      std::vector<Cycles> lowered;
      lowered.reserve(run.trace.size());
      for (const auto& rec : run.trace) {
        lowered.push_back(latencies.of(isa::latencyClass(rec.instr.op),
                                       rec.extraLatency));
      }
      bgLatencies_.push_back(std::move(lowered));
      bgTraces_.push_back(std::move(run.trace));
      bgNames_.emplace_back(bgName);
    }
    const std::vector<std::vector<std::size_t>> contextPool = {
        {}, {0}, {0, 1}, {0, 1, 2}, {1}, {2}, {1, 2}, {0, 2}};
    const std::size_t n = std::min<std::size_t>(
        contextPool.size(),
        static_cast<std::size_t>(std::max(numContexts, 1)));
    contexts_.assign(contextPool.begin(), contextPool.begin() + n);
  }

  std::string name() const override { return name_; }
  std::size_t numStates() const override { return contexts_.size(); }
  std::string stateLabel(std::size_t q) const override {
    std::string label = "RT";
    for (std::size_t b : contexts_[q]) label += "+" + bgNames_[b];
    return label;
  }

  Cycles time(std::size_t q, const isa::Trace& trace) const override {
    std::vector<const isa::Trace*> threads = {&trace};
    for (std::size_t b : contexts_[q]) threads.push_back(&bgTraces_[b]);
    return pipeline::SmtPipeline(config_).run(threads)[0];
  }

  /// The event-driven kernel over the RT thread's pre-decoded ops and the
  /// co-runners' pre-lowered latencies; SmtPipeline::run is its oracle.
  bool supportsPackedReplay() const override { return true; }

  Cycles timePacked(std::size_t q, const ReplayProgram& rp) const override {
    const auto& context = contexts_[q];
    std::array<const std::vector<Cycles>*, pipeline::kMaxSmtThreads - 1>
        coRunners{};
    for (std::size_t k = 0; k < context.size(); ++k) {
      coRunners[k] = &bgLatencies_[context[k]];
    }
    const ReplayOp* ops = rp.ops.data();
    return pipeline::smtRtCompletion(
        config_.policy, rp.ops.size(),
        [&](std::size_t k) {
          return latencies_.of(static_cast<isa::LatencyClass>(ops[k].cls),
                               ops[k].extraLatency);
        },
        coRunners.data(), context.size());
  }

 private:
  std::string name_;
  pipeline::SmtConfig config_;
  pipeline::SmtLatencies latencies_;
  std::vector<std::vector<Cycles>> bgLatencies_;  ///< parallel to bgTraces_
  std::vector<isa::Trace> bgTraces_;
  std::vector<std::string> bgNames_;
  std::vector<std::vector<std::size_t>> contexts_;
};

}  // namespace

// ---------------------------------------------------------------- registry

PlatformRegistry::PlatformRegistry() {
  auto addInOrder = [this](const std::string& name, cache::Policy policy,
                           bool icache, bool bimodal,
                           const std::string& description) {
    add(Platform{name, description,
                 [name, policy, icache, bimodal](
                     const isa::Program& p, const PlatformOptions& o) {
                   return makeInOrderCached(name, policy, icache, bimodal, p,
                                            o);
                 }});
  };
  addInOrder("inorder-lru", cache::Policy::LRU, false, false,
             "in-order pipeline, LRU data cache");
  addInOrder("inorder-fifo", cache::Policy::FIFO, false, false,
             "in-order pipeline, FIFO data cache");
  addInOrder("inorder-plru", cache::Policy::PLRU, false, false,
             "in-order pipeline, PLRU data cache");
  addInOrder("inorder-random", cache::Policy::RANDOM, false, false,
             "in-order pipeline, random-replacement data cache");
  addInOrder("inorder-lru-icache", cache::Policy::LRU, true, false,
             "in-order pipeline, split LRU D-cache + I-cache (Figure 1)");
  addInOrder("inorder-lru-bimodal", cache::Policy::LRU, false, true,
             "in-order pipeline, LRU data cache + bimodal predictor");
  add(Platform{"inorder-scratchpad",
               "in-order pipeline over a fixed-latency scratchpad (|Q| = 1)",
               [](const isa::Program&, const PlatformOptions& o) {
                 return std::make_unique<ScratchpadModel>(
                     o.inorder, o.scratchpadLatency);
               }});
  add(Platform{"ooo-lru",
               "out-of-order pipeline, LRU data cache x unit occupancies",
               [](const isa::Program& p, const PlatformOptions& o) {
                 return makeOoo("ooo-lru", cache::Policy::LRU, p, o);
               }});
  add(Platform{"ooo-fifo",
               "out-of-order pipeline, FIFO data cache x unit occupancies",
               [](const isa::Program& p, const PlatformOptions& o) {
                 return makeOoo("ooo-fifo", cache::Policy::FIFO, p, o);
               }});
  add(Platform{"ooo-fixedlat",
               "out-of-order pipeline, fixed-latency memory; Q = unit "
               "occupancies",
               [](const isa::Program& p, const PlatformOptions& o) {
                 return makeOooFixedLat("ooo-fixedlat", false, p, o);
               }});
  add(Platform{"ooo-preschedule",
               "out-of-order pipeline draining at basic-block boundaries "
               "(Rochange & Sainrat); Q = unit occupancies",
               [](const isa::Program& p, const PlatformOptions& o) {
                 return makeOooFixedLat("ooo-preschedule", true, p, o);
               }});
  add(Platform{"vtrace",
               "virtual-trace discipline (Whitham & Audsley): constant-"
               "duration ops, scratchpad, reset at trace boundaries; |Q| = 1",
               [](const isa::Program& p, const PlatformOptions& o) {
                 pipeline::VirtualTraceConfig cfg;
                 cfg.memLatency = o.scratchpadLatency;
                 isa::Cfg cfgGraph(p);
                 return std::make_unique<VirtualTraceModel>(
                     cfg, pipeline::computeTraceBoundaries(
                              cfgGraph, cfg.maxTraceLen));
               }});
  add(Platform{"pret",
               "PRET thread-interleaved pipeline; Q = thread slots",
               [](const isa::Program&, const PlatformOptions& o) {
                 const auto slots = static_cast<std::size_t>(std::clamp(
                     o.numStates, 1, o.pret.numThreads));
                 return std::make_unique<PretModel>(o.pret, slots);
               }});
  auto addSmt = [this](const std::string& name, pipeline::SmtPolicy policy,
                       const std::string& description) {
    add(Platform{name, description,
                 [name, policy](const isa::Program&,
                                const PlatformOptions& o) {
                   pipeline::SmtConfig cfg = o.smt;
                   cfg.policy = policy;
                   return std::make_unique<SmtModel>(name, cfg,
                                                     o.numStates);
                 }});
  };
  addSmt("smt-rr", pipeline::SmtPolicy::RoundRobin,
         "SMT, fair round-robin issue; Q = co-runner contexts");
  addSmt("smt-rtprio", pipeline::SmtPolicy::RtPriority,
         "SMT, RT-priority issue; Q = co-runner contexts");
}

PlatformRegistry& PlatformRegistry::instance() {
  static PlatformRegistry registry;
  return registry;
}

void PlatformRegistry::add(Platform platform) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto name = platform.name;
  if (!platforms_.emplace(name, std::move(platform)).second) {
    throw std::invalid_argument("duplicate platform: " + name);
  }
}

const Platform* PlatformRegistry::find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Map nodes are stable and never erased, so the pointer outlives the lock.
  const auto it = platforms_.find(name);
  return it == platforms_.end() ? nullptr : &it->second;
}

std::unique_ptr<TimingModel> PlatformRegistry::make(
    const std::string& name, const isa::Program& program,
    const PlatformOptions& options) const {
  const Platform* p = find(name);
  if (p == nullptr) throw std::invalid_argument("unknown platform: " + name);
  return p->make(program, options);
}

std::vector<std::string> PlatformRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(platforms_.size());
  for (const auto& [name, p] : platforms_) out.push_back(name);
  return out;  // map iteration order is already sorted
}

}  // namespace pred::exp
