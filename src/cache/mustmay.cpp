#include "cache/mustmay.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "isa/exec.h"

namespace pred::cache {

AddressOracle syntacticOracle(const isa::Program& program) {
  // Copy what we need; the oracle may outlive the caller's Program reference.
  std::vector<std::int32_t> unknown = program.unknownAddressAccesses;
  std::vector<isa::Instr> code = program.code;
  std::map<std::int64_t, std::int64_t> extents = program.arrayExtents;
  const isa::MemoryLayout layout = program.layout;
  return [unknown, code, extents, layout](std::int32_t pc) -> AddrInfo {
    const auto& ins = code[static_cast<std::size_t>(pc)];
    if (!isa::isMemAccess(ins.op)) return AddrInfo{AddrKind::None, 0, 0};
    if (std::find(unknown.begin(), unknown.end(), pc) != unknown.end()) {
      return AddrInfo{AddrKind::UnknownHeap, layout.heapBase,
                      layout.memWords - 1};
    }
    if (ins.rs1 == 0) {
      return AddrInfo{AddrKind::Exact, ins.imm, ins.imm};
    }
    // Indexed access: the immediate is the array base in the code our
    // generators emit; a declared extent narrows the range.
    if (auto it = extents.find(ins.imm); it != extents.end()) {
      return AddrInfo{AddrKind::Range, it->first, it->first + it->second - 1};
    }
    // Base register unknown: conservatively anywhere in static+stack.
    return AddrInfo{AddrKind::Range, layout.staticBase, layout.heapBase - 1};
  };
}

std::string toString(AccessClass c) {
  switch (c) {
    case AccessClass::AlwaysHit: return "always-hit";
    case AccessClass::AlwaysMiss: return "always-miss";
    case AccessClass::Unclassified: return "unclassified";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// AbstractCache
// ---------------------------------------------------------------------------

AbstractCache::AbstractCache(CacheGeometry g) : geom_(g) {
  sets_.resize(static_cast<std::size_t>(g.numSets));
  // Unknown initial cache state: nothing guaranteed (must empty), anything
  // possible (may tainted).
  for (auto& s : sets_) s.mayTainted = true;
}

void AbstractCache::ageMustAll(SetState& s) {
  for (auto it = s.mustAge.begin(); it != s.mustAge.end();) {
    if (++it->second >= geom_.ways) {
      it = s.mustAge.erase(it);
    } else {
      ++it;
    }
  }
}

void AbstractCache::missTransfer(SetState& s, std::int64_t tag,
                                 bool guaranteedMiss) {
  if (guaranteedMiss) {
    for (auto it = s.mayAge.begin(); it != s.mayAge.end();) {
      if (++it->second >= geom_.ways) {
        it = s.mayAge.erase(it);
      } else {
        ++it;
      }
    }
  }
  s.mayAge[tag] = 0;
}

void AbstractCache::accessExact(std::int64_t wordAddr) {
  auto& s = sets_[static_cast<std::size_t>(geom_.setOf(wordAddr))];
  const std::int64_t tag = geom_.tagOf(wordAddr);

  // ---- must ----
  {
    int h = geom_.ways;  // "miss" position
    if (auto it = s.mustAge.find(tag); it != s.mustAge.end()) h = it->second;
    for (auto it = s.mustAge.begin(); it != s.mustAge.end();) {
      if (it->first != tag && it->second < h) {
        if (++it->second >= geom_.ways) {
          it = s.mustAge.erase(it);
          continue;
        }
      }
      ++it;
    }
    s.mustAge[tag] = 0;
  }

  // ---- may ----
  const bool guaranteedMiss = !s.mayTainted && !s.mayAge.count(tag);
  missTransfer(s, tag, guaranteedMiss);
}

void AbstractCache::accessRange(std::int64_t lo, std::int64_t hi) {
  if (hi < lo) std::swap(lo, hi);
  const std::int64_t lines = geom_.lineOf(hi) - geom_.lineOf(lo) + 1;
  std::vector<char> touched(static_cast<std::size_t>(geom_.numSets), 0);
  if (lines >= geom_.numSets) {
    std::fill(touched.begin(), touched.end(), 1);
  } else {
    for (std::int64_t l = geom_.lineOf(lo); l <= geom_.lineOf(hi); ++l) {
      touched[static_cast<std::size_t>(geom_.setOfLine(l))] = 1;
    }
  }
  for (std::int64_t k = 0; k < geom_.numSets; ++k) {
    if (!touched[static_cast<std::size_t>(k)]) continue;
    auto& s = sets_[static_cast<std::size_t>(k)];
    ageMustAll(s);        // the access may evict anything here
    s.mayTainted = true;  // and may insert an untracked line
  }
}

void AbstractCache::accessUnknown() {
  for (auto& s : sets_) {
    ageMustAll(s);
    s.mayTainted = true;
  }
}

bool AbstractCache::mustContain(std::int64_t wordAddr) const {
  const auto& s = sets_[static_cast<std::size_t>(geom_.setOf(wordAddr))];
  return s.mustAge.count(geom_.tagOf(wordAddr)) > 0;
}

bool AbstractCache::mayContain(std::int64_t wordAddr) const {
  const auto& s = sets_[static_cast<std::size_t>(geom_.setOf(wordAddr))];
  return s.mayTainted || s.mayAge.count(geom_.tagOf(wordAddr)) > 0;
}

AccessClass AbstractCache::classify(std::int64_t wordAddr) const {
  if (mustContain(wordAddr)) return AccessClass::AlwaysHit;
  if (!mayContain(wordAddr)) return AccessClass::AlwaysMiss;
  return AccessClass::Unclassified;
}

void AbstractCache::joinWith(const AbstractCache& other) {
  for (std::size_t k = 0; k < sets_.size(); ++k) {
    auto& a = sets_[k];
    const auto& b = other.sets_[k];
    // must: intersection, max age.
    for (auto it = a.mustAge.begin(); it != a.mustAge.end();) {
      auto bi = b.mustAge.find(it->first);
      if (bi == b.mustAge.end()) {
        it = a.mustAge.erase(it);
      } else {
        it->second = std::max(it->second, bi->second);
        ++it;
      }
    }
    // may: union, min age.
    for (const auto& [tag, age] : b.mayAge) {
      auto ai = a.mayAge.find(tag);
      if (ai == a.mayAge.end()) {
        a.mayAge[tag] = age;
      } else {
        ai->second = std::min(ai->second, age);
      }
    }
    a.mayTainted = a.mayTainted || b.mayTainted;
  }
}

bool AbstractCache::operator==(const AbstractCache& other) const {
  return sets_ == other.sets_;
}

// ---------------------------------------------------------------------------
// Fixpoint engine (generic over the abstract state).
// ---------------------------------------------------------------------------

namespace {

/// Runs a forward fixpoint over the CFG and then classifies each memory
/// access with the stabilized block-entry states.
///
/// State must provide joinWith(State) and operator==.
/// transfer(state, pc) applies one instruction; classify(state, pc) is
/// queried for LD/ST before the transfer.
template <typename State, typename Transfer, typename Classify>
ClassificationResult runFixpoint(const isa::Cfg& cfg, const State& entryState,
                                 Transfer&& transfer, Classify&& classify) {
  const auto nb = static_cast<std::size_t>(cfg.numBlocks());
  std::vector<std::optional<State>> in(nb);

  // Roots: program entry plus every function entry (reached by CALL, whose
  // edges the intraprocedural CFG omits) start from the unknown state.
  in[static_cast<std::size_t>(cfg.entry())] = entryState;
  for (const auto& f : cfg.program().functions) {
    in[static_cast<std::size_t>(cfg.blockOf(f.entry))] = entryState;
  }

  bool changed = true;
  int iterations = 0;
  while (changed) {
    changed = false;
    if (++iterations > 10000) {
      throw std::runtime_error("cache fixpoint did not stabilize");
    }
    for (const auto bid : cfg.rpo()) {
      const auto& bb = cfg.block(bid);
      if (!in[static_cast<std::size_t>(bid)]) continue;
      State out = *in[static_cast<std::size_t>(bid)];
      for (std::int32_t pc = bb.begin; pc < bb.end; ++pc) transfer(out, pc);
      for (const auto succ : bb.succs) {
        auto& target = in[static_cast<std::size_t>(succ)];
        if (!target) {
          target = out;
          changed = true;
        } else {
          State joined = *target;
          joined.joinWith(out);
          if (!(joined == *target)) {
            target = std::move(joined);
            changed = true;
          }
        }
      }
    }
  }

  ClassificationResult result;
  for (const auto& bb : cfg.blocks()) {
    if (!in[static_cast<std::size_t>(bb.id)]) continue;
    State cur = *in[static_cast<std::size_t>(bb.id)];
    for (std::int32_t pc = bb.begin; pc < bb.end; ++pc) {
      if (isa::isMemAccess(cfg.program().code[static_cast<std::size_t>(pc)].op)) {
        result.classOf[pc] = classify(cur, pc);
      }
      transfer(cur, pc);
    }
  }
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// Unified-cache data analysis.
// ---------------------------------------------------------------------------

ClassificationResult classifyDataAccesses(const isa::Cfg& cfg,
                                          const CacheGeometry& geom,
                                          const AddressOracle& oracle) {
  AbstractCache entry(geom);
  auto transfer = [&](AbstractCache& st, std::int32_t pc) {
    const auto& ins = cfg.program().code[static_cast<std::size_t>(pc)];
    if (ins.op == isa::Op::CALL) {
      st.accessUnknown();  // callee data effects, conservatively
      return;
    }
    const AddrInfo a = oracle(pc);
    switch (a.kind) {
      case AddrKind::None:
        break;
      case AddrKind::Exact:
        st.accessExact(a.lo);
        break;
      case AddrKind::Range:
        st.accessRange(a.lo, a.hi);
        break;
      case AddrKind::UnknownHeap:
        st.accessRange(a.lo, a.hi);  // heap region range
        break;
      case AddrKind::UnknownAny:
        st.accessUnknown();
        break;
    }
  };
  auto classify = [&](const AbstractCache& st, std::int32_t pc) {
    const AddrInfo a = oracle(pc);
    if (a.kind == AddrKind::Exact) return st.classify(a.lo);
    return AccessClass::Unclassified;
  };
  return runFixpoint(cfg, entry, transfer, classify);
}

// ---------------------------------------------------------------------------
// Split-cache data analysis.
// ---------------------------------------------------------------------------

namespace {

/// Must/may state of the three split caches.
struct SplitAbstract {
  AbstractCache staticC;
  AbstractCache stackC;
  AbstractCache heapC;
  const isa::MemoryLayout* layout;

  AbstractCache& route(std::int64_t addr) {
    switch (layout->regionOf(addr)) {
      case isa::DataRegion::Static: return staticC;
      case isa::DataRegion::Stack: return stackC;
      case isa::DataRegion::Heap: return heapC;
    }
    return staticC;
  }
  const AbstractCache& route(std::int64_t addr) const {
    return const_cast<SplitAbstract*>(this)->route(addr);
  }

  void joinWith(const SplitAbstract& o) {
    staticC.joinWith(o.staticC);
    stackC.joinWith(o.stackC);
    heapC.joinWith(o.heapC);
  }
  bool operator==(const SplitAbstract& o) const {
    return staticC == o.staticC && stackC == o.stackC && heapC == o.heapC;
  }
};

}  // namespace

ClassificationResult classifyDataAccessesSplit(const isa::Cfg& cfg,
                                               const SplitCacheConfig& config,
                                               const isa::MemoryLayout& layout,
                                               const AddressOracle& oracle) {
  SplitAbstract entry{AbstractCache(config.staticGeom),
                      AbstractCache(config.stackGeom),
                      AbstractCache(config.heapGeom), &layout};

  auto rangePerRegion = [&](SplitAbstract& st, std::int64_t lo,
                            std::int64_t hi) {
    // Intersect [lo, hi] with each region and forward the pieces.
    const std::int64_t regions[3][2] = {
        {0, layout.stackBase - 1},
        {layout.stackBase, layout.heapBase - 1},
        {layout.heapBase, layout.memWords - 1}};
    AbstractCache* caches[3] = {&st.staticC, &st.stackC, &st.heapC};
    for (int r = 0; r < 3; ++r) {
      const std::int64_t l = std::max(lo, regions[r][0]);
      const std::int64_t h = std::min(hi, regions[r][1]);
      if (l <= h) caches[r]->accessRange(l, h);
    }
  };

  auto transfer = [&](SplitAbstract& st, std::int32_t pc) {
    const auto& ins = cfg.program().code[static_cast<std::size_t>(pc)];
    if (ins.op == isa::Op::CALL) {
      st.staticC.accessUnknown();
      st.stackC.accessUnknown();
      st.heapC.accessUnknown();
      return;
    }
    const AddrInfo a = oracle(pc);
    switch (a.kind) {
      case AddrKind::None:
        break;
      case AddrKind::Exact:
        st.route(a.lo).accessExact(a.lo);
        break;
      case AddrKind::Range:
      case AddrKind::UnknownHeap:
        rangePerRegion(st, a.lo, a.hi);
        break;
      case AddrKind::UnknownAny:
        st.staticC.accessUnknown();
        st.stackC.accessUnknown();
        st.heapC.accessUnknown();
        break;
    }
  };
  auto classify = [&](const SplitAbstract& st, std::int32_t pc) {
    const AddrInfo a = oracle(pc);
    if (a.kind == AddrKind::Exact) return st.route(a.lo).classify(a.lo);
    return AccessClass::Unclassified;
  };
  return runFixpoint(cfg, entry, transfer, classify);
}

// ---------------------------------------------------------------------------
// Instruction-fetch analysis.
// ---------------------------------------------------------------------------

ClassificationResult classifyInstrFetches(const isa::Cfg& cfg,
                                          const CacheGeometry& geom) {
  AbstractCache entry(geom);
  auto transfer = [&](AbstractCache& st, std::int32_t pc) {
    const auto& ins = cfg.program().code[static_cast<std::size_t>(pc)];
    if (ins.op == isa::Op::CALL) {
      // The callee body's fetches are outside the intraprocedural edges.
      st.accessUnknown();
      return;
    }
    st.accessExact(pc);  // instruction index as I-space word address
  };
  auto classify = [&](const AbstractCache& st, std::int32_t pc) {
    return st.classify(pc);
  };

  // classifyInstrFetches must report *every* pc, not only LD/ST; reuse the
  // engine but collect classes for all instructions via a second pass.
  const auto nb = static_cast<std::size_t>(cfg.numBlocks());
  std::vector<std::optional<AbstractCache>> in(nb);
  in[static_cast<std::size_t>(cfg.entry())] = entry;
  for (const auto& f : cfg.program().functions) {
    in[static_cast<std::size_t>(cfg.blockOf(f.entry))] = entry;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto bid : cfg.rpo()) {
      const auto& bb = cfg.block(bid);
      if (!in[static_cast<std::size_t>(bid)]) continue;
      AbstractCache out = *in[static_cast<std::size_t>(bid)];
      for (std::int32_t pc = bb.begin; pc < bb.end; ++pc) transfer(out, pc);
      for (const auto succ : bb.succs) {
        auto& target = in[static_cast<std::size_t>(succ)];
        if (!target) {
          target = out;
          changed = true;
        } else {
          AbstractCache joined = *target;
          joined.joinWith(out);
          if (!(joined == *target)) {
            target = std::move(joined);
            changed = true;
          }
        }
      }
    }
  }
  ClassificationResult result;
  for (const auto& bb : cfg.blocks()) {
    if (!in[static_cast<std::size_t>(bb.id)]) continue;
    AbstractCache cur = *in[static_cast<std::size_t>(bb.id)];
    for (std::int32_t pc = bb.begin; pc < bb.end; ++pc) {
      result.classOf[pc] = classify(cur, pc);
      transfer(cur, pc);
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// ClassificationResult helpers.
// ---------------------------------------------------------------------------

std::size_t ClassificationResult::count(AccessClass c) const {
  std::size_t n = 0;
  for (const auto& [pc, cls] : classOf) {
    if (cls == c) ++n;
  }
  return n;
}

double ClassificationResult::classifiedFraction() const {
  if (classOf.empty()) return 1.0;
  const auto classified =
      count(AccessClass::AlwaysHit) + count(AccessClass::AlwaysMiss);
  return static_cast<double>(classified) /
         static_cast<double>(classOf.size());
}

double ClassificationResult::dynamicClassifiedFraction(
    const isa::Trace& trace) const {
  std::uint64_t total = 0, classified = 0;
  for (const auto& rec : trace) {
    auto it = classOf.find(rec.pc);
    if (it == classOf.end()) continue;
    ++total;
    if (it->second != AccessClass::Unclassified) ++classified;
  }
  return total == 0 ? 1.0
                    : static_cast<double>(classified) /
                          static_cast<double>(total);
}

}  // namespace pred::cache
