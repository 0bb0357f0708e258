#include "exp/trace_store.h"

#include <charconv>
#include <functional>
#include <stdexcept>
#include <utility>

namespace pred::exp {

namespace {

/// Odd multiplier of the word mixer (the first fmix64 constant).
constexpr std::uint64_t kMixMul = 0xff51afd7ed558ccdULL;
constexpr std::uint64_t kMixSeed = 0x9e3779b97f4a7c15ULL;

/// One mixing step: xor a whole word in, multiply, fold the high half down
/// so the next multiply carries it into the low bits.  For a fixed word the
/// step is a bijection of the state, and for a fixed state a bijection of
/// the word — so inputs that differ in exactly one word never collide.
void mixWord(std::uint64_t& h, std::uint64_t w) {
  h = (h ^ w) * kMixMul;
  h ^= h >> 32;
}

/// Two 32-bit fields side by side in one word.
std::uint64_t pack32(std::int32_t lo, std::uint32_t hi) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(lo)) |
         (static_cast<std::uint64_t>(hi) << 32);
}

/// A decoded instruction in one word: op, rd, rs1, rs2 in the low four
/// bytes, imm in the high half — no field overlaps another.
std::uint64_t packInstr(const isa::Instr& ins) {
  static_assert(sizeof(isa::Op) == 1 && sizeof(ins.rd) == 1 &&
                    sizeof(ins.rs1) == 1 && sizeof(ins.rs2) == 1 &&
                    sizeof(ins.imm) == 4,
                "packInstr assumes byte-wide op/registers and a 32-bit imm");
  return static_cast<std::uint64_t>(static_cast<std::uint8_t>(ins.op)) |
         (static_cast<std::uint64_t>(ins.rd) << 8) |
         (static_cast<std::uint64_t>(ins.rs1) << 16) |
         (static_cast<std::uint64_t>(ins.rs2) << 24) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(ins.imm))
          << 32);
}

/// Appends the decimal spelling of `v` (the same text std::to_string
/// gives) without a temporary string.
template <typename Int>
void appendInt(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Canonical key of one (program, input) pair, built in one buffer: every
/// warm lookup pays for it.
std::string keyOf(const isa::Program& program, const isa::Input& input) {
  std::string key;
  key.reserve(24 + 44 * (input.regs.size() + input.mem.size()));
  appendInt(key, programFingerprint(program));
  key += '|';
  for (const auto& [reg, value] : input.regs) {
    key += 'r';
    appendInt(key, reg);
    key += '=';
    appendInt(key, value);
    key += ';';
  }
  for (const auto& [addr, value] : input.mem) {
    key += 'm';
    appendInt(key, addr);
    key += '=';
    appendInt(key, value);
    key += ';';
  }
  return key;
}

bool sameInstr(const isa::Instr& a, const isa::Instr& b) {
  return a.op == b.op && a.rd == b.rd && a.rs1 == b.rs1 && a.rs2 == b.rs2 &&
         a.imm == b.imm;
}

}  // namespace

std::uint64_t programFingerprint(const isa::Program& program) {
  std::uint64_t h = kMixSeed;
  mixWord(h, static_cast<std::uint64_t>(program.code.size()));
  for (const auto& ins : program.code) mixWord(h, packInstr(ins));
  // The whole layout, not just memWords: the bases steer the DataRegion
  // classification (split caches) and memWords steers address wrapping, so
  // any layout difference can change timing or even the trace itself.
  mixWord(h, static_cast<std::uint64_t>(program.layout.staticBase));
  mixWord(h, static_cast<std::uint64_t>(program.layout.stackBase));
  mixWord(h, static_cast<std::uint64_t>(program.layout.heapBase));
  mixWord(h, static_cast<std::uint64_t>(program.layout.memWords));
  return h;
}

std::uint64_t traceFingerprint(const isa::Trace& trace) {
  std::uint64_t h = kMixSeed;
  mixWord(h, static_cast<std::uint64_t>(trace.size()));
  for (const auto& rec : trace) {
    mixWord(h, pack32(rec.pc, static_cast<std::uint32_t>(rec.nextPc)));
    mixWord(h, packInstr(rec.instr));
    mixWord(h, pack32(rec.extraLatency, rec.branchTaken ? 1u : 0u));
    mixWord(h, static_cast<std::uint64_t>(rec.memWordAddr));
  }
  return h;
}

bool tracesIdentical(const isa::Trace& a, const isa::Trace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const auto& ra = a[k];
    const auto& rb = b[k];
    if (ra.pc != rb.pc || !sameInstr(ra.instr, rb.instr) ||
        ra.branchTaken != rb.branchTaken || ra.nextPc != rb.nextPc ||
        ra.memWordAddr != rb.memWordAddr ||
        ra.extraLatency != rb.extraLatency) {
      return false;
    }
  }
  return true;
}

TraceStore::Bucket& TraceStore::bucketFor(const std::string& key) {
  return buckets_[std::hash<std::string>{}(key) & (kNumBuckets - 1)];
}

TraceStore::TraceClass& TraceStore::internClass(isa::Trace&& trace) {
  const std::uint64_t fp = traceFingerprint(trace);
  std::lock_guard<std::mutex> lock(classMu_);
  auto& sameFp = classesByFingerprint_[fp];
  for (TraceClass* cls : sameFp) {
    if (tracesIdentical(cls->trace, trace)) return *cls;
  }
  auto fresh = std::make_unique<TraceClass>();
  fresh->trace = std::move(trace);
  fresh->id = static_cast<std::uint32_t>(classes_.size());
  sameFp.push_back(fresh.get());
  classes_.push_back(std::move(fresh));
  return *classes_.back();
}

TraceStore::TraceClass& TraceStore::classOf(const isa::Program& program,
                                            const isa::Input& input) {
  const std::string key = keyOf(program, input);
  Bucket& bucket = bucketFor(key);
  {
    std::lock_guard<std::mutex> lock(bucket.mu);
    const auto it = bucket.entries.find(key);
    if (it != bucket.entries.end()) {
      hits_.add();
      return *it->second;
    }
  }
  // Run and intern outside the bucket lock: functional execution dominates,
  // and concurrent misses on the same key are harmless (their traces are
  // equal, so both intern to the same class and either insert is right).
  auto run = isa::FunctionalCore::run(program, input);
  if (!run.completed) {
    throw std::runtime_error("program did not halt for input " + input.name);
  }
  TraceClass& cls = internClass(std::move(run.trace));
  std::lock_guard<std::mutex> lock(bucket.mu);
  const auto [it, inserted] = bucket.entries.try_emplace(key, &cls);
  // A lost race counts as a hit: the store already had the trace.
  (inserted ? misses_ : hits_).add();
  return *it->second;
}

const ReplayProgram& TraceStore::compiledOf(TraceClass& cls) {
  std::call_once(cls.compileOnce, [&] {
    cls.compiled = compileTrace(cls.trace);
    compiles_.add();
  });
  return cls.compiled;
}

const isa::Trace& TraceStore::traceFor(const isa::Program& program,
                                       const isa::Input& input) {
  return classOf(program, input).trace;
}

TraceStore::EntryRef TraceStore::entryRefFor(const isa::Program& program,
                                             const isa::Input& input,
                                             bool compile) {
  TraceClass& cls = classOf(program, input);
  return EntryRef{&cls.trace, compile ? &compiledOf(cls) : nullptr, cls.id};
}

std::size_t TraceStore::size() const {
  std::size_t n = 0;
  for (const auto& bucket : buckets_) {
    std::lock_guard<std::mutex> lock(bucket.mu);
    n += bucket.entries.size();
  }
  return n;
}

std::size_t TraceStore::classCount() const {
  std::lock_guard<std::mutex> lock(classMu_);
  return classes_.size();
}

void TraceStore::clear() {
  // Entries first: they point into the classes.
  for (auto& bucket : buckets_) {
    std::lock_guard<std::mutex> lock(bucket.mu);
    bucket.entries.clear();
  }
  {
    std::lock_guard<std::mutex> lock(classMu_);
    classesByFingerprint_.clear();
    classes_.clear();
  }
  hits_.reset();
  misses_.reset();
  compiles_.reset();
}

}  // namespace pred::exp
