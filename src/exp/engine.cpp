#include "exp/engine.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "exp/worker_pool.h"
#include "obs/span.h"

namespace pred::exp {

namespace {

/// Groups the inputs of [iBegin, iEnd) by trace-equivalence class id.
/// Groups are ordered by first appearance and hold GLOBAL input indices in
/// ascending order — exactly what StreamingMeasures::addEqual needs for
/// witness-identical fan-out.
std::vector<std::vector<std::size_t>> groupByClass(
    const std::vector<std::uint32_t>& classIds, std::size_t iBegin,
    std::size_t iEnd) {
  std::vector<std::vector<std::size_t>> groups;
  std::unordered_map<std::uint32_t, std::size_t> slotOf;
  for (std::size_t i = iBegin; i < iEnd; ++i) {
    const auto [it, fresh] = slotOf.try_emplace(classIds[i], groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  return groups;
}

/// Class ids for externally supplied traces (the trace-pointer entry
/// points, which bypass the store): pointer-equal traces short-circuit,
/// distinct pointers group by content fingerprint CONFIRMED by exact
/// record-for-record comparison — same collision discipline as the store.
std::vector<std::uint32_t> localClassIds(
    const std::vector<const isa::Trace*>& traces) {
  std::vector<std::uint32_t> ids(traces.size(), 0);
  std::unordered_map<const isa::Trace*, std::uint32_t> byPtr;
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint32_t, const isa::Trace*>>>
      byFp;
  std::uint32_t next = 0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const isa::Trace* t = traces[i];
    if (const auto pit = byPtr.find(t); pit != byPtr.end()) {
      ids[i] = pit->second;
      continue;
    }
    auto& classes = byFp[traceFingerprint(*t)];
    std::uint32_t id = next;
    bool found = false;
    for (const auto& [cid, rep] : classes) {
      if (tracesIdentical(*rep, *t)) {
        id = cid;
        found = true;
        break;
      }
    }
    if (!found) {
      ++next;
      classes.emplace_back(id, t);
    }
    byPtr.emplace(t, id);
    ids[i] = id;
  }
  return ids;
}

}  // namespace

ExperimentEngine::ExperimentEngine(EngineConfig config) : config_(config) {
  if (config_.tileStates == 0) config_.tileStates = 1;
  if (config_.tileInputs == 0) config_.tileInputs = 1;
  // Resolve every hot-path metric once; the registry hands out stable
  // addresses, so the walks below never touch its lock again.
  cMatrixBuilds_ = &metrics_.counter("engine.matrix_builds");
  cGridWalks_ = &metrics_.counter("engine.grid_walks");
  cTiles_ = &metrics_.counter("engine.tiles");
  cCells_ = &metrics_.counter("engine.cells");
  cTraceClasses_ = &metrics_.counter("engine.trace_classes");
  cCellsCollapsed_ = &metrics_.counter("engine.cells_collapsed");
  cStateClasses_ = &metrics_.counter("engine.state_classes");
  cStateFallback_ = &metrics_.counter("engine.state_fallback");
  pResolve_ = &metrics_.phase("resolve");
  pReplayPacked_ = &metrics_.phase("replay.packed");
  pReplayInterp_ = &metrics_.phase("replay.interpreted");
  pReplayBatched_ = &metrics_.phase("replay.batched");
  pMerge_ = &metrics_.phase("reduce.merge");
  util_ = obs::WorkerUtil(std::max(resolvedThreads(), 1));
}

obs::RunReport ExperimentEngine::report() const {
  obs::RunReport r = obs::snapshotReport(metrics_, util_);
  // The trace store keeps its own counters (it predates the registry and
  // has store-local reset semantics); export them under the same namespace
  // scheme so one report covers the whole engine.
  r.counters["trace_store.hits"] = store_.hits();
  r.counters["trace_store.misses"] = store_.misses();
  r.counters["trace_store.entries"] =
      static_cast<std::uint64_t>(store_.size());
  r.counters["trace_store.classes"] =
      static_cast<std::uint64_t>(store_.classCount());
  r.counters["trace_store.compiles"] = store_.compiles();
  return r;
}

int ExperimentEngine::resolvedThreads() const {
  if (config_.threads > 0) return config_.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

bool ExperimentEngine::packedPath(const TimingModel& model) const {
  return config_.usePackedReplay && model.supportsPackedReplay();
}

std::vector<ReplayProgram> ExperimentEngine::compileLocal(
    const std::vector<const isa::Trace*>& traces) const {
  std::vector<ReplayProgram> compiled(traces.size());
  obs::Span span(pResolve_);
  WorkerPool::shared().run(
      traces.size(), resolvedThreads(),
      [&](std::size_t i, int) { compiled[i] = compileTrace(*traces[i]); },
      &util_);
  return compiled;
}

void ExperimentEngine::runGrid(const std::vector<Walk>& walks,
                               obs::PhaseAccum* phase,
                               const ColumnSink& sink) const {
  // Prefix offsets flatten every walk's tiles into one work list; the
  // owning walk of tile k is recovered by binary search.
  std::vector<std::size_t> tileOffset(walks.size() + 1, 0);
  std::vector<std::size_t> tilesI(walks.size(), 0);
  const auto tileUp = [&](std::size_t width) {
    for (std::size_t w = 0; w < walks.size(); ++w) {
      const Walk& walk = walks[w];
      const std::size_t tilesQ =
          (walk.qEnd - walk.qBegin + config_.tileStates - 1) /
          config_.tileStates;
      tilesI[w] = (walk.columns.size() + width - 1) / width;
      tileOffset[w + 1] = tileOffset[w] + tilesQ * tilesI[w];
    }
  };
  // Tiles span many states, so a narrow grid can have fewer tiles than
  // workers: narrow the tiles along the input axis (never the state axis,
  // where the model shares work) until every worker has one, or a tile is
  // one column wide.
  std::size_t width = config_.tileInputs;
  tileUp(width);
  const auto workers = static_cast<std::size_t>(resolvedThreads());
  while (width > 1 && tileOffset.back() < workers) {
    width = (width + 1) / 2;
    tileUp(width);
  }
  if (tileOffset.back() == 0) return;
  cGridWalks_->add();
  obs::Span span(phase);
  WorkerPool::shared().run(
      tileOffset.back(), resolvedThreads(),
      [&](std::size_t tile, int worker) {
        const auto w = static_cast<std::size_t>(
            std::upper_bound(tileOffset.begin(), tileOffset.end(), tile) -
            tileOffset.begin() - 1);
        const Walk& walk = walks[w];
        const std::size_t local = tile - tileOffset[w];
        const std::size_t q0 =
            walk.qBegin + (local / tilesI[w]) * config_.tileStates;
        const std::size_t c0 = (local % tilesI[w]) * width;
        const std::size_t q1 = std::min(walk.qEnd, q0 + config_.tileStates);
        const std::size_t c1 = std::min(walk.columns.size(), c0 + width);
        const bool packed = walk.compiled != nullptr && !walk.compiled->empty();
        thread_local std::vector<Cycles> times;
        times.resize(q1 - q0);
        ColumnStats stats;
        for (std::size_t c = c0; c < c1; ++c) {
          const std::size_t i = walk.columns[c];
          if (packed) {
            stats += walk.model->timePackedStates(*(*walk.compiled)[i], q0,
                                                  q1, times.data());
          } else {
            for (std::size_t q = q0; q < q1; ++q) {
              times[q - q0] = walk.model->time(q, *(*walk.traces)[i]);
            }
          }
          sink(w, c, q0, times.data(), q1 - q0, worker);
        }
        // One relaxed add per counter per tile keeps the columns untouched.
        cTiles_->add();
        cCells_->add((q1 - q0) * (c1 - c0));
        cStateClasses_->add(stats.stateClasses);
        cStateFallback_->add(stats.fallbackColumns);
      },
      &util_);
}

core::TimingMatrix ExperimentEngine::matrixImpl(
    const TimingModel& model, const std::vector<const isa::Trace*>& traces,
    const std::vector<const ReplayProgram*>& compiled) const {
  cMatrixBuilds_->add();
  core::TimingMatrix m(model.numStates(), traces.size());
  std::vector<Walk> walks(1);
  walks[0] = Walk{&model, &traces, &compiled, 0, m.numStates(), {}};
  walks[0].columns.resize(m.numInputs());
  std::iota(walks[0].columns.begin(), walks[0].columns.end(), 0);
  runGrid(walks, compiled.empty() ? pReplayInterp_ : pReplayPacked_,
          [&](std::size_t, std::size_t i, std::size_t q0, const Cycles* t,
              std::size_t n, int) {
            for (std::size_t k = 0; k < n; ++k) m.at(q0 + k, i) = t[k];
          });
  return m;
}

core::StreamingMeasures ExperimentEngine::reduceImpl(
    const TimingModel& model, const std::vector<const isa::Trace*>& traces,
    const std::vector<const ReplayProgram*>& compiled,
    const std::vector<std::uint32_t>* classIds, std::size_t qBegin,
    std::size_t qEnd, std::size_t iBegin, std::size_t iEnd) const {
  const std::size_t nQ = model.numStates();
  const std::size_t nI = traces.size();
  // One accumulator per worker slot, merged in slot order afterwards; the
  // smallest-index tie-break makes the merged result independent of which
  // worker saw which tile.  Accumulators carry the FULL shape even when
  // walking a shard's sub-rectangle, so shard merges reproduce the
  // single-process witnesses.
  const int workers = std::max(resolvedThreads(), 1);
  std::vector<core::StreamingMeasures> accs(
      static_cast<std::size_t>(workers), core::StreamingMeasures(nQ, nI));
  std::vector<Walk> walks(1);
  walks[0] = Walk{&model, &traces, &compiled, qBegin, qEnd, {}};
  std::vector<std::vector<std::size_t>> groups;
  if (classIds != nullptr) {
    // Collapsed walk: one column per trace-equivalence class in the input
    // range.  The representative (smallest member) is timed; addEqual fans
    // the result out to every member with the same value/witness outcome the
    // per-member walk would have produced.  Equal traces replay to equal
    // times on every deterministic model — also for shard ranges that pick
    // a different in-range representative of the same global class.
    groups = groupByClass(*classIds, iBegin, iEnd);
    cTraceClasses_->add(groups.size());
    cCellsCollapsed_->add((qEnd - qBegin) *
                          ((iEnd - iBegin) - groups.size()));
    for (const auto& members : groups) {
      walks[0].columns.push_back(members.front());
    }
  } else {
    walks[0].columns.resize(iEnd - iBegin);
    std::iota(walks[0].columns.begin(), walks[0].columns.end(), iBegin);
  }
  runGrid(walks, compiled.empty() ? pReplayInterp_ : pReplayPacked_,
          [&](std::size_t, std::size_t c, std::size_t q0, const Cycles* t,
              std::size_t n, int worker) {
            auto& acc = accs[static_cast<std::size_t>(worker)];
            for (std::size_t k = 0; k < n; ++k) {
              if (classIds != nullptr) {
                acc.addEqual(q0 + k, groups[c].data(), groups[c].size(), t[k]);
              } else {
                acc.add(q0 + k, walks[0].columns[c], t[k]);
              }
            }
          });
  obs::Span mergeSpan(pMerge_);
  core::StreamingMeasures total = std::move(accs.front());
  for (std::size_t w = 1; w < accs.size(); ++w) total.merge(accs[w]);
  return total;
}

core::TimingMatrix ExperimentEngine::computeMatrix(
    const TimingModel& model,
    const std::vector<const isa::Trace*>& traces) const {
  if (packedPath(model) && !traces.empty() && model.numStates() > 0) {
    const auto local = compileLocal(traces);
    std::vector<const ReplayProgram*> compiled(local.size());
    for (std::size_t i = 0; i < local.size(); ++i) compiled[i] = &local[i];
    return matrixImpl(model, traces, compiled);
  }
  return matrixImpl(model, traces, {});
}

core::TimingMatrix ExperimentEngine::computeMatrix(
    const TimingModel& model, const isa::Program& program,
    const std::vector<isa::Input>& inputs) {
  // Fill the store on the worker pool too: trace computation is the other
  // substantial cost, and the store's buckets are independently locked.
  std::vector<const isa::Trace*> traces;
  std::vector<const ReplayProgram*> compiled;
  resolveTraces(program, inputs, 0, inputs.size(), packedPath(model), traces,
                compiled);
  return matrixImpl(model, traces, compiled);
}

core::StreamingMeasures ExperimentEngine::reduceCells(
    const TimingModel& model,
    const std::vector<const isa::Trace*>& traces) const {
  const std::size_t nQ = model.numStates();
  const std::size_t nI = traces.size();
  // Externally supplied traces never went through the store, so their class
  // ids are derived locally (pointer/content grouping).
  std::vector<std::uint32_t> classIds;
  const std::vector<std::uint32_t>* ids = nullptr;
  if (config_.collapseTraceClasses && nI > 0) {
    classIds = localClassIds(traces);
    ids = &classIds;
  }
  if (packedPath(model) && nI > 0 && nQ > 0) {
    const auto local = compileLocal(traces);
    std::vector<const ReplayProgram*> compiled(local.size());
    for (std::size_t i = 0; i < local.size(); ++i) compiled[i] = &local[i];
    return reduceImpl(model, traces, compiled, ids, 0, nQ, 0, nI);
  }
  return reduceImpl(model, traces, {}, ids, 0, nQ, 0, nI);
}

std::vector<core::StreamingMeasures> ExperimentEngine::reduceCellsBatch(
    const std::vector<GridSpec>& grids) {
  const std::size_t nGrids = grids.size();
  const bool collapse = config_.collapseTraceClasses;

  /// Per-grid evaluation context, resolved up front so the cell pass is a
  /// pure walk.
  struct Prepared {
    bool packed = false;
    std::vector<const isa::Trace*> traces;
    std::vector<const ReplayProgram*> compiled;
    std::vector<std::uint32_t> classIds;
    std::vector<std::vector<std::size_t>> groups;
  };
  std::vector<Prepared> prep(nGrids);
  // Prefix offsets flatten the per-grid inputs into one resolve work list;
  // the owning grid of item k is recovered by binary search.
  std::vector<std::size_t> inputOffset(nGrids + 1, 0);
  for (std::size_t g = 0; g < nGrids; ++g) {
    Prepared& p = prep[g];
    const std::size_t nI = grids[g].inputs->size();
    p.packed = packedPath(*grids[g].model);
    p.traces.assign(nI, nullptr);
    if (p.packed) p.compiled.assign(nI, nullptr);
    if (collapse) p.classIds.assign(nI, 0);
    inputOffset[g + 1] = inputOffset[g] + nI;
  }

  // Pass 1: resolve (and memoize) every grid's traces and compiled forms —
  // all (grid, input) pairs as one pool work list.
  {
    obs::Span span(pResolve_);
    WorkerPool::shared().run(
        inputOffset.back(), resolvedThreads(),
        [&](std::size_t k, int) {
          const auto g = static_cast<std::size_t>(
              std::upper_bound(inputOffset.begin(), inputOffset.end(), k) -
              inputOffset.begin() - 1);
          const std::size_t i = k - inputOffset[g];
          const auto& input = (*grids[g].inputs)[i];
          if (prep[g].packed) {
            const auto ref = store_.entryRefFor(*grids[g].program, input);
            prep[g].traces[i] = ref.trace;
            prep[g].compiled[i] = ref.compiled;
            if (collapse) prep[g].classIds[i] = ref.classId;
          } else if (collapse) {
            const auto ref = store_.traceRefFor(*grids[g].program, input);
            prep[g].traces[i] = ref.trace;
            prep[g].classIds[i] = ref.classId;
          } else {
            prep[g].traces[i] = &store_.traceFor(*grids[g].program, input);
          }
        },
        &util_);
  }

  // Pass 2: ONE tiled walk over the union of every grid's cells.  Workers
  // fold into per-(worker, grid) accumulators; the smallest-index tie-break
  // makes the merge below independent of which worker saw which tile, so
  // values and witnesses equal the grid-by-grid reduceCells results.
  std::vector<Walk> walks(nGrids);
  for (std::size_t g = 0; g < nGrids; ++g) {
    Prepared& p = prep[g];
    const std::size_t nQ = grids[g].model->numStates();
    const std::size_t nI = p.traces.size();
    walks[g] = Walk{grids[g].model, &p.traces, &p.compiled, 0, nQ, {}};
    if (collapse) {
      p.groups = groupByClass(p.classIds, 0, nI);
      for (const auto& members : p.groups) {
        walks[g].columns.push_back(members.front());
      }
      cTraceClasses_->add(p.groups.size());
      cCellsCollapsed_->add(nQ * (nI - p.groups.size()));
    } else {
      walks[g].columns.resize(nI);
      std::iota(walks[g].columns.begin(), walks[g].columns.end(), 0);
    }
  }
  const int workers = std::max(resolvedThreads(), 1);
  std::vector<std::vector<core::StreamingMeasures>> accs;
  accs.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    std::vector<core::StreamingMeasures> mine;
    mine.reserve(nGrids);
    for (std::size_t g = 0; g < nGrids; ++g) {
      mine.emplace_back(walks[g].qEnd, prep[g].traces.size());
    }
    accs.push_back(std::move(mine));
  }
  runGrid(walks, pReplayBatched_,
          [&](std::size_t g, std::size_t c, std::size_t q0, const Cycles* t,
              std::size_t n, int worker) {
            auto& acc = accs[static_cast<std::size_t>(worker)][g];
            for (std::size_t k = 0; k < n; ++k) {
              if (collapse) {
                // Column c is a trace class: its representative's time
                // fans out to every member input.
                const auto& members = prep[g].groups[c];
                acc.addEqual(q0 + k, members.data(), members.size(), t[k]);
              } else {
                acc.add(q0 + k, c, t[k]);
              }
            }
          });

  obs::Span mergeSpan(pMerge_);
  std::vector<core::StreamingMeasures> out;
  out.reserve(nGrids);
  for (std::size_t g = 0; g < nGrids; ++g) {
    core::StreamingMeasures total = std::move(accs[0][g]);
    for (int w = 1; w < workers; ++w) {
      total.merge(accs[static_cast<std::size_t>(w)][g]);
    }
    out.push_back(std::move(total));
  }
  return out;
}

void ExperimentEngine::resolveTraces(
    const isa::Program& program, const std::vector<isa::Input>& inputs,
    std::size_t iBegin, std::size_t iEnd, bool packed,
    std::vector<const isa::Trace*>& traces,
    std::vector<const ReplayProgram*>& compiled,
    std::vector<std::uint32_t>* classIds) {
  traces.assign(inputs.size(), nullptr);
  compiled.assign(packed ? inputs.size() : 0, nullptr);
  if (classIds != nullptr) classIds->assign(inputs.size(), 0);
  obs::Span span(pResolve_);
  WorkerPool::shared().run(
      iEnd - iBegin, resolvedThreads(),
      [&](std::size_t k, int) {
        const std::size_t i = iBegin + k;
        if (packed) {
          const auto ref = store_.entryRefFor(program, inputs[i]);
          traces[i] = ref.trace;
          compiled[i] = ref.compiled;
          if (classIds != nullptr) (*classIds)[i] = ref.classId;
        } else if (classIds != nullptr) {
          const auto ref = store_.traceRefFor(program, inputs[i]);
          traces[i] = ref.trace;
          (*classIds)[i] = ref.classId;
        } else {
          traces[i] = &store_.traceFor(program, inputs[i]);
        }
      },
      &util_);
}

core::StreamingMeasures ExperimentEngine::reduceCellsRange(
    const TimingModel& model, const isa::Program& program,
    const std::vector<isa::Input>& inputs, std::size_t qBegin,
    std::size_t qEnd, std::size_t iBegin, std::size_t iEnd) {
  const std::size_t nQ = model.numStates();
  const std::size_t nI = inputs.size();
  if (qBegin >= qEnd || qEnd > nQ) {
    throw std::invalid_argument(
        "reduceCellsRange: bad state range [" + std::to_string(qBegin) +
        ", " + std::to_string(qEnd) + ") for |Q| = " + std::to_string(nQ));
  }
  if (iBegin >= iEnd || iEnd > nI) {
    throw std::invalid_argument(
        "reduceCellsRange: bad input range [" + std::to_string(iBegin) +
        ", " + std::to_string(iEnd) + ") for |I| = " + std::to_string(nI));
  }
  // Traces resolve for the shard's input range only; the walk itself is
  // the same reduceImpl body the single-process reduceCells runs, offset
  // into the sub-rectangle.  Collapse groups within the range but keeps
  // GLOBAL input indices, so merged shard accumulators still carry the
  // single-process witnesses byte-for-byte.
  const bool packed = packedPath(model);
  const bool collapse = config_.collapseTraceClasses;
  std::vector<const isa::Trace*> traces;
  std::vector<const ReplayProgram*> compiled;
  std::vector<std::uint32_t> classIds;
  resolveTraces(program, inputs, iBegin, iEnd, packed, traces, compiled,
                collapse ? &classIds : nullptr);
  return reduceImpl(model, traces, compiled, collapse ? &classIds : nullptr,
                    qBegin, qEnd, iBegin, iEnd);
}

core::StreamingMeasures ExperimentEngine::mergeShards(
    std::vector<core::StreamingMeasures> shards) {
  if (shards.empty()) {
    throw std::invalid_argument("mergeShards: no shard accumulators given");
  }
  core::StreamingMeasures total = std::move(shards.front());
  for (std::size_t s = 1; s < shards.size(); ++s) total.merge(shards[s]);
  return total;
}

core::StreamingMeasures ExperimentEngine::reduceCells(
    const TimingModel& model, const isa::Program& program,
    const std::vector<isa::Input>& inputs) {
  const bool packed = packedPath(model);
  const bool collapse = config_.collapseTraceClasses;
  std::vector<const isa::Trace*> traces;
  std::vector<const ReplayProgram*> compiled;
  std::vector<std::uint32_t> classIds;
  resolveTraces(program, inputs, 0, inputs.size(), packed, traces, compiled,
                collapse ? &classIds : nullptr);
  return reduceImpl(model, traces, compiled, collapse ? &classIds : nullptr,
                    0, model.numStates(), 0, inputs.size());
}

}  // namespace pred::exp
