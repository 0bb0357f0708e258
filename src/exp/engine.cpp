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

obs::PhaseAccum* ExperimentEngine::replayPhase(
    const TimingModel& model) const {
  return packedPath(model) ? pReplayPacked_ : pReplayInterp_;
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
        const Resolved& in = *walk.resolved;
        const bool packed = !in.compiled.empty();
        thread_local std::vector<Cycles> times;
        times.resize(q1 - q0);
        ColumnStats stats;
        for (std::size_t c = c0; c < c1; ++c) {
          const std::size_t i = walk.columns[c];
          if (packed) {
            stats += walk.model->timePackedStates(*in.compiled[i], q0, q1,
                                                  times.data());
          } else {
            for (std::size_t q = q0; q < q1; ++q) {
              times[q - q0] = walk.model->time(q, *in.traces[i]);
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

std::vector<ExperimentEngine::Resolved> ExperimentEngine::resolve(
    const std::vector<Job>& jobs, bool classes) {
  // Prefix offsets flatten every job's input range into one work list; the
  // owning job of item k is recovered by binary search.
  std::vector<Resolved> out(jobs.size());
  std::vector<std::size_t> offset(jobs.size() + 1, 0);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::size_t nI = jobs[j].inputs->size();
    out[j].traces.assign(nI, nullptr);
    if (packedPath(*jobs[j].model)) out[j].compiled.assign(nI, nullptr);
    if (classes) out[j].classIds.assign(nI, 0);
    offset[j + 1] = offset[j] + (jobs[j].iEnd - jobs[j].iBegin);
  }
  // The store's buckets are independently locked, so trace computation —
  // the other substantial cost — fills it on the worker pool too.
  obs::Span span(pResolve_);
  WorkerPool::shared().run(
      offset.back(), resolvedThreads(),
      [&](std::size_t k, int) {
        const auto j = static_cast<std::size_t>(
            std::upper_bound(offset.begin(), offset.end(), k) -
            offset.begin() - 1);
        const std::size_t i = jobs[j].iBegin + (k - offset[j]);
        Resolved& r = out[j];
        const bool packed = !r.compiled.empty();
        const auto ref =
            store_.entryRefFor(*jobs[j].program, (*jobs[j].inputs)[i], packed);
        r.traces[i] = ref.trace;
        if (packed) r.compiled[i] = ref.compiled;
        if (classes) r.classIds[i] = ref.classId;
      },
      &util_);
  return out;
}

std::vector<core::StreamingMeasures> ExperimentEngine::reduceJobs(
    const std::vector<Job>& jobs, obs::PhaseAccum* phase) {
  const bool collapse = config_.collapseTraceClasses;
  const std::vector<Resolved> resolved = resolve(jobs, collapse);
  std::vector<Walk> walks(jobs.size());
  std::vector<std::vector<std::vector<std::size_t>>> groups(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    walks[j] = Walk{job.model, &resolved[j], job.qBegin, job.qEnd, {}};
    if (collapse) {
      // Collapsed walk: one column per trace-equivalence class in the input
      // range.  The representative (smallest member) is timed; addEqual
      // fans the result out to every member with the same value/witness
      // outcome the per-member walk would have produced.  Equal traces
      // replay to equal times on every deterministic model — also for
      // shard ranges that pick a different in-range representative of the
      // same global class.
      groups[j] = groupByClass(resolved[j].classIds, job.iBegin, job.iEnd);
      for (const auto& members : groups[j]) {
        walks[j].columns.push_back(members.front());
      }
      cTraceClasses_->add(groups[j].size());
      cCellsCollapsed_->add((job.qEnd - job.qBegin) *
                            ((job.iEnd - job.iBegin) - groups[j].size()));
    } else {
      walks[j].columns.resize(job.iEnd - job.iBegin);
      std::iota(walks[j].columns.begin(), walks[j].columns.end(), job.iBegin);
    }
  }

  // One accumulator per (worker slot, job), merged in slot order below; the
  // smallest-index tie-break makes the merged result independent of which
  // worker saw which tile.  Accumulators carry the FULL shape even for a
  // shard's sub-rectangle, so shard merges reproduce the single-process
  // witnesses.
  const auto workers = static_cast<std::size_t>(std::max(resolvedThreads(), 1));
  std::vector<std::vector<core::StreamingMeasures>> accs(workers);
  for (auto& mine : accs) {
    mine.reserve(jobs.size());
    for (const Job& job : jobs) {
      mine.emplace_back(job.model->numStates(), job.inputs->size());
    }
  }
  runGrid(walks, phase,
          [&](std::size_t j, std::size_t c, std::size_t q0, const Cycles* t,
              std::size_t n, int worker) {
            auto& acc = accs[static_cast<std::size_t>(worker)][j];
            for (std::size_t k = 0; k < n; ++k) {
              if (collapse) {
                const auto& members = groups[j][c];
                acc.addEqual(q0 + k, members.data(), members.size(), t[k]);
              } else {
                acc.add(q0 + k, walks[j].columns[c], t[k]);
              }
            }
          });

  obs::Span mergeSpan(pMerge_);
  std::vector<core::StreamingMeasures> out;
  out.reserve(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    core::StreamingMeasures total = std::move(accs[0][j]);
    for (std::size_t w = 1; w < workers; ++w) total.merge(accs[w][j]);
    out.push_back(std::move(total));
  }
  return out;
}

core::TimingMatrix ExperimentEngine::computeMatrix(
    const TimingModel& model, const isa::Program& program,
    const std::vector<isa::Input>& inputs) {
  const std::size_t nQ = model.numStates();
  // The matrix keeps one column per input, so it never collapses classes.
  const auto resolved =
      resolve({Job{&model, &program, &inputs, 0, nQ, 0, inputs.size()}},
              false);
  cMatrixBuilds_->add();
  core::TimingMatrix m(nQ, inputs.size());
  std::vector<Walk> walks(1);
  walks[0] = Walk{&model, &resolved[0], 0, nQ, {}};
  walks[0].columns.resize(inputs.size());
  std::iota(walks[0].columns.begin(), walks[0].columns.end(), 0);
  runGrid(walks, replayPhase(model),
          [&](std::size_t, std::size_t i, std::size_t q0, const Cycles* t,
              std::size_t n, int) {
            for (std::size_t k = 0; k < n; ++k) m.at(q0 + k, i) = t[k];
          });
  return m;
}

core::StreamingMeasures ExperimentEngine::reduceCells(
    const TimingModel& model, const isa::Program& program,
    const std::vector<isa::Input>& inputs) {
  return std::move(reduceJobs({Job{&model, &program, &inputs, 0,
                                   model.numStates(), 0, inputs.size()}},
                              replayPhase(model))
                       .front());
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
  // Traces resolve for the shard's input range only; collapse groups within
  // the range but keeps GLOBAL input indices, so merged shard accumulators
  // still carry the single-process witnesses byte-for-byte.
  return std::move(
      reduceJobs({Job{&model, &program, &inputs, qBegin, qEnd, iBegin, iEnd}},
                 replayPhase(model))
          .front());
}

std::vector<core::StreamingMeasures> ExperimentEngine::reduceCellsBatch(
    const std::vector<GridSpec>& grids) {
  std::vector<Job> jobs;
  jobs.reserve(grids.size());
  for (const GridSpec& g : grids) {
    jobs.push_back(Job{g.model, g.program, g.inputs, 0, g.model->numStates(),
                       0, g.inputs->size()});
  }
  return reduceJobs(jobs, pReplayBatched_);
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

}  // namespace pred::exp
