#pragma once
// engine.h — Parallel computation and reduction of timing matrices.
//
// Definitions 3–5 are minima over the full Q×I cross product of T_p(q, i) —
// an embarrassingly parallel computation.  The ExperimentEngine evaluates a
// TimingModel over Q×I on the shared persistent WorkerPool with
// deterministic tiling: the matrix cells are partitioned into tiles up
// front, workers pull tiles from an atomic cursor, and every cell's value
// and storage slot are fixed before any thread starts.  Because each cell
// is written exactly once to its own slot by a deterministic evaluator, the
// parallel result is bit-identical to the serial one for any thread count
// or tile shape — the property the engine tests assert cell-for-cell.
//
// One streaming reducer serves every exhaustive reduction: it takes a batch
// of jobs — each a model, its workload and a rectangle [qBegin, qEnd) x
// [iBegin, iEnd) of that model's full grid — resolves every job's traces in
// one pool pass, walks every job's tiles in one grid walk, and folds each
// job's cells straight into its own StreamingMeasures (per worker, merged
// deterministically), so exhaustive queries that don't keep matrices never
// allocate |Q|×|I|.  reduceCells is the one-job whole grid,
// reduceCellsRange one shard's rectangle, and reduceCellsBatch a scenario
// sweep's many whole grids, which thereby stop paying a pool barrier per
// query.  computeMatrix shares the resolve pass and the walk, with the
// dense |Q|×|I| TimingMatrix as the sink instead of the accumulators.
//
// One tile walker (runGrid) serves both sinks.  It hands each tile to the
// model as columns — one input (or trace class) × the tile's state range —
// through TimingModel::timePackedStates, so a model that shares work
// across the states of a column (the in-order per-set replay) shares it
// over a whole tile; the default tile spans |Q| = 64.  The packed path
// (compiled traces + flat cache snapshots, exp/replay.h) is taken whenever
// the model supports it; EngineConfig::usePackedReplay forces the legacy
// interpreted time(q, trace) path, the oracle the benches and the
// differential tests measure it against.  Both paths are bit-identical
// (asserted in tests).
//
// Orthogonally, the streaming reductions collapse the INPUT axis before
// walking it (EngineConfig::collapseTraceClasses): inputs whose functional
// traces are record-for-record identical — the TraceStore's
// trace-equivalence classes — are timed once per state, and the class
// result fans out to every member through StreamingMeasures::addEqual.
// Duplicate-heavy grids evaluate |Q| x |classes| cells instead of
// |Q| x |I|, with values and witnesses bit-identical to the uncollapsed
// walk by construction.
//
// The engine owns a TraceStore (trace_store.h) so the functional trace of
// each input is computed once, and the compiled replay form of each trace
// class once, then replayed across all hardware states and across every
// matrix the engine computes.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/definitions.h"
#include "core/measures.h"
#include "exp/platform.h"
#include "exp/trace_store.h"
#include "obs/metrics.h"
#include "obs/run_report.h"

namespace pred::exp {

struct EngineConfig {
  /// Worker threads; 0 = hardware concurrency, 1 = serial (no pool use).
  int threads = 0;
  /// Tile shape (states x inputs per work item).  Purely a scheduling
  /// granularity knob; never affects results.  A tile reaches the model as
  /// tileInputs columns of tileStates states each
  /// (TimingModel::timePackedStates), and a model that shares work across
  /// the states of a column shares it within one tile, so the default
  /// spans a whole |Q| = 64 grid.  tileInputs is an upper bound: when a
  /// walk has fewer tiles than workers, the walker narrows its tiles along
  /// the input axis.
  std::size_t tileStates = 64;
  std::size_t tileInputs = 8;
  /// Evaluate through the model's packed replay fast path when available.
  /// Never affects results (bit-identity is asserted in tests); off forces
  /// the legacy time(q, trace) evaluator, the benches' baseline.
  bool usePackedReplay = true;
  /// Collapse the input axis of every streaming reduction by
  /// trace-equivalence class: T(q, i) is a function of the functional trace
  /// alone, so inputs with record-identical traces are timed ONCE per state
  /// and the result fans out to all members through
  /// StreamingMeasures::addEqual with smallest-index witness attribution.
  /// Never affects results — values and witnesses are bit-identical to the
  /// uncollapsed walk by construction (gated cell-for-cell and
  /// witness-for-witness in tests/differential_test.cpp); off forces the
  /// one-cell-per-input walk, the benches' collapse baseline.  Scheduling /
  /// evaluation-strategy knob: invisible to result identities and cache
  /// keys (canonicalResultIdentity normalizes it away).
  bool collapseTraceClasses = true;
};

class ExperimentEngine {
 public:
  explicit ExperimentEngine(EngineConfig config = {});

  /// T over Q x I for a program and input set; functional traces (and their
  /// compiled replay forms) come from the engine's memoizing TraceStore.
  core::TimingMatrix computeMatrix(const TimingModel& model,
                                   const isa::Program& program,
                                   const std::vector<isa::Input>& inputs);

  /// Folds every cell of Q x I into streaming min/max/Pr/SIPr/IIPr
  /// accumulators without materializing the matrix.  Same tiling, same
  /// evaluator, deterministic for any thread count; results (values AND
  /// witnesses) are bit-identical to running the core:: evaluators over
  /// computeMatrix's output.
  core::StreamingMeasures reduceCells(const TimingModel& model,
                                      const isa::Program& program,
                                      const std::vector<isa::Input>& inputs);

  /// One grid of a batched reduction: a model plus its workload.  The
  /// pointed-to objects must outlive the reduceCellsBatch call.
  struct GridSpec {
    const TimingModel* model;
    const isa::Program* program;
    const std::vector<isa::Input>* inputs;
  };

  /// reduceCells restricted to the half-open sub-rectangle
  /// [qBegin, qEnd) × [iBegin, iEnd) of the FULL grid — the per-shard
  /// evaluation of the process-sharded substrate (exp/shard.h).  The
  /// returned accumulator keeps the full |Q|×|I| shape and global indices,
  /// with only the sub-rectangle's cells fed, so shard accumulators merge
  /// into exactly the single-process reduceCells result (values AND
  /// witnesses, for any partition — the smallest-index tie-break makes the
  /// merge order-independent; asserted in tests/shard_test.cpp).  Traces
  /// are resolved (and memoized) for the input range only.  Throws
  /// std::invalid_argument on ranges outside the grid or empty ranges.
  core::StreamingMeasures reduceCellsRange(const TimingModel& model,
                                           const isa::Program& program,
                                           const std::vector<isa::Input>&
                                               inputs,
                                           std::size_t qBegin,
                                           std::size_t qEnd,
                                           std::size_t iBegin,
                                           std::size_t iEnd);

  /// Folds shard accumulators (all of the full grid shape, disjoint cells)
  /// into one.  Callers pass shards smallest-index-first by convention
  /// (planShards emits them that way), but the result is the same for ANY
  /// order: merge's smallest-index tie-break is commutative and
  /// associative.  Throws std::invalid_argument on empty input or shape
  /// mismatch.
  static core::StreamingMeasures mergeShards(
      std::vector<core::StreamingMeasures> shards);

  /// reduceCells over MANY grids with a single tiled walk: all cells of all
  /// grids are enqueued as one work list on the worker pool (one grid walk,
  /// preceded by one pool pass that resolves every grid's traces), so small
  /// grids no longer serialize on per-grid barriers.  Results are the same
  /// StreamingMeasures reduceCells would produce grid by grid — values AND
  /// witnesses, for any thread count or tile shape, because per-worker
  /// accumulators merge with the smallest-index tie-break.  This is the
  /// single-pass substrate of ScenarioSuite::run.
  std::vector<core::StreamingMeasures> reduceCellsBatch(
      const std::vector<GridSpec>& grids);

  /// Threads a computeMatrix call will actually use.
  int resolvedThreads() const;

  /// Dense |Q|×|I| matrices materialized by this engine so far — the
  /// streaming-path tests assert this stays 0 for keepMatrices=false
  /// queries.  (Thin shim over the "engine.matrix_builds" registry counter;
  /// kept so existing callers and tests are untouched by the obs layer.)
  std::uint64_t matrixBuilds() const { return cMatrixBuilds_->value(); }

  /// Tiled grid walks issued by this engine so far (one per matrix or
  /// streaming reduction; ONE for a whole reduceCellsBatch, however many
  /// grids it spans) — the batching tests assert a batched ScenarioSuite
  /// run issues exactly one instead of one per query.  (Shim over the
  /// "engine.grid_walks" registry counter.)
  std::uint64_t gridWalks() const { return cGridWalks_->value(); }

  const EngineConfig& config() const { return config_; }
  TraceStore& traceStore() { return store_; }

  /// The engine's metrics registry — every counter and phase accumulator
  /// this engine records into.  Counters are cumulative over the engine's
  /// lifetime; per-run views come from report() snapshots + deltaSince.
  obs::MetricsRegistry& metrics() const { return metrics_; }
  /// Per-worker pool utilization collected by this engine's grid walks.
  const obs::WorkerUtil& workerUtil() const { return util_; }
  /// Cumulative snapshot of everything observed so far: registry counters
  /// and phases, worker utilization, and the trace store's hit/miss,
  /// entry, class and compile counts (exported as
  /// "trace_store.{hits,misses,entries,classes,compiles}" counters).
  obs::RunReport report() const;

 private:
  /// One job of a streaming reduction: a model, its workload, and the
  /// half-open rectangle [qBegin, qEnd) x [iBegin, iEnd) of the model's
  /// full grid that it covers.  The pointed-to objects must outlive the
  /// call.
  struct Job {
    const TimingModel* model;
    const isa::Program* program;
    const std::vector<isa::Input>* inputs;
    std::size_t qBegin, qEnd, iBegin, iEnd;
  };

  /// The resolved forms of one job's inputs, globally indexed (size
  /// inputs.size(); entries outside [iBegin, iEnd) stay null).
  struct Resolved {
    std::vector<const isa::Trace*> traces;
    /// Empty selects the interpreted time(q, trace) path.
    std::vector<const ReplayProgram*> compiled;
    /// Trace-equivalence class ids; empty unless the resolve asked for them.
    std::vector<std::uint32_t> classIds;
  };

  /// One rectangle of a tiled walk: a model, its job's resolved inputs, a
  /// state range, and per walked column the input that is timed — a trace
  /// class's representative, or the input itself.
  struct Walk {
    const TimingModel* model = nullptr;
    const Resolved* resolved = nullptr;
    std::size_t qBegin = 0;
    std::size_t qEnd = 0;
    std::vector<std::size_t> columns;
  };

  /// Receives one evaluated column of a tile: times[k] = T(q0 + k, the
  /// column's input) for k < n.
  using ColumnSink =
      std::function<void(std::size_t walk, std::size_t column, std::size_t q0,
                         const Cycles* times, std::size_t n, int worker)>;

  /// THE tiled parallel walk, over the union of every walk's cells.  A
  /// tile is up to tileInputs columns x tileStates states of one walk; each
  /// column is timed in one TimingModel::timePackedStates call (or per
  /// state on the interpreted path) and handed to `sink` exactly once.
  /// Worker ids are dense in [0, resolvedThreads()).  The wall time goes
  /// into `phase` (nullptr skips it); the tiles, cells, state_classes and
  /// state_fallback counters tick once per TILE, never per cell, so the
  /// accounting stays off the per-cell hot path.  Counts one grid walk
  /// when there is any cell.
  void runGrid(const std::vector<Walk>& walks, obs::PhaseAccum* phase,
               const ColumnSink& sink) const;

  /// THE resolve pass: one pool pass over the input range of every job
  /// resolves (and memoizes) each input's trace — plus its compiled form
  /// when the job's model takes the packed path, and its class id when
  /// `classes` is set — with one store lookup per (job, input).
  std::vector<Resolved> resolve(const std::vector<Job>& jobs, bool classes);

  /// THE streaming reducer behind reduceCells, reduceCellsRange and
  /// reduceCellsBatch, so the shard-vs-single and batch-vs-sequential
  /// bit-identity contracts rest on a single body.  Each job's accumulator
  /// has its model's full (numStates x inputs) shape with only the
  /// rectangle's cells fed.  With EngineConfig::collapseTraceClasses a
  /// job's walk spans |Q| x |classes-in-range| and each class result fans
  /// out to its member inputs.  Witnesses use GLOBAL input indices either
  /// way, so shard merges stay byte-exact.  The walk's wall time goes into
  /// `phase`.
  std::vector<core::StreamingMeasures> reduceJobs(const std::vector<Job>& jobs,
                                                  obs::PhaseAccum* phase);

  /// The replay phase a walk over `model` alone is timed under.
  obs::PhaseAccum* replayPhase(const TimingModel& model) const;

  bool packedPath(const TimingModel& model) const;

  EngineConfig config_;
  TraceStore store_;

  // Observability.  One registry per engine; the hot paths never touch the
  // registry map — the counters and phase accumulators they hit are
  // resolved once here (get-or-create returns stable addresses) and cached
  // as plain pointers.  mutable: recording statistics does not make a
  // const computation less const.
  mutable obs::MetricsRegistry metrics_;
  mutable obs::WorkerUtil util_;
  obs::Counter* cMatrixBuilds_;
  obs::Counter* cGridWalks_;
  obs::Counter* cTiles_;
  obs::Counter* cCells_;
  obs::Counter* cTraceClasses_;
  obs::Counter* cCellsCollapsed_;
  obs::Counter* cStateClasses_;
  obs::Counter* cStateFallback_;
  obs::PhaseAccum* pResolve_;
  obs::PhaseAccum* pReplayPacked_;
  obs::PhaseAccum* pReplayInterp_;
  obs::PhaseAccum* pReplayBatched_;
  obs::PhaseAccum* pMerge_;
};

}  // namespace pred::exp
