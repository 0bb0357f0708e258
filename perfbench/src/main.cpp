// main.cpp — perfbench: end-to-end query benchmark of the predictability
// library.
//
//   perfbench --workload cold-query|warm-sweep|grid-job --seed N
//             --seconds S --trace 0|1 [--trace-dir DIR]
//
// One closed-loop client issues requests one after another: three of every
// four compute a new grid, the fourth repeats the request before it.  Every
// result is checked, outside the timed window, against the bytes of a
// single-process ExperimentEngine::reduceCells reference of the same grid;
// a repeat is checked against the bytes of the request it repeats.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 traces every other
// group of requests, prints the per-layer metrics, the layer self-time
// table and the tracing overhead (traced against untraced groups), and
// writes the spans to DIR.  The last line of stdout is always the JSON result.

#include <sched.h>
#include <sys/resource.h>

#include <array>
#include <charconv>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/engine.h"
#include "grid/attach_worker.h"
#include "grid/client.h"
#include "grid/server.h"
#include "layers.h"
#include "metrics.h"
#include "stats.h"
#include "study/distributed.h"
#include "study/query.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace pred;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kRepeatEvery = 4;  ///< request 4k+3 repeats 4k+2
constexpr std::size_t kGridShards = 8;
constexpr int kSetups = 5;  ///< setup_s is the median of this many
const std::vector<study::Measure> kMeasures = {
    study::Measure::Pr, study::Measure::SIPr, study::Measure::IIPr};

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

// ------------------------------------------------------------ workloads

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the workload, builds registries, starts services and warms
  /// up.  Timed as setup_s.
  virtual void setUp() = 0;
  virtual void tearDown() = 0;
  /// Untimed, after setUp: builds references that do not change per request.
  virtual void prepareChecks() {}
  /// Untimed: draws request k; a repeat re-issues the previous request.
  virtual void prepare(std::uint64_t k, bool repeat) = 0;
  /// The timed request.  Throws on failure.
  virtual void execute() = 0;
  /// Untimed: the last result's bytes equal its reference.
  virtual bool verify() = 0;
  /// Traced phase only: folds the last computed request's telemetry.
  virtual void recordLayers(const Span& request, LayerData& out) = 0;
  virtual std::string spanName(bool repeat) const = 0;
  /// The grid the layer functions are timed on (traced runs).
  virtual LayerInputs layerInputs() = 0;
  /// Grid-only telemetry from the server, or nothing in-process.
  virtual std::optional<obs::RunReport> serverStats() { return std::nullopt; }
  std::size_t cellsPerRequest() const { return kStates * kInputs; }
};

/// Builds an inline-workload query of one platform over a grid.
study::Query makeQuery(const study::WorkloadRegistry& workloads,
                       const exp::PlatformRegistry& platforms,
                       const std::string& label,
                       const study::WorkloadInstance& w,
                       const std::string& platform) {
  study::Query q(workloads, platforms);
  q.workload(label, w.program, w.inputs)
      .platform(platform)
      .options(gridOptions())
      .mode(study::Exhaustive{})
      .measures(kMeasures);
  return q;
}

/// The canonical Finding bytes the reference accumulator determines.
std::string expectedFinding(const exp::PlatformRegistry& platforms,
                            const std::string& label,
                            const study::WorkloadInstance& w,
                            const std::string& platform) {
  const auto model = platforms.make(platform, w.program, gridOptions());
  const auto acc = core::StreamingMeasures::deserialize(
      referenceAccumulator(*model, w).serialize());
  return canonicalFinding(study::detail::streamingFinding(
      label, platform, *model, w.inputs.size(), core::EvalMode::Exhaustive,
      kMeasures, acc));
}

/// Shared by the two in-process workloads: telemetry from Finding::report.
void recordQuery(const study::Finding& f, const Span& request,
                 LayerData& out) {
  ++out.requests;
  out.requestMs += request.ms();
  const obs::RunReport report = f.report.value_or(obs::RunReport{});
  EngineSums one;
  one.add(report);
  out.uncoveredMs += request.ms() - one.phasesMs();
  out.engine.add(report);
}

/// cold-query: every computed request is a fresh engine on a freshly drawn
/// linearsearch grid, so resolving traces is almost all of the work.
class ColdQuery final : public Workload {
 public:
  explicit ColdQuery(std::uint64_t seed) : seed_(seed) {}

  void setUp() override {
    workloads_ = std::make_unique<study::WorkloadRegistry>();
    platforms_ = std::make_unique<exp::PlatformRegistry>();
    for (std::uint64_t j = 0; j < 16; ++j) {
      draw(mixSeed(~seed_, j));
      finding_ = query_->run(*engine_);
    }
  }
  void tearDown() override {
    query_.reset();
    engine_.reset();
  }
  void prepare(std::uint64_t k, bool repeat) override {
    repeat_ = repeat;
    if (!repeat) draw(mixSeed(seed_, k));
  }
  void execute() override { finding_ = query_->run(*engine_); }
  bool verify() override {
    const std::string got = canonicalFinding(finding_);
    if (repeat_) return got == repeated_;
    repeated_ = got;
    return got == expectedFinding(*platforms_, kLabel, w_, kPlatform);
  }
  void recordLayers(const Span& request, LayerData& out) override {
    recordQuery(finding_, request, out);
  }
  std::string spanName(bool repeat) const override {
    return repeat ? "study.query.repeat" : "study.query";
  }
  LayerInputs layerInputs() override {
    return {&w_, {kPlatform}, wholeGridSpec(kLabel, kPlatform, kStates)};
  }

 private:
  static constexpr const char* kLabel = "linearsearch-16x64-seeded";
  static constexpr const char* kPlatform = "inorder-lru";

  void draw(std::uint64_t seed) {
    w_ = linearSearchGrid(seed);
    engine_ = std::make_unique<exp::ExperimentEngine>(
        exp::EngineConfig{.threads = 1});
    query_.emplace(makeQuery(*workloads_, *platforms_, kLabel, w_, kPlatform));
  }

  std::uint64_t seed_;
  std::unique_ptr<study::WorkloadRegistry> workloads_;
  std::unique_ptr<exp::PlatformRegistry> platforms_;
  study::WorkloadInstance w_;
  std::unique_ptr<exp::ExperimentEngine> engine_;
  std::optional<study::Query> query_;
  study::Finding finding_;
  std::string repeated_;  ///< bytes of the last computed result
  bool repeat_ = false;
};

/// warm-sweep: one long-lived engine sweeps a few bubblesort grids over
/// three platforms; their traces are always store hits, so replay is the
/// work.  Several grids per run keep one seed's draw from setting the
/// latency tail.
class WarmSweep final : public Workload {
 public:
  explicit WarmSweep(std::uint64_t seed) : seed_(seed) {}

  void setUp() override {
    workloads_ = std::make_unique<study::WorkloadRegistry>();
    platforms_ = std::make_unique<exp::PlatformRegistry>();
    engine_ = std::make_unique<exp::ExperimentEngine>(
        exp::EngineConfig{.threads = 1});
    grids_.clear();
    queries_.clear();
    for (std::size_t g = 0; g < kGrids; ++g) {
      grids_.push_back(bubbleSortGrid(mixSeed(seed_, g)));
      for (const auto& p : kPlatforms)
        queries_.push_back(
            makeQuery(*workloads_, *platforms_, label(g), grids_[g], p));
    }
    for (const auto& q : queries_) finding_ = q.run(*engine_);
  }
  void tearDown() override {
    queries_.clear();
    engine_.reset();
  }
  void prepareChecks() override {
    expected_.clear();
    for (std::size_t g = 0; g < kGrids; ++g)
      for (const auto& p : kPlatforms)
        expected_.push_back(
            expectedFinding(*platforms_, label(g), grids_[g], p));
  }
  void prepare(std::uint64_t k, bool repeat) override {
    // Rotate the start of each group of kRepeatEvery, so computed requests
    // and repeats both spread evenly over every grid and platform.
    repeat_ = repeat;
    if (!repeat)
      current_ = (k / kRepeatEvery + k % kRepeatEvery) % queries_.size();
  }
  void execute() override { finding_ = queries_[current_].run(*engine_); }
  bool verify() override {
    const std::string got = canonicalFinding(finding_);
    if (repeat_) return got == repeated_;
    repeated_ = got;
    return got == expected_[current_];
  }
  void recordLayers(const Span& request, LayerData& out) override {
    recordQuery(finding_, request, out);
  }
  std::string spanName(bool repeat) const override {
    return repeat ? "study.query.repeat" : "study.query";
  }
  LayerInputs layerInputs() override {
    return {&grids_[0],
            {kPlatforms.begin(), kPlatforms.end()},
            wholeGridSpec(label(0), kPlatforms[0], kStates)};
  }

 private:
  static constexpr std::size_t kGrids = 4;
  static constexpr std::array<const char*, 3> kPlatforms = {
      "inorder-lru", "ooo-fifo", "smt-rr"};

  static std::string label(std::size_t g) {
    return "bubblesort-8x64-seeded-" + std::to_string(g);
  }

  std::uint64_t seed_;
  std::unique_ptr<study::WorkloadRegistry> workloads_;
  std::unique_ptr<exp::PlatformRegistry> platforms_;
  std::vector<study::WorkloadInstance> grids_;
  std::unique_ptr<exp::ExperimentEngine> engine_;
  std::vector<study::Query> queries_;  ///< grid-major: g * 3 + platform
  std::vector<std::string> expected_;
  std::size_t current_ = 0;
  study::Finding finding_;
  std::string repeated_;  ///< bytes of the last computed result
  bool repeat_ = false;
};

/// grid-job: an attach-only GridServer on loopback TCP served by two
/// in-process attached workers; the client submits whole-grid jobs split
/// eight ways.  Computed requests are new specs (result-cache misses);
/// repeats hit the cache.
class GridJob final : public Workload {
 public:
  GridJob(std::uint64_t seed, Tracer& tracer) : seed_(seed), tracer_(tracer) {}
  ~GridJob() override {
    try {
      tearDown();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << "\n";
    }
  }

  void setUp() override {
    workloads_ = std::make_unique<study::WorkloadRegistry>();
    platforms_ = std::make_unique<exp::PlatformRegistry>();
    grid::ServerConfig config;
    config.endpoint = "tcp:127.0.0.1:0";
    config.scheduler.workers = 0;
    server_ = std::make_unique<grid::GridServer>(std::move(config));
    endpoint_ = server_->boundEndpointText();
    serverThread_ = std::thread([this] { server_->serveForever(); });
    for (int k = 0; k < kAttachedWorkers; ++k) {
      workers_.emplace_back([this] {
        try {
          grid::runAttachWorker(endpoint_, evaluator());
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(mu_);
          workerErrors_.push_back(e.what());
        }
      });
    }
    client_ = std::make_unique<grid::GridClient>(endpoint_, kClientDeadlines);
    const auto t0 = Clock::now();
    while (client_->stats().counter("grid.worker.attached") <
           static_cast<std::uint64_t>(kAttachedWorkers)) {
      if (msSince(t0) > kClientDeadlines.connectTimeoutMs)
        throw std::runtime_error("workers did not attach");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    for (std::uint64_t j = 0; j < 2 * kRepeatEvery; ++j) {
      const bool repeat = j % kRepeatEvery == kRepeatEvery - 1;
      if (!repeat) draw("warmup", mixSeed(~seed_, j), j);
      execute();
    }
  }

  void tearDown() override {
    if (!server_) return;
    client_.reset();
    grid::GridClient(endpoint_, kClientDeadlines).shutdownServer();
    serverThread_.join();
    for (auto& t : workers_) t.join();
    workers_.clear();
    server_.reset();
    std::lock_guard<std::mutex> lock(mu_);
    if (!workerErrors_.empty())
      throw std::runtime_error("attached worker failed: " +
                               workerErrors_.front());
  }

  void prepare(std::uint64_t k, bool repeat) override {
    repeat_ = repeat;
    if (!repeat) draw("job", mixSeed(seed_, k), k);
  }
  void execute() override {
    result_.emplace(client_->submit(spec_, kGridShards));
  }
  bool verify() override {
    if (repeat_) return result_->accumulatorText == repeated_;
    repeated_ = result_->accumulatorText;
    const auto model =
        platforms_->make(spec_.platform, w_.program, spec_.options);
    return repeated_ == referenceAccumulator(*model, w_).serialize();
  }
  void recordLayers(const Span& request, LayerData& out) override {
    ++out.requests;
    out.requestMs += request.ms();
    std::vector<ShardRecord> mine;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& r : shardRecords_)
        if (r.span.parent == request.id) mine.push_back(r);
      shardRecords_.clear();
    }
    std::vector<Interval> evals;
    for (const auto& r : mine) {
      ++out.shards;
      out.shardEvalMs += r.span.ms();
      EngineSums one;
      one.add(r.report);
      out.shardSelfMs += r.span.ms() - one.phasesMs();
      out.engine.add(r.report);
      evals.push_back({r.span.startMs, r.span.endMs});
    }
    out.uncoveredMs += selfTime({request.startMs, request.endMs}, evals);
  }
  std::string spanName(bool repeat) const override {
    return repeat ? "grid.client.submit.hit" : "grid.client.submit";
  }
  LayerInputs layerInputs() override {
    return {&w_, {spec_.platform}, spec_};
  }
  std::optional<obs::RunReport> serverStats() override {
    return client_->stats();
  }

 private:
  /// Bounds every client call, so a wedged server fails the run instead
  /// of hanging it.
  static constexpr grid::ClientOptions kClientDeadlines{10'000, 60'000};

  struct ShardRecord {
    Span span;
    obs::RunReport report;
  };

  /// Registers a freshly seeded grid under a new name in the benchmark's
  /// own registry; that name is all the spec carries to the workers.
  void draw(const std::string& prefix, std::uint64_t seed, std::uint64_t k) {
    const std::string name = "perfbench-" + prefix + "-" + std::to_string(k);
    if (workloads_->find(name) == nullptr) {
      workloads_->add(study::Workload{
          name, "seeded linearsearch-16 x 64",
          [seed] { return linearSearchGrid(seed); }});
    }
    w_ = linearSearchGrid(seed);
    spec_ = wholeGridSpec(
        name, "inorder-lru",
        platforms_->make("inorder-lru", w_.program, gridOptions())
            ->numStates());
  }

  /// The workers' evaluator: the library's own, plus a span per shard
  /// while a traced request is open.
  grid::ShardEvalFn evaluator() {
    grid::ShardEvalFn base =
        study::gridShardEvaluator(*workloads_, *platforms_);
    return [this, base](const exp::ShardSpec& spec) {
      const std::uint64_t parent = tracer_.currentSpan();
      if (parent == 0) return base(spec);
      Span span{"grid.shard_eval", tracer_.newId(), parent,
                tracer_.currentRequest(), tracer_.nowMs(), 0};
      grid::ShardOutput out = base(spec);
      span.endMs = tracer_.nowMs();
      tracer_.record(span);
      std::lock_guard<std::mutex> lock(mu_);
      shardRecords_.push_back({span, out.report});
      return out;
    };
  }

  std::uint64_t seed_;
  Tracer& tracer_;
  std::unique_ptr<study::WorkloadRegistry> workloads_;
  std::unique_ptr<exp::PlatformRegistry> platforms_;
  std::mutex mu_;
  std::vector<ShardRecord> shardRecords_;  // guarded by mu_
  std::vector<std::string> workerErrors_;  // guarded by mu_
  std::unique_ptr<grid::GridServer> server_;
  std::string endpoint_;
  std::thread serverThread_;
  std::vector<std::thread> workers_;
  std::unique_ptr<grid::GridClient> client_;
  study::WorkloadInstance w_;
  exp::ShardSpec spec_;
  std::optional<grid::JobResult> result_;
  std::string repeated_;  ///< bytes of the last computed result
  bool repeat_ = false;
};

// ------------------------------------------------------------- run loop

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string traceDir = ".";
};

struct Latencies {
  std::vector<double> computedMs;  ///< requests that computed a grid
  std::vector<double> repeatMs;    ///< requests that repeated the one before
};

struct LoopResult {
  Latencies plain;   ///< untraced requests
  Latencies traced;  ///< traced requests (--trace 1 only)
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t next = 0;  ///< index of the next request
};

/// Issues closed-loop requests until `untilS` seconds after `runStart`.
/// The last segment of a run goes on until every percentile the run
/// reports keeps at least ten samples beyond it, up to `capS`.  With a
/// tracer, every other group of kRepeatEvery requests is traced —
/// interleaved, so drift cannot pose as tracing overhead — and its layer
/// telemetry is folded into `layers`.
void runSegment(Workload& w, Clock::time_point runStart, double untilS,
                bool last, double capS, Tracer* tracer, LayerData& layers,
                LoopResult& out) {
  const std::size_t need = minSamplesFor(90, 10);
  const auto enough = [&] {
    if (!last) return true;
    if (tracer == nullptr)
      return out.plain.computedMs.size() >= need &&
             out.plain.repeatMs.size() >= need;
    return out.plain.computedMs.size() >= need &&
           out.traced.computedMs.size() >= need;
  };
  for (;; ++out.next) {
    const std::uint64_t k = out.next;
    if (k % kRepeatEvery == 0) {  // stop only between whole groups
      const double elapsedS = msSince(runStart) / 1000.0;
      if ((elapsedS >= untilS && enough()) || elapsedS >= capS) break;
    }
    const bool repeat = k % kRepeatEvery == kRepeatEvery - 1;
    const bool traced = tracer != nullptr && (k / kRepeatEvery) % 2 == 1;
    w.prepare(k, repeat);
    ++out.attempted;
    Span span{w.spanName(repeat), 0, 0, k, 0, 0};
    if (traced) {
      span.id = tracer->newId();
      tracer->setCurrent(span.id, k);
      span.startMs = tracer->nowMs();
    }
    bool ok = true;
    const auto t0 = Clock::now();
    try {
      w.execute();
    } catch (const std::exception& e) {
      ok = false;
      std::cerr << "perfbench: request " << k << " failed: " << e.what()
                << "\n";
    }
    const double ms = msSince(t0);
    if (traced) {
      span.endMs = tracer->nowMs();
      tracer->setCurrent(0, 0);
      tracer->record(span);
    }
    if (ok && !w.verify()) {
      ok = false;
      std::cerr << "perfbench: request " << k
                << " differs from its reference\n";
    }
    if (!ok) {
      ++out.failed;
      continue;
    }
    Latencies& into = traced ? out.traced : out.plain;
    (repeat ? into.repeatMs : into.computedMs).push_back(ms);
    if (traced && !repeat) w.recordLayers(span, layers);
  }
}

void printSamples(const char* what, const std::vector<double>& v) {
  std::cout << "# samples " << what << " n=" << v.size();
  for (const double p : {50.0, 90.0}) {
    if (v.empty()) break;
    std::cout << " p" << p << "_beyond=" << samplesBeyond(v.size(), p);
  }
  std::cout << "\n";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string jsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const auto& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + num(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

double peakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the first `n` CPUs it may run on.  Returns them as "0,1", or "" when
/// fewer are available and nothing was pinned.
std::string pinToFirstCpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return "";
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  std::string list;
  for (int c = 0; c < CPU_SETSIZE && CPU_COUNT(&pinned) < n; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    CPU_SET(c, &pinned);
    list += (list.empty() ? "" : ",") + std::to_string(c);
  }
  if (CPU_COUNT(&pinned) < n ||
      sched_setaffinity(0, sizeof pinned, &pinned) != 0)
    return "";
  return list;
}

std::unique_ptr<Workload> makeWorkload(const Options& o, Tracer& tracer) {
  if (o.workload == "cold-query") return std::make_unique<ColdQuery>(o.seed);
  if (o.workload == "warm-sweep") return std::make_unique<WarmSweep>(o.seed);
  if (o.workload == "grid-job")
    return std::make_unique<GridJob>(o.seed, tracer);
  throw std::invalid_argument("unknown workload: " + o.workload);
}

/// Span layers that exist on one workload's path only; printed in the
/// layer table, not in the JSON result.
void printPathLayers(const LayerData& d, const Tracer& tracer) {
  const auto totals = tracer.layerTotals();
  const auto meanOf = [&](const char* span) {
    const auto it = totals.find(span);
    if (it == totals.end()) return 0.0;
    return ratio(it->second.totalMs, static_cast<double>(it->second.count));
  };
  std::cout << "# layer-table span count mean_ms self_mean_ms\n";
  for (const auto& [name, t] : totals) {
    std::cout << "# layer-table " << name << " " << t.count << " "
              << num(ratio(t.totalMs, static_cast<double>(t.count))) << " "
              << num(ratio(t.selfMs, static_cast<double>(t.count))) << "\n";
  }
  const double n = static_cast<double>(d.requests);
  const double shards = static_cast<double>(d.shards);
  std::vector<std::pair<std::string, double>> rows;
  if (totals.count("study.query")) {
    rows = {{"study.query_ms", meanOf("study.query")},
            {"study.query_self_ms", ratio(d.uncoveredMs, n)}};
  } else {
    rows = {
        {"grid.client.submit_ms", meanOf("grid.client.submit")},
        {"grid.client.submit_hit_ms", meanOf("grid.client.submit.hit")},
        {"grid.shard_eval_ms", ratio(d.shardEvalMs, shards)},
        {"grid.shard.resolve_ms", ratio(d.engine.resolveNs / 1e6, shards)},
        {"grid.shard.replay_ms", ratio(d.engine.replayNs / 1e6, shards)},
        {"grid.shard.self_ms", ratio(d.shardSelfMs, shards)},
        {"grid.job_uncovered_ms", ratio(d.uncoveredMs, n)}};
  }
  for (const auto& [name, v] : rows)
    std::cout << "# layer " << name << " " << num(v) << " ms\n";
}

int run(const Options& o) {
  // grid-job keeps one CPU busy per attached worker, while its server and
  // client threads mostly wait.  Pinned to that many CPUs, the threads hand
  // off on CPUs that are already running instead of waking idle ones; on a
  // virtualised host this cut steal time and the latency tail it causes.
  const std::string cpus =
      o.workload == "grid-job" ? pinToFirstCpus(kAttachedWorkers) : "";
  Tracer tracer;
  auto w = makeWorkload(o, tracer);

  std::cout << "# perfbench workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << (o.trace ? 1 : 0)
            << "\n";
  std::cout << "# header nproc=" << std::thread::hardware_concurrency()
            << " build_type=" << PERFBENCH_BUILD_TYPE
#ifdef PRED_OBS_DISABLED
            << " obs_timers=compiled-out"
#else
            << " obs_timers=compiled-in"
#endif
            << " cpus=" << (cpus.empty() ? "all" : cpus)
            << " engine_threads=1 attached_workers="
            << (o.workload == "grid-job" ? kAttachedWorkers : 0)
            << " grid_shards=" << kGridShards
            << " loop=closed clients=1 repeat_every=" << kRepeatEvery
            << " setups=" << kSetups << "\n";

  // The run is split into kSetups segments, each on a fresh set-up, so the
  // set-up samples spread over the run like the request samples do.
  std::vector<double> setupS;
  LayerData layers;
  LoopResult loop;
  const auto runStart = Clock::now();
  for (int s = 0; s < kSetups; ++s) {
    if (s > 0) w->tearDown();
    const auto t0 = Clock::now();
    w->setUp();
    setupS.push_back(msSince(t0) / 1000.0);
    w->prepareChecks();
    runSegment(*w, runStart, o.seconds * (s + 1) / kSetups,
               s + 1 == kSetups, 2 * o.seconds, o.trace ? &tracer : nullptr,
               layers, loop);
  }
  std::vector<Metric> out;
  const Latencies& plain = loop.plain;
  bool measured = false;
  if (!o.trace) {
    printSamples("latency", plain.computedMs);
    printSamples("hit_latency", plain.repeatMs);
    measured = !plain.computedMs.empty() && !plain.repeatMs.empty();
    if (measured) {
      double latencySumMs = 0;
      for (const double ms : plain.computedMs) latencySumMs += ms;
      const double cells = static_cast<double>(plain.computedMs.size()) *
                           static_cast<double>(w->cellsPerRequest());
      out = {
          {"latency_p50_ms", percentile(plain.computedMs, 50), "ms"},
          {"latency_p90_ms", percentile(plain.computedMs, 90), "ms"},
          {"cells_per_s", ratio(cells, latencySumMs / 1000.0), "1/s"},
          {"hit_latency_p50_ms", percentile(plain.repeatMs, 50), "ms"},
          {"setup_s", percentile(setupS, 50), "s"},
          {"peak_rss_mb", peakRssMb(), "MB"},
      };
      // Printed, not bounded: a sub-millisecond grid hit's tail is set by
      // host scheduling delays, which vary far more between runs than any
      // regression bound could allow.
      std::cout << "# info hit_latency_p90_ms "
                << num(percentile(plain.repeatMs, 90)) << " ms\n";
    }
  } else {
    printSamples("untraced_latency", plain.computedMs);
    printSamples("traced_latency", loop.traced.computedMs);
    measured = !plain.computedMs.empty() && !loop.traced.computedMs.empty();
    if (measured) {
      const auto metrics = layerMetrics(
          layers, percentile(plain.computedMs, 50),
          percentile(loop.traced.computedMs, 50),
          timeLayerFunctions(w->layerInputs()), w->serverStats());
      printPathLayers(layers, tracer);
      for (const auto& spec : kLayerMetrics)
        out.push_back({spec.name, metrics.at(spec.name), spec.unit});
    }
    const std::string path = o.traceDir + "/perfbench-" + o.workload +
                             "-seed" + std::to_string(o.seed) + ".jsonl";
    if (!tracer.writeJsonLines(path))
      std::cerr << "perfbench: could not write spans to " << path << "\n";
    else
      std::cout << "# spans written to " << path << "\n";
  }
  w->tearDown();

  for (const auto& m : out)
    std::cout << "# metric " << m.name << " " << num(m.value) << " " << m.unit
              << "\n";
  std::cout << "# failed_ratio " << loop.failed << "/" << loop.attempted
            << " = "
            << num(ratio(static_cast<double>(loop.failed),
                         static_cast<double>(loop.attempted)))
            << "\n";
  if (!measured) std::cerr << "perfbench: no successful request to measure\n";
  const bool correct = loop.failed == 0 && measured;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << loop.attempted
            << ", \"failed\": " << loop.failed
            << ", \"metrics\": " << jsonMetrics(out) << "}" << std::endl;
  return correct ? 0 : 1;
}

int usage() {
  std::cerr << "usage: perfbench --workload cold-query|warm-sweep|grid-job "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) return perfbench::usage();
      const std::string v = argv[++i];
      if (a == "--workload") o.workload = v;
      else if (a == "--seed") o.seed = std::stoull(v);
      else if (a == "--seconds") o.seconds = std::stod(v);
      else if (a == "--trace") o.trace = std::stoi(v) != 0;
      else if (a == "--trace-dir") o.traceDir = v;
      else return perfbench::usage();
    }
    if (o.workload.empty() || !(o.seconds > 0)) return perfbench::usage();
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 3;
  }
}
