// grid_fault_test.cpp — The gate for PR 8's robustness layer: the fault-
// point registry must parse plans strictly and fire deterministically
// (after/count gates, named Injected exceptions, zero-cost disarmed); the
// net layer's poll()-based deadlines must turn silent peers into
// TimeoutError instead of forever-blocks (read, write, and mid-header
// stalls); the cache journal must recover the longest valid prefix at
// EVERY truncation offset, survive bit flips by resyncing past one record,
// and never refuse to start; the persistent ResultCache must serve
// byte-identical hits across a restart, obey its LRU bound on reload, and
// treat any store failure as "persistence lost", never a failed job; and
// the server must drop stalled/injected-EPIPE connections (counted in
// grid.conn.*) while the daemon keeps serving — including a full
// stop/restart with the same cache dir answering from disk.  Spawned
// workers run the built pred-shard-worker as `attach fd:N` children: jobs
// stay byte-identical, a wrong-salt child is rejected and its slot
// respawns clean, a child that exits at once retires its slot, and
// shutdown leaves no child behind.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/measures.h"
#include "exp/engine.h"
#include "exp/platform.h"
#include "exp/shard.h"
#include "grid/attach_worker.h"
#include "grid/cache.h"
#include "grid/cache_store.h"
#include "grid/client.h"
#include "grid/faultpoint.h"
#include "grid/fingerprint.h"
#include "grid/net.h"
#include "grid/protocol.h"
#include "grid/server.h"
#include "study/distributed.h"
#include "study/workloads.h"

namespace pred {
namespace {

using exp::ShardSpec;

// ------------------------------------------------------------ test helpers

/// Disarms any fault plan when a test scope ends, so one test's injection
/// can never leak into the next.
struct FaultGuard {
  FaultGuard() { grid::fault::disarm(); }
  ~FaultGuard() { grid::fault::disarm(); }
};

/// A fresh, collision-free unix socket path under /tmp.
std::string uniqueSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/pred-fault-test-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// mkdtemp-backed scratch directory, scrubbed on destruction.
struct TempDir {
  TempDir() {
    char buf[] = "/tmp/pred-cache-XXXXXX";
    if (::mkdtemp(buf) == nullptr) throw std::runtime_error("mkdtemp failed");
    path = buf;
  }
  ~TempDir() {
    ::unlink((path + "/results.journal").c_str());
    ::unlink((path + "/results.journal.tmp").c_str());
    ::rmdir(path.c_str());
  }
  std::string path;
};

/// A connected AF_UNIX stream pair with RAII ends.
struct SocketPair {
  SocketPair() {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    a.reset(sv[0]);
    b.reset(sv[1]);
  }
  grid::net::Fd a, b;
};

/// Overwrites the journal file with exactly `bytes`.
void writeJournal(const std::string& dir, const std::string& bytes) {
  std::ofstream f(dir + "/results.journal",
                  std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

/// Recovers the store under `dir` into a map (append order collapses to
/// last-wins, same as the cache's replay).
std::map<std::string, std::string> recoverAll(const std::string& dir,
                                              grid::RecoveryStats* stats) {
  grid::CacheStore store(grid::CacheStore::Config{dir, 16});
  std::map<std::string, std::string> out;
  const grid::RecoveryStats s =
      store.recover([&](std::string fp, std::string payload) {
        out[std::move(fp)] = std::move(payload);
      });
  if (stats != nullptr) *stats = s;
  return out;
}

/// The small grid the server tests evaluate (the same shape
/// grid_test.cpp gates on), plus its single-process reference bytes.
struct TestGrid {
  ShardSpec whole;
  std::string singleBytes;
};

TestGrid makeTestGrid() {
  exp::PlatformOptions options;
  options.numStates = 8;
  const auto w = study::WorkloadRegistry::instance().make("bubblesort-8");
  const auto model = exp::PlatformRegistry::instance().make(
      "inorder-lru", w.program, options);
  exp::ExperimentEngine engine;

  TestGrid g;
  g.whole.platform = "inorder-lru";
  g.whole.workload = "bubblesort-8";
  g.whole.options = options;
  g.whole.qEnd = model->numStates();
  g.whole.iEnd = w.inputs.size();
  g.singleBytes = engine.reduceCells(*model, w.program, w.inputs).serialize();
  return g;
}

/// In-process GridServer on a background thread, with the robustness
/// knobs (cacheDir, connTimeoutMs) exposed.
class InProcessServer {
 public:
  explicit InProcessServer(const std::string& cacheDir = std::string(),
                           std::uint64_t connTimeoutMs = 30'000,
                           std::size_t cacheEntries = 64,
                           bool workerListen = false) {
    grid::ServerConfig cfg;
    cfg.scheduler.workers = 2;
    cfg.scheduler.retryBackoffMs = 1;
    cfg.cacheEntries = cacheEntries;
    cfg.cacheDir = cacheDir;
    cfg.connTimeoutMs = connTimeoutMs;
    cfg.eval = study::gridShardEvaluator();
    if (workerListen) {
      workerPath_ = uniqueSocketPath();
      cfg.workerEndpoint = "unix:" + workerPath_;
    }
    start(std::move(cfg));
  }

  /// A server built from `cfg` as given, listening on a fresh endpoint.
  explicit InProcessServer(grid::ServerConfig cfg) { start(std::move(cfg)); }

  ~InProcessServer() {
    stop();
    ::unlink(path_.c_str());
    if (!workerPath_.empty()) ::unlink(workerPath_.c_str());
  }

  const std::string& endpoint() const { return endpointText_; }
  std::string workerEndpoint() const { return "unix:" + workerPath_; }
  grid::GridServer& server() { return *server_; }

  /// Shutdown handshake + join; all test clients must be closed first
  /// (the server handles connections sequentially).
  void stop() {
    if (!thread_.joinable()) return;
    grid::GridClient(endpointText_).shutdownServer();
    thread_.join();
  }

 private:
  void start(grid::ServerConfig cfg) {
    path_ = uniqueSocketPath();
    endpointText_ = "unix:" + path_;
    cfg.endpoint = endpointText_;
    server_.emplace(std::move(cfg));
    thread_ = std::thread([this] { server_->serveForever(); });
  }

  std::string path_;
  std::string workerPath_;
  std::string endpointText_;
  std::optional<grid::GridServer> server_;
  std::thread thread_;
};

std::uint64_t counterOf(grid::GridServer& server, const std::string& name) {
  for (const auto& [n, v] : server.metrics().counterValues()) {
    if (n == name) return v;
  }
  return 0;
}

// --------------------------------------------------------- fault registry

TEST(FaultPlan, ErrorActionFiresOnceWithPointName) {
  FaultGuard guard;
  EXPECT_FALSE(grid::fault::anyArmed());
  grid::fault::armPlan("net.read:error");
  EXPECT_TRUE(grid::fault::anyArmed());
  EXPECT_EQ(grid::fault::planText(), "net.read:error");

  try {
    grid::fault::check("net.read");
    FAIL() << "armed point did not fire";
  } catch (const grid::fault::Injected& e) {
    EXPECT_EQ(e.point(), "net.read");
    EXPECT_NE(std::string(e.what()).find("net.read"), std::string::npos);
  }
  // Default count=1: the rule is spent.
  EXPECT_NO_THROW(grid::fault::check("net.read"));
  // Unarmed points never fire.
  EXPECT_NO_THROW(grid::fault::check("net.write"));
  EXPECT_EQ(grid::fault::hitCount("net.read"), 2u);
}

TEST(FaultPlan, AfterGatePassesLeadingHits) {
  FaultGuard guard;
  grid::fault::armPlan("sched.dispatch:after=2:error");
  EXPECT_NO_THROW(grid::fault::check("sched.dispatch"));
  EXPECT_NO_THROW(grid::fault::check("sched.dispatch"));
  EXPECT_THROW(grid::fault::check("sched.dispatch"), grid::fault::Injected);
  EXPECT_NO_THROW(grid::fault::check("sched.dispatch"));  // count spent
  EXPECT_EQ(grid::fault::hitCount("sched.dispatch"), 4u);
}

TEST(FaultPlan, CountZeroFiresForever) {
  FaultGuard guard;
  grid::fault::armPlan("proto.decode:count=0:error");
  for (int k = 0; k < 5; ++k) {
    EXPECT_THROW(grid::fault::check("proto.decode"), grid::fault::Injected);
  }
}

TEST(FaultPlan, EpipeAndStallFlavors) {
  FaultGuard guard;
  grid::fault::armPlan("net.write:epipe;net.read:stall=20");
  try {
    grid::fault::check("net.write");
    FAIL() << "epipe rule did not fire";
  } catch (const grid::fault::Injected& e) {
    EXPECT_EQ(e.point(), "net.write");
  }
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(grid::fault::check("net.read"));  // stalls, then proceeds
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 15);
}

TEST(FaultPlan, RejectsMalformedPlansWithoutArming) {
  FaultGuard guard;
  const char* bad[] = {
      "bogus.point:error",         // unknown point
      "net.read",                  // no action
      "net.read:torn",             // torn outside cache.journal
      "net.read:error:epipe",      // two actions
      "net.read:after=x:error",    // malformed number
      "net.read:error=1",          // action takes no value
      "net.read:stall",            // stall needs =MS
      "net.read:wat=1:error",      // unknown token
  };
  for (const char* plan : bad) {
    EXPECT_THROW(grid::fault::armPlan(plan), std::invalid_argument)
        << "plan not rejected: " << plan;
    EXPECT_FALSE(grid::fault::anyArmed()) << "bad plan armed: " << plan;
  }
  // Empty plan (and ";;;") disarms rather than erroring.
  grid::fault::armPlan("net.read:error");
  grid::fault::armPlan("");
  EXPECT_FALSE(grid::fault::anyArmed());
  EXPECT_EQ(grid::fault::planText(), "");
}

TEST(FaultPlan, TornLimitOnlyAnswersTornRules) {
  FaultGuard guard;
  grid::fault::armPlan("cache.journal:torn=7");
  const auto limit = grid::fault::tornLimit("cache.journal", 100);
  ASSERT_TRUE(limit.has_value());
  EXPECT_EQ(*limit, 7u);
  // Spent after one firing; and check() never fires torn rules.
  EXPECT_FALSE(grid::fault::tornLimit("cache.journal", 100).has_value());
  grid::fault::armPlan("cache.journal:torn");
  EXPECT_NO_THROW(grid::fault::check("cache.journal"));
  const auto half = grid::fault::tornLimit("cache.journal", 100);
  ASSERT_TRUE(half.has_value());
  EXPECT_EQ(*half, 50u);  // default: half the record
}

// ----------------------------------------------------------- net deadlines

TEST(NetDeadline, ReadTimesOutOnSilentPeer) {
  SocketPair sp;
  char byte;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(grid::net::readExact(sp.a.get(), &byte, 1, 100),
               grid::net::TimeoutError);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 90);
  EXPECT_LT(elapsed.count(), 5000);
}

TEST(NetDeadline, WriteTimesOutWhenPeerStopsDraining) {
  SocketPair sp;
  // Nobody reads sp.b, so the kernel buffer fills and the whole-operation
  // deadline must fire instead of wedging the writer.
  const std::string big(8u << 20, 'x');
  EXPECT_THROW(
      grid::net::writeAll(sp.a.get(), big.data(), big.size(), 150),
      grid::net::TimeoutError);
}

TEST(NetDeadline, FrameReadTimesOutMidHeader) {
  SocketPair sp;
  // A valid header PREFIX then silence: the frame deadline covers the
  // whole header+payload, so a peer dribbling bytes cannot reset it.
  const char prefix[4] = {'P', 'G', 1, 1};
  grid::net::writeAll(sp.b.get(), prefix, sizeof(prefix));
  grid::Frame frame;
  EXPECT_THROW(grid::readFrame(sp.a.get(), frame, 150),
               grid::net::TimeoutError);
}

TEST(NetDeadline, BoundedReadStillDeliversPromptData) {
  SocketPair sp;
  const std::string msg = "hello";
  grid::net::writeAll(sp.b.get(), msg.data(), msg.size());
  std::string got(msg.size(), '\0');
  EXPECT_TRUE(
      grid::net::readExact(sp.a.get(), got.data(), got.size(), 1000));
  EXPECT_EQ(got, msg);
}

// ----------------------------------------------------------- cache store

TEST(CacheStore, RoundTripRecoversAppendOrder) {
  TempDir dir;
  {
    grid::CacheStore store(grid::CacheStore::Config{dir.path, 16});
    store.recover([](std::string, std::string) { FAIL(); });
    store.append("fp-one", "bytes one");
    store.append("fp-two", "bytes two");
    store.append("fp-one", "bytes one, newer");  // last-wins on replay
  }
  grid::RecoveryStats stats;
  const auto got = recoverAll(dir.path, &stats);
  EXPECT_EQ(stats.recovered, 3u);
  EXPECT_FALSE(stats.rewritten);
  EXPECT_EQ(stats.corruptSkipped, 0u);
  EXPECT_EQ(stats.tornBytes, 0u);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got.at("fp-one"), "bytes one, newer");
  EXPECT_EQ(got.at("fp-two"), "bytes two");
}

TEST(CacheStore, EveryPrefixTruncationRecoversLongestValidPrefix) {
  TempDir dir;
  const std::string salt(grid::kCodeVersionSalt);
  const std::string r1 =
      grid::CacheStore::encodeRecord("fp-a", salt, "payload alpha");
  const std::string r2 =
      grid::CacheStore::encodeRecord("fp-b", salt, "payload beta");
  const std::string r3 =
      grid::CacheStore::encodeRecord("fp-c", salt, "payload gamma");
  const std::string full = r1 + r2 + r3;
  const std::size_t b1 = r1.size();
  const std::size_t b2 = r1.size() + r2.size();

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    writeJournal(dir.path, full.substr(0, cut));
    grid::RecoveryStats stats;
    std::map<std::string, std::string> got;
    ASSERT_NO_THROW(got = recoverAll(dir.path, &stats))
        << "recovery crashed at cut " << cut;
    const std::size_t expect =
        cut >= full.size() ? 3u : (cut >= b2 ? 2u : (cut >= b1 ? 1u : 0u));
    EXPECT_EQ(got.size(), expect) << "at cut " << cut;
    EXPECT_EQ(stats.recovered, expect) << "at cut " << cut;
    const bool atBoundary =
        cut == 0 || cut == b1 || cut == b2 || cut == full.size();
    EXPECT_EQ(stats.rewritten, !atBoundary) << "at cut " << cut;
    if (!atBoundary) {
      // The rewrite already paid for the damage: a second scan of the
      // same directory must be clean.
      grid::RecoveryStats again;
      EXPECT_EQ(recoverAll(dir.path, &again).size(), expect)
          << "at cut " << cut;
      EXPECT_FALSE(again.rewritten) << "at cut " << cut;
    }
  }
}

TEST(CacheStore, BitFlipCostsExactlyOneRecord) {
  TempDir dir;
  const std::string salt(grid::kCodeVersionSalt);
  const std::string r1 =
      grid::CacheStore::encodeRecord("fp-a", salt, "payload alpha");
  const std::string r2 =
      grid::CacheStore::encodeRecord("fp-b", salt, "payload beta");
  const std::string r3 =
      grid::CacheStore::encodeRecord("fp-c", salt, "payload gamma");
  std::string bytes = r1 + r2 + r3;
  // Flip one bit inside record 2's payload: its checksum must reject it,
  // and the resync scan must carry on to record 3.
  bytes[r1.size() + r2.size() - 2] ^= 0x01;
  writeJournal(dir.path, bytes);

  grid::RecoveryStats stats;
  const auto got = recoverAll(dir.path, &stats);
  EXPECT_EQ(stats.recovered, 2u);
  EXPECT_GE(stats.corruptSkipped, 1u);
  EXPECT_TRUE(stats.rewritten);
  EXPECT_EQ(got.count("fp-a"), 1u);
  EXPECT_EQ(got.count("fp-b"), 0u);
  EXPECT_EQ(got.count("fp-c"), 1u);
}

TEST(CacheStore, StaleSaltRecordsAreDroppedNotReplayed) {
  TempDir dir;
  const std::string current(grid::kCodeVersionSalt);
  writeJournal(dir.path,
               grid::CacheStore::encodeRecord("fp-old", "stale-salt-0",
                                              "bytes from old code") +
                   grid::CacheStore::encodeRecord("fp-new", current,
                                                  "bytes from this code"));
  grid::RecoveryStats stats;
  const auto got = recoverAll(dir.path, &stats);
  EXPECT_EQ(stats.staleSalt, 1u);
  EXPECT_EQ(stats.recovered, 1u);
  EXPECT_TRUE(stats.rewritten);  // the stale record is purged on the spot
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got.at("fp-new"), "bytes from this code");
}

// ------------------------------------------------- persistent ResultCache

TEST(PersistentCache, WarmRestartServesIdenticalBytes) {
  TempDir dir;
  {
    grid::ResultCache cache(8, dir.path);
    EXPECT_TRUE(cache.persistent());
    EXPECT_EQ(cache.recoveredEntries(), 0u);
    cache.insert("fp-1", "result bytes one");
    cache.insert("fp-2", "result bytes two");
  }
  grid::ResultCache cache(8, dir.path);
  EXPECT_TRUE(cache.persistent());
  EXPECT_EQ(cache.recoveredEntries(), 2u);
  const auto one = cache.lookup("fp-1");
  const auto two = cache.lookup("fp-2");
  ASSERT_TRUE(one.has_value());
  ASSERT_TRUE(two.has_value());
  EXPECT_EQ(*one, "result bytes one");
  EXPECT_EQ(*two, "result bytes two");
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(PersistentCache, ReloadObeysLruBoundExactly) {
  TempDir dir;
  {
    grid::ResultCache cache(2, dir.path);
    for (int k = 1; k <= 5; ++k) {
      cache.insert("fp-" + std::to_string(k), "v" + std::to_string(k));
    }
    EXPECT_EQ(cache.size(), 2u);
  }
  grid::ResultCache cache(2, dir.path);
  // Replay walks the journal oldest-first, so the bound evicts exactly
  // the oldest surplus — the reloaded cache equals the pre-crash one.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.recoveredEntries(), 2u);
  EXPECT_EQ(cache.recoveryStats().recovered, 5u);
  EXPECT_EQ(cache.evictions(), 3u);
  EXPECT_FALSE(cache.lookup("fp-1").has_value());
  EXPECT_FALSE(cache.lookup("fp-2").has_value());
  EXPECT_FALSE(cache.lookup("fp-3").has_value());
  ASSERT_TRUE(cache.lookup("fp-4").has_value());
  ASSERT_TRUE(cache.lookup("fp-5").has_value());
  EXPECT_EQ(*cache.lookup("fp-4"), "v4");
  EXPECT_EQ(*cache.lookup("fp-5"), "v5");
}

TEST(PersistentCache, TornWriteLosesPersistenceNeverTheJob) {
  FaultGuard guard;
  TempDir dir;
  {
    grid::ResultCache cache(8, dir.path);
    cache.insert("fp-intact", "landed before the tear");
    grid::fault::armPlan("cache.journal:torn");
    cache.insert("fp-torn", "half of me hits the disk");
    // The job still succeeded in memory; only persistence is gone.
    EXPECT_EQ(cache.persistFailures(), 1u);
    EXPECT_FALSE(cache.persistent());
    ASSERT_TRUE(cache.lookup("fp-torn").has_value());
    EXPECT_EQ(*cache.lookup("fp-torn"), "half of me hits the disk");
  }
  grid::fault::disarm();
  grid::ResultCache cache(8, dir.path);
  // The torn record is the journal's tail: dropped, journal rewritten.
  EXPECT_EQ(cache.recoveredEntries(), 1u);
  EXPECT_GT(cache.recoveryStats().tornBytes, 0u);
  EXPECT_TRUE(cache.recoveryStats().rewritten);
  ASSERT_TRUE(cache.lookup("fp-intact").has_value());
  EXPECT_FALSE(cache.lookup("fp-torn").has_value());
}

TEST(PersistentCache, UnreadableStoreDegradesToMemoryOnly) {
  FaultGuard guard;
  TempDir dir;
  grid::fault::armPlan("cache.load:error");
  grid::ResultCache cache(8, dir.path);
  EXPECT_FALSE(cache.persistent());
  EXPECT_EQ(cache.persistFailures(), 1u);
  cache.insert("fp", "still served");
  ASSERT_TRUE(cache.lookup("fp").has_value());
}

// ------------------------------------------------------ server robustness

TEST(GridServerRobustness, StalledConnectionDroppedWhileDaemonServes) {
  const TestGrid grid = makeTestGrid();
  InProcessServer fixture("", /*connTimeoutMs=*/250);
  {
    // A client that connects and goes silent — the concurrent server
    // keeps serving around it and must cut it loose on the deadline.
    grid::net::Fd silent = grid::net::connectTo(
        grid::net::parseEndpoint(fixture.endpoint()));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    grid::GridClient client(fixture.endpoint());
    const grid::JobResult result = client.submit(grid.whole, 4);
    EXPECT_EQ(result.accumulatorText, grid.singleBytes);

    // The event loop serves other clients without waiting on the stalled
    // connection, so the submit above can finish well before the 250 ms
    // deadline: hold the silent socket open until the drop is observed.
    for (int spins = 0;
         counterOf(fixture.server(), "grid.conn.timeout") == 0 &&
         spins < 200;
         ++spins)
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_GE(counterOf(fixture.server(), "grid.conn.timeout"), 1u);
  EXPECT_GE(counterOf(fixture.server(), "grid.conn.dropped"), 1u);
  fixture.stop();
}

TEST(GridServerRobustness, ClientDeadlineFiresOnMuteServer) {
  // A listener that never accepts: the connect succeeds (backlog), the
  // submit's reply never comes, and the client's own deadline must fire.
  const std::string path = uniqueSocketPath();
  const auto ep = grid::net::parseEndpoint("unix:" + path);
  grid::net::Fd listener = grid::net::listenOn(ep, 4, nullptr);

  ShardSpec spec;
  spec.platform = "inorder-lru";
  spec.workload = "bubblesort-8";
  spec.qEnd = 1;
  spec.iEnd = 1;
  grid::ClientOptions opts;
  opts.connectTimeoutMs = 1000;
  opts.ioTimeoutMs = 200;
  grid::GridClient client("unix:" + path, opts);
  EXPECT_THROW(client.submit(spec, 1), grid::net::TimeoutError);
  ::unlink(path.c_str());
}

TEST(GridServerRobustness, InjectedEpipeOnReplyDropsOnlyThatConnection) {
  FaultGuard guard;
  const TestGrid grid = makeTestGrid();
  InProcessServer fixture;
  {
    // Global net.write hits in this process: the client's Submit is hit
    // 0 (passed by after=1), the server's reply is hit 1 — which fires.
    grid::GridClient victim(fixture.endpoint());
    grid::fault::armPlan("net.write:after=1:epipe");
    EXPECT_THROW(victim.submit(grid.whole, 4), std::runtime_error);
    grid::fault::disarm();
  }
  {
    // The job itself completed server-side before the reply died, so the
    // next client gets a byte-identical CACHE hit — no recomputation.
    grid::GridClient client(fixture.endpoint());
    const grid::JobResult result = client.submit(grid.whole, 4);
    EXPECT_TRUE(result.cacheHit);
    EXPECT_EQ(result.accumulatorText, grid.singleBytes);
  }
  EXPECT_GE(counterOf(fixture.server(), "grid.conn.dropped"), 1u);
  fixture.stop();
}

// ------------------------------------------------ worker-attach handshake

/// Spins until `name` reaches at least `least` on the server's registry.
void awaitCounter(grid::GridServer& server, const std::string& name,
                  std::uint64_t least) {
  for (int spins = 0; spins < 200; ++spins) {
    if (counterOf(server, name) >= least) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  FAIL() << "counter " << name << " never reached " << least;
}

TEST(GridServerRobustness, GarbageWorkerHelloNeverWedgesTheEventLoop) {
  FaultGuard guard;
  const TestGrid grid = makeTestGrid();
  InProcessServer fixture;

  // A dial-in whose hello payload is garbage: Error reply (best effort),
  // connection dropped, daemon alive.
  {
    auto fd = grid::net::connectTo(
        grid::net::parseEndpoint(fixture.endpoint()));
    grid::writeFrame(fd.get(), grid::Frame{grid::FrameType::WorkerHello,
                                           "not a hello at all"});
    grid::Frame reply;
    try {
      if (grid::readFrame(fd.get(), reply, 5'000))
        EXPECT_EQ(reply.type, grid::FrameType::Error);
    } catch (const std::exception&) {
      // The server may close first; the next submit is the real check.
    }
  }

  // An injected fault inside the handshake itself (worker.attach) must
  // reject that dial-in the same way — never leak into the event loop.
  grid::fault::armPlan("worker.attach:error");
  {
    grid::WorkerHelloMsg hello;
    hello.salt = std::string(grid::kCodeVersionSalt);
    hello.concurrency = 1;
    auto fd = grid::net::connectTo(
        grid::net::parseEndpoint(fixture.endpoint()));
    grid::writeFrame(fd.get(),
                     grid::Frame{grid::FrameType::WorkerHello,
                                 grid::encodeWorkerHelloMsg(hello)});
    grid::Frame reply;
    try {
      if (grid::readFrame(fd.get(), reply, 5'000))
        EXPECT_EQ(reply.type, grid::FrameType::Error);
    } catch (const std::exception&) {
    }
  }
  grid::fault::disarm();

  grid::GridClient client(fixture.endpoint());
  EXPECT_EQ(client.submit(grid.whole, 3).accumulatorText, grid.singleBytes);
  EXPECT_GE(counterOf(fixture.server(), "grid.bad_frames"), 2u);
  EXPECT_EQ(counterOf(fixture.server(), "grid.worker.attached"), 0u);
  fixture.stop();
}

TEST(GridServerRobustness, WrongSaltAttachIsRejectedAndCounted) {
  const TestGrid grid = makeTestGrid();
  InProcessServer fixture;

  grid::AttachOptions opts;
  opts.salt = "stale-build-salt";
  try {
    grid::runAttachWorker(fixture.endpoint(), study::gridShardEvaluator(),
                          opts);
    FAIL() << "mismatched salt must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("salt mismatch"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(counterOf(fixture.server(), "grid.worker.rejected_salt"), 1u);
  EXPECT_EQ(counterOf(fixture.server(), "grid.worker.attached"), 0u);

  // A worker built from different code never got near the queue; jobs
  // still run on the fixed slots.
  grid::GridClient client(fixture.endpoint());
  EXPECT_EQ(client.submit(grid.whole, 3).accumulatorText, grid.singleBytes);
  fixture.stop();
}

TEST(GridServerRobustness, HalfOpenDialInIsDroppedOnDeadline) {
  const TestGrid grid = makeTestGrid();
  InProcessServer fixture("", /*connTimeoutMs=*/250, 64,
                          /*workerListen=*/true);
  {
    // Connects to the WORKER endpoint and never says hello — the shape a
    // crashed remote worker leaves behind.  The idle-connection deadline
    // must reap it while the daemon serves normally.
    grid::net::Fd halfOpen = grid::net::connectTo(
        grid::net::parseEndpoint(fixture.workerEndpoint()));

    grid::GridClient client(fixture.endpoint());
    EXPECT_EQ(client.submit(grid.whole, 3).accumulatorText,
              grid.singleBytes);
    awaitCounter(fixture.server(), "grid.conn.timeout", 1);
  }
  EXPECT_GE(counterOf(fixture.server(), "grid.conn.dropped"), 1u);
  EXPECT_EQ(counterOf(fixture.server(), "grid.worker.attached"), 0u);
  fixture.stop();
}

TEST(GridServerRobustness, InjectedWorkerFrameFaultKillsChannelNotJob) {
  FaultGuard guard;
  const TestGrid grid = makeTestGrid();
  InProcessServer fixture;

  // A healthy attached worker whose server-side frame write is about to
  // fail (worker.frame models EPIPE/RST on the worker socket): the
  // channel dies, the lease requeues onto the fixed slots, the job ends
  // byte-identical.
  std::thread worker([&] {
    try {
      grid::runAttachWorker(fixture.endpoint(),
                            study::gridShardEvaluator(), {});
    } catch (const std::exception& e) {
      ADD_FAILURE() << "attach worker: " << e.what();
    }
  });
  awaitCounter(fixture.server(), "grid.worker.attached", 1);

  grid::fault::armPlan("worker.frame:error");
  grid::GridClient client(fixture.endpoint());
  const grid::JobResult result = client.submit(grid.whole, 8);
  EXPECT_EQ(result.accumulatorText, grid.singleBytes);
  grid::fault::disarm();

  worker.join();  // the dead channel's socket closed: clean EOF exit
  EXPECT_GE(counterOf(fixture.server(), "grid.worker.deaths"), 1u);
  fixture.stop();
}

TEST(GridServerRobustness, RestartWithCacheDirServesHitFromDisk) {
  const TestGrid grid = makeTestGrid();
  TempDir dir;
  {
    InProcessServer first(dir.path);
    grid::GridClient client(first.endpoint());
    const grid::JobResult cold = client.submit(grid.whole, 4);
    EXPECT_FALSE(cold.cacheHit);
    EXPECT_EQ(cold.accumulatorText, grid.singleBytes);
  }  // server gone; only the journal under dir survives
  InProcessServer second(dir.path);
  EXPECT_EQ(counterOf(second.server(), "grid.cache.recovered"), 1u);
  {
    grid::GridClient client(second.endpoint());
    const grid::JobResult warm = client.submit(grid.whole, 4);
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.accumulatorText, grid.singleBytes);
    const obs::RunReport report = client.stats();
    EXPECT_EQ(report.counters.at("grid.cache.recovered"), 1u);
    EXPECT_EQ(report.counters.at("grid.cache.persist_errors"), 0u);
  }
  second.stop();
}

// ------------------------------------------------------- spawned workers

/// Two fixed slots spawned as `COMMAND attach fd:N` children of `command`
/// (the built pred-shard-worker by default), so the real worker binary
/// speaks the attach dialect over a socketpair.
grid::ServerConfig spawnedConfig(
    std::vector<std::string> command = {PRED_SHARD_WORKER}) {
  grid::ServerConfig cfg;
  cfg.scheduler.workers = 2;
  cfg.scheduler.retryBackoffMs = 1;
  cfg.scheduler.workerCommand = std::move(command);
  return cfg;
}

TEST(SpawnedWorkers, JobIsByteIdenticalAndStatsNameTheChildren) {
  const TestGrid grid = makeTestGrid();
  InProcessServer fixture(spawnedConfig());
  {
    grid::GridClient client(fixture.endpoint());
    EXPECT_EQ(client.submit(grid.whole, 5).accumulatorText,
              grid.singleBytes);
    // Spawned children are socket channels whose peer names the pid, so
    // stats tells them apart from dialed-in workers.
    const obs::RunReport stats = client.stats();
    std::size_t spawnedRows = 0;
    for (const auto& [name, value] : stats.counters)
      if (name.find(".socket.spawn:pid=") != std::string::npos)
        ++spawnedRows;
    EXPECT_EQ(spawnedRows, 2u);
    EXPECT_EQ(stats.counters.at("grid.worker.spawns"), 2u);
    EXPECT_EQ(stats.counters.at("grid.worker.deaths"), 0u);
    EXPECT_EQ(stats.counters.at("grid.worker.attached"), 0u);
  }
  fixture.stop();
}

TEST(SpawnedWorkers, WrongSaltChildIsRejectedAndItsSlotRespawnsClean) {
  const TestGrid grid = makeTestGrid();
  grid::ServerConfig cfg = spawnedConfig();
  cfg.scheduler.firstWorkerExtraArgs = {"--salt", "bogus"};
  InProcessServer fixture(std::move(cfg));
  // Slot 0's first child fails the same salt check a dialed-in worker
  // faces; its death respawns the slot without the bogus salt.
  awaitCounter(fixture.server(), "grid.worker.spawns", 3);
  {
    grid::GridClient client(fixture.endpoint());
    EXPECT_EQ(client.submit(grid.whole, 5).accumulatorText,
              grid.singleBytes);
  }
  EXPECT_EQ(counterOf(fixture.server(), "grid.worker.rejected_salt"), 1u);
  EXPECT_GE(counterOf(fixture.server(), "grid.worker.deaths"), 1u);
  EXPECT_EQ(counterOf(fixture.server(), "grid.worker.attached"), 0u);
  fixture.stop();
}

TEST(SpawnedWorkers, ChildThatExitsAtOnceRetiresItsSlotAndFailsTheJob) {
  const TestGrid grid = makeTestGrid();
  grid::ServerConfig cfg = spawnedConfig({"/bin/false"});
  cfg.scheduler.maxSpawnsPerSlot = 2;
  InProcessServer fixture(std::move(cfg));
  {
    grid::GridClient client(fixture.endpoint());
    try {
      client.submit(grid.whole, 3);
      FAIL() << "a fleet whose every slot is retired must fail the job";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("exhausted"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(counterOf(fixture.server(), "grid.worker.spawns"), 4u);
  EXPECT_EQ(counterOf(fixture.server(), "grid.worker.deaths"), 4u);
  fixture.stop();
}

TEST(SpawnedWorkers, ShutdownLeavesNoChildBehind) {
  const TestGrid grid = makeTestGrid();
  grid::ServerConfig cfg = spawnedConfig();
  cfg.scheduler.firstWorkerExtraArgs = {"--exit-after", "0"};
  InProcessServer fixture(std::move(cfg));
  {
    grid::GridClient client(fixture.endpoint());
    EXPECT_EQ(client.submit(grid.whole, 5).accumulatorText,
              grid.singleBytes);
  }
  EXPECT_GE(counterOf(fixture.server(), "grid.worker.deaths"), 1u);
  fixture.stop();
  // Dead and live children alike were reaped: none is running, none is a
  // zombie.
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

}  // namespace
}  // namespace pred
