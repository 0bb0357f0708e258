#pragma once
// worker_channel.h — The transport seam between the shard queue and the
// workers that evaluate shards.
//
// A WorkerChannel is ONE worker the scheduler can dispatch to, whatever
// its transport.  The contract is small and event-driven so a single
// poll() loop (scheduler drive loop or GridServer event loop) can
// multiplex any mix of them:
//
//   dispatch(token, spec)  hand the worker a shard under a lease token
//   pollFd()               the fd to poll for results/liveness
//   drain()                consume readable bytes, yield ChannelEvents
//   shutdown()/kill()      graceful / immediate stop
//
// Two transports implement it:
//
//   SocketChannel  a worker speaking the attach dialect (protocol.h):
//                  WorkerHello/WorkerWelcome, then ShardAssign/ShardDone
//                  with lease ids, so `concurrency` shards ride in flight
//                  and complete out of order.  Either the worker DIALED IN
//                  over tcp/unix and the server adopted its handshook fd,
//                  or the fleet SPAWNED it as a `pred-shard-worker attach`
//                  child on a socketpair, in which case the hello arrives
//                  through drain() and the channel owns the child's pid.
//                  Death is EOF/POLLHUP/write-EPIPE — a kill -9'd worker
//                  is indistinguishable from a vanished one, and its
//                  leases are requeued.
//   LocalChannel   an in-process evaluator thread (the --in-process
//                  mode); a self-pipe makes completions poll()-able so
//                  local evaluation multiplexes like any other channel.
//                  A throwing evaluator is a failed attempt, never a
//                  death — local channels are immortal.
//
// A WorkerFleet owns a set of channels and the policies around them:
// fixed slots (spawned children with a bounded respawn budget, local
// threads) plus dynamically adopted dialed-in workers, shard dispatch
// from a ShardQueue, per-shard wall-time deadlines, heartbeat staleness
// for idle dialed-in workers, and the grid.worker.* counters.

#include <poll.h>
#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exp/shard.h"
#include "grid/net.h"
#include "grid/scheduler.h"

namespace pred::grid {

/// One thing a channel has to tell the driver after a drain: a shard
/// completed, a shard attempt failed (worker stays healthy), or the
/// channel itself died (the driver requeues every lease it still holds).
struct ChannelEvent {
  enum class Kind { Done, Failed, Died };
  Kind kind = Kind::Died;
  std::uint64_t token = 0;           ///< lease token (Done / Failed)
  std::optional<ShardOutput> output; ///< engaged on Done only
  std::string why;                   ///< Failed / Died
};

class WorkerChannel {
 public:
  using Clock = std::chrono::steady_clock;

  virtual ~WorkerChannel() = default;

  virtual const char* kindName() const = 0;  ///< "socket" | "local"
  virtual const std::string& peer() const = 0;
  virtual int pollFd() const = 0;
  virtual bool alive() const = 0;
  /// Shards this worker runs concurrently (1 for local).
  virtual std::size_t capacity() const { return 1; }
  /// A spawned worker whose WorkerHello has not been checked yet; it
  /// takes no lease until then.
  virtual bool awaitingHello() const { return false; }
  /// Local channels turn transport-layer dispatch faults into failed
  /// attempts instead of channel deaths (there is no transport to kill).
  virtual bool isLocal() const { return false; }

  /// Hands the worker one shard under `token`.  Throws on transport
  /// failure (EPIPE to a corpse); the caller then kills the channel.
  virtual void dispatch(std::uint64_t token, const exp::ShardSpec& spec) = 0;
  /// Consumes readable bytes from pollFd() and returns what happened.
  virtual std::vector<ChannelEvent> drain() = 0;
  /// POLLHUP/POLLERR without readable data.
  virtual std::vector<ChannelEvent> hangup() = 0;
  /// Graceful stop (Shutdown frame, grace period).  Never throws.
  virtual void shutdown() = 0;
  /// Immediate stop (SIGKILL / close).  Never throws.
  virtual void kill() = 0;

  std::size_t inFlightCount() const { return inFlight_.size(); }
  /// Removes and returns every lease still in flight — the death path.
  std::vector<std::uint64_t> takeInFlightTokens();
  /// Dispatch time of the oldest in-flight lease (shard-deadline input).
  std::optional<Clock::time_point> oldestDispatchTime() const;
  /// Last time the worker was heard from (heartbeat-staleness input).
  Clock::time_point lastHeard() const { return lastHeard_; }
  std::uint64_t completedCount() const { return completedCount_; }

 protected:
  struct InFlight {
    std::uint64_t token;
    Clock::time_point since;
  };

  void noteDispatched(std::uint64_t token);
  /// Clears `token` from the in-flight set; false when it was not held
  /// (a worker answering a lease it does not hold — protocol violation).
  bool noteSettled(std::uint64_t token);

  std::vector<InFlight> inFlight_;
  std::uint64_t completedCount_ = 0;
  Clock::time_point lastHeard_ = Clock::now();
};

/// What the WorkerHello check decided.  Welcome carries the announced
/// concurrency; every other kind carries the reason.
struct HelloVerdict {
  enum class Kind { Welcome, Malformed, WrongSalt, Unreachable };
  Kind kind = Kind::Malformed;
  std::size_t concurrency = 0;
  std::string why;
};

/// The one worker handshake, for dialed-in and spawned workers alike:
/// parses the WorkerHello `payload`, checks its salt against this build's
/// kCodeVersionSalt (fingerprint.h), and answers WorkerWelcome or Error
/// on `fd` (best effort; a failed Welcome write is Unreachable).  A wrong
/// salt ticks grid.worker.rejected_salt in `metrics` when set.
HelloVerdict answerWorkerHello(int fd, const std::string& payload,
                               int timeoutMs,
                               obs::MetricsRegistry* metrics);

/// A worker speaking the attach dialect: ShardAssign frames out,
/// ShardDone / Heartbeat frames back, `concurrency` leases in flight.
class SocketChannel final : public WorkerChannel {
 public:
  /// Adopts a dialed-in worker that already handshook.  `pendingBytes`
  /// carries anything read past its WorkerHello frame (an eager worker may
  /// pipeline a heartbeat).
  SocketChannel(net::Fd fd, std::string peer, std::size_t concurrency,
                std::string pendingBytes = {});
  /// Forks and execs `command` + {"attach", "fd:N"} + `extraArgs`, where
  /// N is the child's end of a fresh socketpair.  The child's WorkerHello
  /// arrives through drain() and is checked there; the channel owns the
  /// pid (kill() SIGKILLs and reaps, shutdown() reaps after a grace
  /// period).  Throws std::runtime_error on socketpair/fork failure.
  static std::unique_ptr<SocketChannel> spawn(
      const std::vector<std::string>& command,
      const std::vector<std::string>& extraArgs,
      obs::MetricsRegistry* metrics);
  ~SocketChannel() override;

  const char* kindName() const override { return "socket"; }
  const std::string& peer() const override { return peer_; }
  int pollFd() const override { return fd_.get(); }
  bool alive() const override { return alive_; }
  std::size_t capacity() const override {
    return awaitingHello_ ? 0 : concurrency_;
  }
  bool awaitingHello() const override { return awaitingHello_; }

  void dispatch(std::uint64_t token, const exp::ShardSpec& spec) override;
  std::vector<ChannelEvent> drain() override;
  std::vector<ChannelEvent> hangup() override;
  void shutdown() override;
  void kill() override;

 private:
  std::vector<ChannelEvent> die(const std::string& why);
  /// SIGKILLs and reaps a spawned child (no-op for dialed-in workers).
  void reap();

  net::Fd fd_;
  std::string peer_;
  std::size_t concurrency_ = 1;
  std::string buf_;
  std::size_t off_ = 0;
  bool alive_ = true;
  pid_t pid_ = -1;  ///< spawned child, -1 for a dialed-in worker
  bool awaitingHello_ = false;
  obs::MetricsRegistry* metrics_ = nullptr;  ///< spawned: salt rejections
};

/// An in-process evaluator thread behind the same seam: dispatch mails
/// the shard to the thread, completion writes one byte to a self-pipe so
/// the driver's poll() wakes, drain() collects the results.
class LocalChannel final : public WorkerChannel {
 public:
  LocalChannel(ShardEvalFn eval, int index);
  ~LocalChannel() override;

  const char* kindName() const override { return "local"; }
  const std::string& peer() const override { return peer_; }
  int pollFd() const override { return signalRead_.get(); }
  bool alive() const override { return !stopped_; }
  bool isLocal() const override { return true; }

  void dispatch(std::uint64_t token, const exp::ShardSpec& spec) override;
  std::vector<ChannelEvent> drain() override;
  std::vector<ChannelEvent> hangup() override;
  void shutdown() override;
  void kill() override;

 private:
  struct Task {
    std::uint64_t token;
    exp::ShardSpec spec;
  };
  struct Outcome {
    std::uint64_t token = 0;
    std::optional<ShardOutput> output;  ///< engaged on success
    std::string why;
  };

  void stop();

  ShardEvalFn eval_;
  std::string peer_;
  net::Fd signalRead_, signalWrite_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> tasks_;
  std::deque<Outcome> outcomes_;
  bool quitting_ = false;
  bool stopped_ = false;
  std::thread worker_;
};

struct FleetConfig {
  /// Fixed subprocess slots (respawned on death up to maxSpawnsPerSlot).
  int spawnSlots = 0;
  /// Fixed in-process evaluator threads (immortal).
  int localSlots = 0;
  /// Evaluator for local slots; required when localSlots > 0.
  ShardEvalFn eval;
  /// argv prefix for spawned slots; "attach fd:N" is appended.
  std::vector<std::string> workerCommand;
  /// Extra argv appended to slot 0's FIRST spawn only (fault injection).
  std::vector<std::string> firstWorkerExtraArgs;
  int maxSpawnsPerSlot = 4;
  /// Per-shard wall-time budget; a channel that exceeds it is killed and
  /// its leases requeued.  0 disables.
  std::uint64_t shardTimeoutMs = 0;
  /// Staleness bound for IDLE dialed-in workers: one that has not
  /// been heard from (heartbeats count) within this window is treated as
  /// half-open and dropped.  0 disables.
  std::uint64_t idleWorkerTimeoutMs = 0;
  /// When set, grid.worker.spawns / .deaths land here.
  obs::MetricsRegistry* metrics = nullptr;
};

/// The channel set one driver loop multiplexes, with the policies around
/// it: dispatch from a ShardQueue, death -> requeue leases + respawn
/// (spawned slot) or remove (dialed-in), deadlines, and provenance for
/// stats.
class WorkerFleet {
 public:
  using Clock = WorkerChannel::Clock;

  explicit WorkerFleet(FleetConfig cfg);
  ~WorkerFleet();

  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  /// Adopts a handshook dialed-in worker into the fleet.
  void adopt(std::unique_ptr<WorkerChannel> ch);

  std::size_t aliveCount() const;
  std::size_t attachedCount() const;
  /// True when the fleet was configured with fixed slots and every one
  /// of them is retired/dead with no attached worker left — no dispatch
  /// can ever succeed again unless a new worker attaches.
  bool exhausted() const;
  std::uint64_t deaths() const { return deaths_; }
  /// Whether `ch` is still a live member (poll dispatch guards with this
  /// because an earlier fd's death handling may have destroyed it).
  bool owns(const WorkerChannel* ch) const;

  /// Fills every channel's spare capacity from the queue.
  void dispatch(ShardQueue& queue);
  /// Appends one pollfd per live channel; `chans` maps them back.
  void appendPollFds(std::vector<pollfd>& fds,
                     std::vector<WorkerChannel*>& chans);
  void onReadable(WorkerChannel* ch, ShardQueue& queue);
  void onHangup(WorkerChannel* ch, ShardQueue& queue);
  /// Enforces shard deadlines and idle-worker staleness.
  void checkDeadlines(ShardQueue& queue);
  /// Earliest pending deadline (poll-timeout input).
  std::optional<Clock::time_point> nextDeadline() const;

  void shutdownAll();
  void killAll();

  /// Who is doing the work: one row per live channel.
  struct Provenance {
    std::string kind;
    std::string peer;
    std::uint64_t completed = 0;
  };
  std::vector<Provenance> provenance() const;

 private:
  struct Slot {
    std::unique_ptr<WorkerChannel> ch;
    int spawns = 0;
  };

  void spawnSlot(Slot& slot, bool firstSpawnOfSlot0);
  void handleEvents(WorkerChannel* ch, std::vector<ChannelEvent> events,
                    ShardQueue& queue);
  void channelDied(WorkerChannel* ch, const std::string& why,
                   ShardQueue& queue);
  template <typename Fn>
  void forEachChannel(Fn&& fn) const;

  FleetConfig cfg_;
  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<WorkerChannel>> attached_;
  std::uint64_t deaths_ = 0;
};

}  // namespace pred::grid
