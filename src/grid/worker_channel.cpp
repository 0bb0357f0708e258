#include "grid/worker_channel.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "grid/faultpoint.h"
#include "grid/fingerprint.h"
#include "grid/protocol.h"

namespace pred::grid {

namespace {

void setCloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

/// How long a spawned child may take to send its WorkerHello (the same
/// budget a dialing worker gives the whole handshake).
constexpr std::chrono::milliseconds kHelloTimeout{10'000};

/// Appends decoded-frame bookkeeping: once the decode offset trails a
/// megabyte of consumed bytes, compact the buffer.
void compactBuffer(std::string& buf, std::size_t& off) {
  if (off == buf.size()) {
    buf.clear();
    off = 0;
  } else if (off > (std::size_t{1} << 20)) {
    buf.erase(0, off);
    off = 0;
  }
}

}  // namespace

// ---------------------------------------------------------- WorkerChannel

std::vector<std::uint64_t> WorkerChannel::takeInFlightTokens() {
  std::vector<std::uint64_t> tokens;
  tokens.reserve(inFlight_.size());
  for (const InFlight& f : inFlight_) tokens.push_back(f.token);
  inFlight_.clear();
  return tokens;
}

std::optional<WorkerChannel::Clock::time_point>
WorkerChannel::oldestDispatchTime() const {
  std::optional<Clock::time_point> t;
  for (const InFlight& f : inFlight_)
    if (!t || f.since < *t) t = f.since;
  return t;
}

void WorkerChannel::noteDispatched(std::uint64_t token) {
  inFlight_.push_back({token, Clock::now()});
}

bool WorkerChannel::noteSettled(std::uint64_t token) {
  for (std::size_t k = 0; k < inFlight_.size(); ++k) {
    if (inFlight_[k].token == token) {
      inFlight_.erase(inFlight_.begin() + static_cast<std::ptrdiff_t>(k));
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------- SocketChannel

HelloVerdict answerWorkerHello(int fd, const std::string& payload,
                               int timeoutMs,
                               obs::MetricsRegistry* metrics) {
  HelloVerdict v;
  WorkerHelloMsg hello;
  try {
    fault::check("worker.attach");
    hello = parseWorkerHelloMsg(payload);
  } catch (const std::exception& e) {
    v.why = e.what();
    tryWriteFrame(fd, Frame{FrameType::Error, v.why}, timeoutMs);
    return v;
  }
  if (hello.salt != kCodeVersionSalt) {
    // A worker built from different code must never evaluate shards:
    // byte-identity across the fleet is the whole contract.
    v.kind = HelloVerdict::Kind::WrongSalt;
    v.why = "grid server: code-version salt mismatch (server " +
            std::string(kCodeVersionSalt) + ", worker " + hello.salt + ")";
    if (metrics) metrics->counter("grid.worker.rejected_salt").add();
    tryWriteFrame(fd, Frame{FrameType::Error, v.why}, timeoutMs);
    return v;
  }
  if (tryWriteFrame(fd, Frame{FrameType::WorkerWelcome, ""}, timeoutMs) !=
      WriteStatus::Ok) {
    v.kind = HelloVerdict::Kind::Unreachable;
    v.why = "worker vanished before its WorkerWelcome";
    return v;
  }
  v.kind = HelloVerdict::Kind::Welcome;
  v.concurrency = hello.concurrency;
  return v;
}

SocketChannel::SocketChannel(net::Fd fd, std::string peer,
                             std::size_t concurrency,
                             std::string pendingBytes)
    : fd_(std::move(fd)),
      peer_(std::move(peer)),
      concurrency_(concurrency == 0 ? 1 : concurrency),
      buf_(std::move(pendingBytes)) {}

std::unique_ptr<SocketChannel> SocketChannel::spawn(
    const std::vector<std::string>& command,
    const std::vector<std::string>& extraArgs,
    obs::MetricsRegistry* metrics) {
  net::ignoreSigpipe();
  int sv[2];
  // Both ends close-on-exec, so no other child ever inherits them (a
  // stray copy of a child's end would defeat EOF-based death detection).
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
    throw std::runtime_error(std::string("grid worker: socketpair: ") +
                             std::strerror(errno));
  net::Fd parentEnd(sv[0]);
  net::Fd childEnd(sv[1]);
  std::vector<std::string> args = command;
  args.push_back("attach");
  args.push_back("fd:" + std::to_string(childEnd.get()));
  args.insert(args.end(), extraArgs.begin(), extraArgs.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0)
    throw std::runtime_error(std::string("grid worker: fork: ") +
                             std::strerror(errno));
  if (pid == 0) {
    // Only the child's own end survives the exec.
    ::fcntl(childEnd.get(), F_SETFD, 0);
    ::execvp(argv[0], argv.data());
    ::perror("pred-grid worker exec");  // stderr is still the parent's
    ::_exit(127);
  }
  std::unique_ptr<SocketChannel> ch(new SocketChannel(
      std::move(parentEnd),
      "spawn:pid=" + std::to_string(static_cast<long>(pid)), 1));
  ch->pid_ = pid;
  ch->awaitingHello_ = true;
  ch->metrics_ = metrics;
  return ch;
}

SocketChannel::~SocketChannel() { kill(); }

std::vector<ChannelEvent> SocketChannel::die(const std::string& why) {
  alive_ = false;
  fd_.reset();
  ChannelEvent ev;
  ev.kind = ChannelEvent::Kind::Died;
  ev.why = why;
  return {std::move(ev)};
}

void SocketChannel::reap() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);  // no-op if already exited
  while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

void SocketChannel::dispatch(std::uint64_t token,
                             const exp::ShardSpec& spec) {
  fault::check("worker.frame");
  ShardAssignMsg msg;
  msg.id = token;
  msg.spec = spec;
  writeFrame(fd_.get(),
             Frame{FrameType::ShardAssign, encodeShardAssignMsg(msg)});
  noteDispatched(token);
}

std::vector<ChannelEvent> SocketChannel::drain() {
  char chunk[65536];
  const ssize_t r = ::read(fd_.get(), chunk, sizeof chunk);
  if (r < 0) {
    if (errno == EINTR || errno == EAGAIN) return {};
    return die(std::string("worker read error: ") + std::strerror(errno));
  }
  if (r == 0) return die("worker closed its socket (EOF)");
  lastHeard_ = Clock::now();
  buf_.append(chunk, static_cast<std::size_t>(r));
  std::vector<ChannelEvent> events;
  try {
    fault::check("worker.frame");
    while (std::optional<Frame> f = decodeFrame(buf_, off_)) {
      if (awaitingHello_) {
        if (f->type != FrameType::WorkerHello)
          throw std::invalid_argument("spawned worker skipped its hello");
        const HelloVerdict v = answerWorkerHello(
            fd_.get(), f->payload, /*timeoutMs=*/1000, metrics_);
        if (v.kind != HelloVerdict::Kind::Welcome)
          throw std::invalid_argument(v.why);
        concurrency_ = v.concurrency;
        awaitingHello_ = false;
        continue;
      }
      if (f->type == FrameType::Heartbeat) continue;  // liveness only
      if (f->type == FrameType::ShardDone) {
        ShardDoneMsg msg = parseShardDoneMsg(f->payload);
        if (!noteSettled(msg.id))
          throw std::invalid_argument(
              "worker answered a lease it does not hold");
        ChannelEvent ev;
        ev.token = msg.id;
        if (msg.ok) {
          ev.kind = ChannelEvent::Kind::Done;
          ev.output =
              ShardOutput{core::StreamingMeasures::deserialize(
                              msg.accumulatorText),
                          obs::RunReport::deserialize(msg.reportText)};
          ++completedCount_;
        } else {
          ev.kind = ChannelEvent::Kind::Failed;
          ev.why = "worker error: " + msg.errorText;
        }
        events.push_back(std::move(ev));
      } else if (f->type == FrameType::Error) {
        throw std::invalid_argument("worker reported: " + f->payload);
      } else {
        throw std::invalid_argument("unexpected frame type from worker");
      }
    }
    compactBuffer(buf_, off_);
  } catch (const std::exception& e) {
    std::vector<ChannelEvent> death =
        die(std::string("worker protocol violation: ") + e.what());
    events.push_back(std::move(death.front()));
  }
  return events;
}

std::vector<ChannelEvent> SocketChannel::hangup() {
  return die("worker hung up");
}

void SocketChannel::shutdown() {
  if (alive_)
    tryWriteFrame(fd_.get(), Frame{FrameType::Shutdown, ""},
                  /*timeoutMs=*/1000);
  alive_ = false;
  fd_.reset();
  // A spawned child exits on Shutdown or EOF; give it ~2 s to do so.
  for (int spin = 0; pid_ > 0 && spin < 200; ++spin) {
    const pid_t r = ::waitpid(pid_, nullptr, WNOHANG);
    if (r == pid_ || (r < 0 && errno != EINTR)) pid_ = -1;
    else ::usleep(10'000);
  }
  reap();
}

void SocketChannel::kill() {
  alive_ = false;
  fd_.reset();
  reap();
}

// ----------------------------------------------------------- LocalChannel

LocalChannel::LocalChannel(ShardEvalFn eval, int index)
    : eval_(std::move(eval)),
      peer_("local:thread-" + std::to_string(index)) {
  if (!eval_)
    throw std::invalid_argument("grid worker: null local evaluator");
  int sig[2];
  if (::pipe(sig) != 0)
    throw std::runtime_error(std::string("grid worker: pipe: ") +
                             std::strerror(errno));
  setCloexec(sig[0]);
  setCloexec(sig[1]);
  // Non-blocking read end: drain() slurps whatever wakeup bytes are
  // pending and must not block when they land on a read-size boundary.
  ::fcntl(sig[0], F_SETFL, O_NONBLOCK);
  signalRead_.reset(sig[0]);
  signalWrite_.reset(sig[1]);
  worker_ = std::thread([this] {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [this] { return quitting_ || !tasks_.empty(); });
      if (quitting_) return;
      Task task = std::move(tasks_.front());
      tasks_.pop_front();
      lk.unlock();
      Outcome oc;
      oc.token = task.token;
      try {
        oc.output.emplace(eval_(task.spec));
      } catch (const std::exception& e) {
        oc.why = e.what();
      }
      lk.lock();
      outcomes_.push_back(std::move(oc));
      // Self-pipe wakeup: one byte per outcome.  Deliberately a raw
      // write — net::writeAll would hit the net.write fault point and
      // inject transport faults into an in-process evaluation.
      const char b = 1;
      while (::write(signalWrite_.get(), &b, 1) < 0 && errno == EINTR) {
      }
    }
  });
}

LocalChannel::~LocalChannel() { stop(); }

void LocalChannel::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return;
    quitting_ = true;
    stopped_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void LocalChannel::dispatch(std::uint64_t token,
                            const exp::ShardSpec& spec) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    tasks_.push_back(Task{token, spec});
  }
  cv_.notify_all();
  noteDispatched(token);
}

std::vector<ChannelEvent> LocalChannel::drain() {
  char sink[256];
  while (::read(signalRead_.get(), sink, sizeof sink) > 0) {
  }
  std::deque<Outcome> ready;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ready.swap(outcomes_);
  }
  std::vector<ChannelEvent> events;
  for (Outcome& oc : ready) {
    ChannelEvent ev;
    ev.token = oc.token;
    if (oc.output) {
      ev.kind = ChannelEvent::Kind::Done;
      ev.output = std::move(oc.output);
      ++completedCount_;
    } else {
      ev.kind = ChannelEvent::Kind::Failed;
      ev.why = std::move(oc.why);
    }
    noteSettled(oc.token);
    events.push_back(std::move(ev));
  }
  return events;
}

std::vector<ChannelEvent> LocalChannel::hangup() { return {}; }

void LocalChannel::shutdown() { stop(); }

void LocalChannel::kill() { stop(); }

// ------------------------------------------------------------ WorkerFleet

WorkerFleet::WorkerFleet(FleetConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.maxSpawnsPerSlot < 1) cfg_.maxSpawnsPerSlot = 1;
  if (cfg_.spawnSlots > 0 && cfg_.workerCommand.empty())
    throw std::invalid_argument(
        "grid fleet: spawned slots need a worker command");
  if (cfg_.localSlots > 0 && !cfg_.eval)
    throw std::invalid_argument(
        "grid fleet: local slots need an evaluator");
  slots_.resize(static_cast<std::size_t>(
      (cfg_.spawnSlots > 0 ? cfg_.spawnSlots : 0) +
      (cfg_.localSlots > 0 ? cfg_.localSlots : 0)));
  std::size_t s = 0;
  for (int k = 0; k < cfg_.spawnSlots; ++k, ++s)
    spawnSlot(slots_[s], /*firstSpawnOfSlot0=*/k == 0);
  for (int k = 0; k < cfg_.localSlots; ++k, ++s)
    slots_[s].ch = std::make_unique<LocalChannel>(cfg_.eval, k);
}

WorkerFleet::~WorkerFleet() { killAll(); }

void WorkerFleet::spawnSlot(Slot& slot, bool firstSpawnOfSlot0) {
  static const std::vector<std::string> kNoExtraArgs;
  slot.ch = SocketChannel::spawn(
      cfg_.workerCommand,
      firstSpawnOfSlot0 && slot.spawns == 0 ? cfg_.firstWorkerExtraArgs
                                            : kNoExtraArgs,
      cfg_.metrics);
  ++slot.spawns;
  if (cfg_.metrics) cfg_.metrics->counter("grid.worker.spawns").add();
}

void WorkerFleet::adopt(std::unique_ptr<WorkerChannel> ch) {
  attached_.push_back(std::move(ch));
}

template <typename Fn>
void WorkerFleet::forEachChannel(Fn&& fn) const {
  for (const Slot& slot : slots_)
    if (slot.ch) fn(slot.ch.get());
  for (const auto& ch : attached_) fn(ch.get());
}

std::size_t WorkerFleet::aliveCount() const {
  std::size_t n = 0;
  forEachChannel([&](WorkerChannel* ch) { n += ch->alive() ? 1 : 0; });
  return n;
}

std::size_t WorkerFleet::attachedCount() const {
  std::size_t n = 0;
  for (const auto& ch : attached_) n += ch->alive() ? 1 : 0;
  return n;
}

bool WorkerFleet::exhausted() const {
  return !slots_.empty() && aliveCount() == 0;
}

bool WorkerFleet::owns(const WorkerChannel* target) const {
  bool found = false;
  forEachChannel([&](WorkerChannel* ch) { found = found || ch == target; });
  return found;
}

void WorkerFleet::channelDied(WorkerChannel* ch, const std::string& why,
                              ShardQueue& queue) {
  for (const std::uint64_t token : ch->takeInFlightTokens())
    queue.failed(token, why);
  ++deaths_;
  if (cfg_.metrics) cfg_.metrics->counter("grid.worker.deaths").add();
  for (Slot& slot : slots_) {
    if (slot.ch.get() != ch) continue;
    slot.ch->kill();
    if (slot.spawns > 0 && slot.spawns < cfg_.maxSpawnsPerSlot)
      spawnSlot(slot, /*firstSpawnOfSlot0=*/false);
    else if (slot.spawns > 0)
      slot.ch.reset();  // retired slot (spawn budget exhausted)
    return;
  }
  for (std::size_t k = 0; k < attached_.size(); ++k) {
    if (attached_[k].get() != ch) continue;
    attached_[k]->kill();
    attached_.erase(attached_.begin() + static_cast<std::ptrdiff_t>(k));
    return;
  }
}

void WorkerFleet::handleEvents(WorkerChannel* ch,
                               std::vector<ChannelEvent> events,
                               ShardQueue& queue) {
  for (ChannelEvent& ev : events) {
    switch (ev.kind) {
      case ChannelEvent::Kind::Done:
        queue.completed(ev.token, std::move(*ev.output));
        break;
      case ChannelEvent::Kind::Failed:
        queue.failed(ev.token, ev.why);
        break;
      case ChannelEvent::Kind::Died:
        channelDied(ch, ev.why, queue);
        return;  // the channel object may be gone now
    }
  }
}

void WorkerFleet::dispatch(ShardQueue& queue) {
  // Fixed slots first, attached workers after — deterministic assignment
  // order, one steal per free capacity unit.
  const std::size_t nSlots = slots_.size();
  for (std::size_t s = 0; s < nSlots + attached_.size(); ++s) {
    WorkerChannel* ch = s < nSlots ? slots_[s].ch.get()
                                   : attached_[s - nSlots].get();
    if (!ch || !ch->alive()) continue;
    while (ch->alive() && ch->inFlightCount() < ch->capacity()) {
      std::optional<ShardQueue::Lease> lease = queue.steal(
          WorkerChannel::Clock::now());
      if (!lease) return;  // nothing eligible for anyone right now
      try {
        fault::check("sched.dispatch");
        ch->dispatch(lease->token, *lease->spec);
      } catch (const std::exception& e) {
        if (ch->isLocal()) {
          // No transport to kill: an injected dispatch fault is a failed
          // attempt, same as a throwing evaluator.
          queue.failed(lease->token, e.what());
          continue;
        }
        // The write found a corpse (EPIPE) or the frame path faulted.
        // The shard is not charged for a dispatch that never arrived.
        queue.abandon(lease->token);
        channelDied(ch, std::string("worker unreachable: ") + e.what(),
                    queue);
        break;  // this channel is gone (possibly respawned) — next one
      }
    }
  }
}

void WorkerFleet::appendPollFds(std::vector<pollfd>& fds,
                                std::vector<WorkerChannel*>& chans) {
  forEachChannel([&](WorkerChannel* ch) {
    if (!ch->alive() || ch->pollFd() < 0) return;
    fds.push_back({ch->pollFd(), POLLIN, 0});
    chans.push_back(ch);
  });
}

void WorkerFleet::onReadable(WorkerChannel* ch, ShardQueue& queue) {
  handleEvents(ch, ch->drain(), queue);
}

void WorkerFleet::onHangup(WorkerChannel* ch, ShardQueue& queue) {
  handleEvents(ch, ch->hangup(), queue);
}

void WorkerFleet::checkDeadlines(ShardQueue& queue) {
  const auto now = Clock::now();
  // A spawned child that never says hello would hold its slot forever.
  std::vector<WorkerChannel*> mute;
  for (const Slot& slot : slots_)
    if (slot.ch && slot.ch->alive() && slot.ch->awaitingHello() &&
        slot.ch->lastHeard() + kHelloTimeout <= now)
      mute.push_back(slot.ch.get());
  for (WorkerChannel* ch : mute)
    if (owns(ch)) channelDied(ch, "spawned worker never said hello", queue);
  if (cfg_.shardTimeoutMs > 0) {
    const auto budget = std::chrono::milliseconds(cfg_.shardTimeoutMs);
    // Collect first: channelDied mutates the channel containers.
    std::vector<WorkerChannel*> late;
    forEachChannel([&](WorkerChannel* ch) {
      if (!ch->alive() || ch->isLocal()) return;
      const auto oldest = ch->oldestDispatchTime();
      if (oldest && *oldest + budget <= now) late.push_back(ch);
    });
    for (WorkerChannel* ch : late)
      if (owns(ch)) channelDied(ch, "shard timeout exceeded", queue);
  }
  if (cfg_.idleWorkerTimeoutMs > 0) {
    const auto budget =
        std::chrono::milliseconds(cfg_.idleWorkerTimeoutMs);
    std::vector<WorkerChannel*> stale;
    for (const auto& ch : attached_)
      if (ch->alive() && ch->inFlightCount() == 0 &&
          ch->lastHeard() + budget <= now)
        stale.push_back(ch.get());
    for (WorkerChannel* ch : stale)
      if (owns(ch))
        channelDied(ch, "worker heartbeat lost (half-open socket)", queue);
  }
}

std::optional<WorkerFleet::Clock::time_point> WorkerFleet::nextDeadline()
    const {
  std::optional<Clock::time_point> t;
  const auto consider = [&](Clock::time_point c) {
    if (!t || c < *t) t = c;
  };
  for (const Slot& slot : slots_)
    if (slot.ch && slot.ch->alive() && slot.ch->awaitingHello())
      consider(slot.ch->lastHeard() + kHelloTimeout);
  if (cfg_.shardTimeoutMs > 0) {
    const auto budget = std::chrono::milliseconds(cfg_.shardTimeoutMs);
    forEachChannel([&](WorkerChannel* ch) {
      if (!ch->alive() || ch->isLocal()) return;
      if (const auto oldest = ch->oldestDispatchTime())
        consider(*oldest + budget);
    });
  }
  if (cfg_.idleWorkerTimeoutMs > 0) {
    const auto budget =
        std::chrono::milliseconds(cfg_.idleWorkerTimeoutMs);
    for (const auto& ch : attached_)
      if (ch->alive() && ch->inFlightCount() == 0)
        consider(ch->lastHeard() + budget);
  }
  return t;
}

void WorkerFleet::shutdownAll() {
  forEachChannel([](WorkerChannel* ch) { ch->shutdown(); });
}

void WorkerFleet::killAll() {
  forEachChannel([](WorkerChannel* ch) { ch->kill(); });
}

std::vector<WorkerFleet::Provenance> WorkerFleet::provenance() const {
  std::vector<Provenance> rows;
  forEachChannel([&](WorkerChannel* ch) {
    if (!ch->alive()) return;
    rows.push_back(
        Provenance{ch->kindName(), ch->peer(), ch->completedCount()});
  });
  return rows;
}

}  // namespace pred::grid
