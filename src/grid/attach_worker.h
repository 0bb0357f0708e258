#pragma once
// attach_worker.h — The worker side of the one worker dialect.
//
// runAttachWorker is what `pred-shard-worker attach tcp:HOST:PORT` runs:
// dial the server's endpoint, then hand the connected socket to
// runAttachWorkerOn.  A server's own worker children run
// runAttachWorkerOn directly on the socketpair end they inherit
// (`pred-shard-worker attach fd:N`).  Either way the worker handshakes
// (WorkerHello with the build's code-version salt; the server rejects a
// mismatch, because a worker built from different code must never
// evaluate shards), then serves ShardAssign frames until the server hangs
// up or sends Shutdown.  `concurrency` shards ride in flight at once — a
// pool of evaluator threads answers ShardDone frames in completion order,
// and the lease id on each frame routes it back to the right shard
// server-side.
//
// The evaluator is a parameter, not a hard dependency: grid/ stays
// ignorant of study/ workloads; the tool passes
// study::gridShardEvaluator(), the same evaluation the in-process server
// runs, which is what makes worker results byte-identical to every other
// execution mode.
//
// Liveness: a Heartbeat frame goes out whenever the assignment stream is
// quiet for heartbeatMs, so a server configured with an idle-worker
// staleness bound can tell a healthy-but-idle worker from a half-open
// socket left by a crashed one.

#include <cstddef>
#include <cstdint>
#include <string>

#include "grid/net.h"
#include "grid/scheduler.h"

namespace pred::grid {

struct AttachOptions {
  /// Shards evaluated concurrently (announced in the hello; the server
  /// keeps this many leases in flight).
  std::size_t concurrency = 1;
  /// Quiet-line heartbeat interval.
  std::uint64_t heartbeatMs = 2'000;
  /// Deadline for the dial + handshake round trip.
  int connectTimeoutMs = 10'000;
  /// Fault injection: die (_exit(3)) on RECEIPT of assignment
  /// exitAfter+1 — after the server committed the dispatch, before any
  /// reply — the orphaned-lease shape the requeue path must survive.
  bool haveExitAfter = false;
  std::size_t exitAfter = 0;
  /// Salt override for handshake tests ("" = this build's salt).
  std::string salt;
};

/// Dials `endpointText` ("tcp:HOST:PORT" or "unix:PATH") and serves
/// shards until the server closes the connection or asks for shutdown;
/// returns the process exit code (0 = clean).  Throws std::runtime_error
/// when the dial or handshake fails (connection refused, salt rejected).
int runAttachWorker(const std::string& endpointText, ShardEvalFn eval,
                    const AttachOptions& options = {});

/// The handshake and serve loop on an already-connected socket (the
/// inherited socketpair end of a spawned worker, or a dialed fd).  Same
/// return value and errors as runAttachWorker, minus the dial.
int runAttachWorkerOn(net::Fd fd, ShardEvalFn eval,
                      const AttachOptions& options = {});

}  // namespace pred::grid
