#pragma once
// net.h — The grid service's socket substrate: endpoints, RAII fds, and
// exact-read/exact-write helpers.
//
// Everything above this header (protocol framing, server, client,
// scheduler pipes) talks in terms of plain file descriptors, so one
// implementation owns the POSIX error handling: every syscall failure
// becomes a std::runtime_error carrying errno text, EINTR is retried, and
// SIGPIPE is globally ignored the first time a grid socket is opened (a
// peer death must surface as an EPIPE error on the write path, never a
// process kill).
//
// Endpoints are strings so they can ride in flags and configs:
//   "unix:/path/to.sock"      Unix-domain stream socket
//   "tcp:127.0.0.1:7411"      TCP over a numeric IPv4 address (or
//                             "localhost"); port 0 binds an ephemeral
//                             port, resolved by Fd-returning listenOn.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>

namespace pred::grid::net {

/// A read/write/connect that ran past its deadline.  A distinct type so
/// callers (server accept loop, client CLI) can count and report
/// timeouts differently from peer errors — a stalled peer is dropped and
/// tallied, a garbage peer is dropped and logged.
class TimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// No deadline: block forever (the pre-deadline behavior).
inline constexpr int kNoDeadline = -1;

/// A parsed endpoint: exactly one of the two transports.
struct Endpoint {
  bool isUnix = false;
  std::string path;  ///< unix: socket path
  std::string host;  ///< tcp: numeric IPv4 or "localhost"
  int port = 0;      ///< tcp: 0 = ephemeral
};

/// Parses "unix:PATH" / "tcp:HOST:PORT".  Throws std::invalid_argument on
/// any other shape (unknown scheme, empty path, malformed port).
Endpoint parseEndpoint(const std::string& text);

/// Renders an endpoint back into the flag form parseEndpoint accepts.
std::string endpointText(const Endpoint& ep);

/// Owning file descriptor (closes on destruction, moveable).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  /// Closes the held fd (if any) and takes ownership of `fd`.
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// A peer that dies mid-conversation must surface as an EPIPE error from
/// writeAll, not a SIGPIPE process kill.  listenOn/connectTo call this;
/// code handed a socket some other way (socketpair, inherited fd) calls
/// it before the first write.  Idempotent.
void ignoreSigpipe();

/// Binds + listens on `ep`.  Unix paths are unlinked first (a daemon
/// restart must not fail on its own stale socket file).  For tcp port 0
/// the kernel-chosen port is written back into `*boundPort` (pass nullptr
/// to ignore).  Throws std::runtime_error on failure.
Fd listenOn(const Endpoint& ep, int backlog, int* boundPort);

/// Connects a stream socket to `ep`.  Throws std::runtime_error on
/// failure (unreachable, refused, missing socket file) and TimeoutError
/// when `timeoutMs` >= 0 and the connect does not complete in time — the
/// non-blocking connect + poll dance, so a black-holed host cannot hang
/// the caller for the kernel's minutes-long default.
Fd connectTo(const Endpoint& ep, int timeoutMs = kNoDeadline);

/// Writes all `n` bytes (retrying short writes and EINTR).  Throws
/// std::runtime_error on error — EPIPE included, which is how a dead peer
/// is detected on the write path.  `timeoutMs` >= 0 bounds the WHOLE
/// write with a poll()-based deadline: a peer that stops draining its
/// socket raises TimeoutError instead of wedging the writer forever.
void writeAll(int fd, const void* data, std::size_t n,
              int timeoutMs = kNoDeadline);

/// Reads exactly `n` bytes.  Returns false on EOF before the FIRST byte
/// (a clean close at a message boundary); EOF after at least one byte is
/// a truncation and throws std::runtime_error, as do read errors.
/// `timeoutMs` >= 0 bounds the WHOLE read: a peer that connects and goes
/// silent (stalled, half-open after a crash or a yanked cable) raises
/// TimeoutError instead of blocking the caller forever.
bool readExact(int fd, void* data, std::size_t n,
               int timeoutMs = kNoDeadline);

}  // namespace pred::grid::net
