#include "grid/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>

#include "grid/faultpoint.h"

namespace pred::grid::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Milliseconds left until `deadline`, clamped to >= 0 for poll().
int remainingMs(Clock::time_point deadline) {
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - Clock::now())
                      .count();
  return ms < 0 ? 0 : (ms > 3'600'000 ? 3'600'000 : static_cast<int>(ms));
}

/// Blocks until `fd` is ready for `events` or the deadline passes.
/// Throws TimeoutError on deadline, std::runtime_error on poll failure.
void waitReady(int fd, short events, Clock::time_point deadline,
               const char* what) {
  for (;;) {
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, remainingMs(deadline));
    if (rc > 0) return;  // ready (or error/hup — the syscall will say)
    if (rc == 0) {
      throw TimeoutError(std::string(what) + " deadline exceeded");
    }
    if (errno != EINTR) {
      throw std::runtime_error(std::string("poll (") + what +
                               "): " + std::strerror(errno));
    }
  }
}

[[noreturn]] void sysFail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Puts `fd` in non-blocking mode for the scope of a deadline-bounded
/// loop, restoring the original flags on exit.  A blocking write(2) of a
/// large buffer parks INSIDE the kernel until the peer drains it — no
/// poll-based deadline can fire there — so bounded operations must make
/// every syscall non-blocking and let poll() do all the waiting.
class NonBlockScope {
 public:
  explicit NonBlockScope(int fd) : fd_(fd), flags_(::fcntl(fd, F_GETFL)) {
    if (flags_ < 0 || ::fcntl(fd_, F_SETFL, flags_ | O_NONBLOCK) < 0) {
      sysFail("fcntl");
    }
  }
  ~NonBlockScope() {
    if ((flags_ & O_NONBLOCK) == 0) ::fcntl(fd_, F_SETFL, flags_);
  }
  NonBlockScope(const NonBlockScope&) = delete;
  NonBlockScope& operator=(const NonBlockScope&) = delete;

 private:
  int fd_;
  int flags_;
};

sockaddr_un unixAddr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::invalid_argument("unix socket path too long (" +
                                std::to_string(path.size()) + " >= " +
                                std::to_string(sizeof(addr.sun_path)) +
                                "): " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in tcpAddr(const Endpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(ep.port));
  const std::string host = ep.host == "localhost" ? "127.0.0.1" : ep.host;
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::invalid_argument(
        "tcp endpoint host must be a numeric IPv4 address or 'localhost', "
        "got: " + ep.host);
  }
  return addr;
}

}  // namespace

void ignoreSigpipe() {
  static const bool done = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)done;
}

Endpoint parseEndpoint(const std::string& text) {
  Endpoint ep;
  if (text.rfind("unix:", 0) == 0) {
    ep.isUnix = true;
    ep.path = text.substr(5);
    if (ep.path.empty()) {
      throw std::invalid_argument("empty unix socket path in endpoint: " +
                                  text);
    }
    return ep;
  }
  if (text.rfind("tcp:", 0) == 0) {
    const std::string rest = text.substr(4);
    const auto colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size()) {
      throw std::invalid_argument("tcp endpoint must be tcp:HOST:PORT, got: " +
                                  text);
    }
    ep.host = rest.substr(0, colon);
    const std::string portText = rest.substr(colon + 1);
    int port = 0;
    for (const char c : portText) {
      if (c < '0' || c > '9' || port > 65535) {
        throw std::invalid_argument("malformed tcp port in endpoint: " + text);
      }
      port = port * 10 + (c - '0');
    }
    if (port > 65535) {
      throw std::invalid_argument("tcp port out of range in endpoint: " +
                                  text);
    }
    ep.port = port;
    return ep;
  }
  throw std::invalid_argument(
      "endpoint must start with 'unix:' or 'tcp:', got: " + text);
}

std::string endpointText(const Endpoint& ep) {
  if (ep.isUnix) return "unix:" + ep.path;
  return "tcp:" + ep.host + ":" + std::to_string(ep.port);
}

void Fd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Fd listenOn(const Endpoint& ep, int backlog, int* boundPort) {
  ignoreSigpipe();
  Fd fd(::socket(ep.isUnix ? AF_UNIX : AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) sysFail("socket");
  if (ep.isUnix) {
    // A stale socket file must not block restart, but a mistyped --listen
    // pointing at a regular file must not get that file deleted: only
    // unlink what is actually a socket.
    struct stat sb {};
    if (::lstat(ep.path.c_str(), &sb) == 0) {
      if (!S_ISSOCK(sb.st_mode)) {
        throw std::runtime_error("refusing to replace non-socket file at " +
                                 endpointText(ep));
      }
      ::unlink(ep.path.c_str());
    } else if (errno != ENOENT) {
      sysFail("stat " + endpointText(ep));
    }
    const auto addr = unixAddr(ep.path);
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      sysFail("bind " + endpointText(ep));
    }
  } else {
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    const auto addr = tcpAddr(ep);
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      sysFail("bind " + endpointText(ep));
    }
  }
  if (::listen(fd.get(), backlog) != 0) sysFail("listen " + endpointText(ep));
  if (boundPort != nullptr) {
    *boundPort = ep.port;
    if (!ep.isUnix) {
      sockaddr_in bound{};
      socklen_t len = sizeof(bound);
      if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound),
                        &len) != 0) {
        sysFail("getsockname");
      }
      *boundPort = ntohs(bound.sin_port);
    }
  }
  return fd;
}

Fd connectTo(const Endpoint& ep, int timeoutMs) {
  ignoreSigpipe();
  Fd fd(::socket(ep.isUnix ? AF_UNIX : AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) sysFail("socket");

  sockaddr_un ua{};
  sockaddr_in ta{};
  const sockaddr* addr;
  socklen_t addrLen;
  if (ep.isUnix) {
    ua = unixAddr(ep.path);
    addr = reinterpret_cast<const sockaddr*>(&ua);
    addrLen = sizeof(ua);
  } else {
    ta = tcpAddr(ep);
    addr = reinterpret_cast<const sockaddr*>(&ta);
    addrLen = sizeof(ta);
  }

  if (timeoutMs < 0) {
    int rc;
    do {
      rc = ::connect(fd.get(), addr, addrLen);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) sysFail("connect " + endpointText(ep));
    return fd;
  }

  // Bounded connect: non-blocking connect, poll for writability, then
  // read the final verdict out of SO_ERROR.
  const int flags = ::fcntl(fd.get(), F_GETFL);
  if (flags < 0 || ::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK) < 0) {
    sysFail("fcntl");
  }
  int rc;
  do {
    rc = ::connect(fd.get(), addr, addrLen);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      sysFail("connect " + endpointText(ep));
    }
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeoutMs);
    try {
      waitReady(fd.get(), POLLOUT, deadline, "connect");
    } catch (const TimeoutError&) {
      throw TimeoutError("connect " + endpointText(ep) +
                         ": deadline exceeded (" +
                         std::to_string(timeoutMs) + " ms)");
    }
    int soError = 0;
    socklen_t len = sizeof(soError);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &soError, &len) != 0) {
      sysFail("getsockopt");
    }
    if (soError != 0) {
      throw std::runtime_error("connect " + endpointText(ep) + ": " +
                               std::strerror(soError));
    }
  }
  if (::fcntl(fd.get(), F_SETFL, flags) < 0) sysFail("fcntl");
  return fd;
}

namespace {

void writeAllBounded(int fd, const char* p, std::size_t n, int timeoutMs) {
  NonBlockScope nb(fd);
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeoutMs);
  while (n > 0) {
    waitReady(fd, POLLOUT, deadline, "write");
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;  // poll raced the buffer state; wait again
      }
      sysFail("write");
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

}  // namespace

void writeAll(int fd, const void* data, std::size_t n, int timeoutMs) {
  fault::check("net.write");
  const char* p = static_cast<const char*>(data);
  if (timeoutMs >= 0) {
    writeAllBounded(fd, p, n, timeoutMs);
    return;
  }
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      sysFail("write");
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

bool readExact(int fd, void* data, std::size_t n, int timeoutMs) {
  fault::check("net.read");
  const bool bounded = timeoutMs >= 0;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(bounded ? timeoutMs : 0);
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < n) {
    // A blocking read(2) returns as soon as ANY bytes exist, so poll()
    // gating each call is deadline-safe without toggling O_NONBLOCK.
    if (bounded) waitReady(fd, POLLIN, deadline, "read");
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
      sysFail("read");
    }
    if (r == 0) {
      if (got == 0) return false;  // clean EOF at a message boundary
      throw std::runtime_error("connection closed mid-message (got " +
                               std::to_string(got) + " of " +
                               std::to_string(n) + " bytes)");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace pred::grid::net
