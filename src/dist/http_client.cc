#include "dist/http_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>

#include "net/http_wire.h"

namespace surf {
namespace dist {

namespace {

using Clock = std::chrono::steady_clock;

/// One poll slice: short enough that cancellation lands promptly,
/// long enough that an idle wait costs nothing measurable.
constexpr int kCancelPollMs = 10;

/// RAII socket: closed on every exit path, including cancellation —
/// which is what "cancellation releases the worker connection" means at
/// the transport level (the peer sees EOF/RST and unwinds its handler).
struct ScopedFd {
  int fd = -1;
  ~ScopedFd() {
    if (fd >= 0) ::close(fd);
  }
};

/// Waits for `events` on `fd` in cancel-checking slices until
/// `deadline`. OK when the fd is ready; Cancelled/TimedOut otherwise.
Status AwaitReady(int fd, short events, Clock::time_point deadline,
                  const CancelToken& cancel) {
  while (true) {
    if (cancel.cancelled()) return Status::Cancelled("rpc cancelled");
    if (Clock::now() >= deadline) return Status::TimedOut("rpc timed out");
    pollfd pfd{fd, events, 0};
    const int n = ::poll(&pfd, 1, kCancelPollMs);
    if (n < 0 && errno != EINTR) {
      return Status::IOError("poll failed: " + std::string(strerror(errno)));
    }
    if (n > 0) return Status::OK();
  }
}

Status ConnectWithin(int fd, const sockaddr_in& addr,
                     Clock::time_point deadline, const CancelToken& cancel) {
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) == 0) {
    return Status::OK();
  }
  if (errno != EINPROGRESS) {
    return Status::IOError("connect failed: " + std::string(strerror(errno)));
  }
  SURF_RETURN_IF_ERROR(AwaitReady(fd, POLLOUT, deadline, cancel));
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
    return Status::IOError("connect failed: " +
                           std::string(strerror(err != 0 ? err : errno)));
  }
  return Status::OK();
}

Status SendWithin(int fd, const std::string& data, Clock::time_point deadline,
                  const CancelToken& cancel) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      SURF_RETURN_IF_ERROR(AwaitReady(fd, POLLOUT, deadline, cancel));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::IOError("send failed: " + std::string(strerror(errno)));
  }
  return Status::OK();
}

}  // namespace

Status ParseEndpoint(const std::string& endpoint, std::string* host,
                     uint16_t* port) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= endpoint.size()) {
    return Status::InvalidArgument("worker endpoint '" + endpoint +
                                   "' is not host:port");
  }
  char* end = nullptr;
  const unsigned long p = std::strtoul(endpoint.c_str() + colon + 1, &end, 10);
  if (*end != '\0' || p == 0 || p > 65535) {
    return Status::InvalidArgument("worker endpoint '" + endpoint +
                                   "' has a bad port");
  }
  *host = endpoint.substr(0, colon);
  if (*host == "localhost") *host = "127.0.0.1";
  *port = static_cast<uint16_t>(p);
  return Status::OK();
}

StatusOr<HttpReply> HttpCall(const std::string& host, uint16_t port,
                             const std::string& method,
                             const std::string& target,
                             const std::string& body, double timeout_seconds,
                             const CancelToken& cancel) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_seconds));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad worker address '" + host + "'");
  }

  ScopedFd sock;
  sock.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (sock.fd < 0) {
    return Status::IOError("socket failed: " + std::string(strerror(errno)));
  }
  const int flags = ::fcntl(sock.fd, F_GETFL, 0);
  ::fcntl(sock.fd, F_SETFL, flags | O_NONBLOCK);
  const int one = 1;
  ::setsockopt(sock.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  SURF_RETURN_IF_ERROR(ConnectWithin(sock.fd, addr, deadline, cancel));

  const std::string request = http::SerializeRequest(
      method, target, {{"Host", host}, {"Connection", "close"}}, body);
  SURF_RETURN_IF_ERROR(SendWithin(sock.fd, request, deadline, cancel));

  // One recv per call, waiting in cancel-checking slices; false at EOF
  // or on a failure, which `io` keeps.
  Status io;
  auto fill = [&](std::string* buffer) {
    char chunk[16384];
    while (true) {
      const ssize_t n = ::recv(sock.fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer->append(chunk, static_cast<size_t>(n));
        return true;
      }
      if (n == 0) return false;
      if (errno == EINTR) continue;
      io = errno == EAGAIN || errno == EWOULDBLOCK
               ? AwaitReady(sock.fd, POLLIN, deadline, cancel)
               : Status::IOError("recv failed: " +
                                 std::string(strerror(errno)));
      if (!io.ok()) return false;
    }
  };
  std::string buffer;
  HttpHeaders headers;
  HttpReply reply;
  const Status read = http::ReadResponse(&buffer, fill, &reply.status_code,
                                         &headers, &reply.body);
  SURF_RETURN_IF_ERROR(io);
  if (!read.ok()) return Status::IOError(read.message() + " from worker");
  return reply;
}

}  // namespace dist
}  // namespace surf
