#include "net/http_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <strings.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/failpoint.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace surf {

namespace {

using Clock = std::chrono::steady_clock;

/// epoll user-data ids for the two non-connection fds the loop owns.
constexpr uint64_t kListenerId = 0;
constexpr uint64_t kWakeId = 1;

/// Upper bound on one epoll_wait when no timer is armed sooner.
constexpr int kMaxEpollWaitMs = 100;

/// How long an error-closed connection lingers half-closed, draining
/// the peer's unread bytes so the error response survives (close() with
/// unread input provokes an RST that can discard it).
constexpr double kLingerSeconds = 0.25;

Clock::time_point DeadlineAfter(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

}  // namespace

HttpResponse JsonErrorResponse(int status_code, const std::string& code,
                               const std::string& message) {
  JsonValue error = JsonValue::Object();
  error.Set("code", JsonValue(code));
  error.Set("message", JsonValue(message));
  JsonValue body = JsonValue::Object();
  body.Set("error", std::move(error));
  HttpResponse response;
  response.status_code = status_code;
  response.body = WriteJson(body) + "\n";
  return response;
}

/// \brief Per-connection state owned exclusively by the event loop.
struct HttpServer::Connection {
  enum class State {
    kReading,     ///< Accumulating request bytes (or idle keep-alive).
    kDispatched,  ///< A request is with the scheduler; socket parked.
    kWriting,     ///< Flushing a response; EPOLLOUT on backpressure.
    kLingering,   ///< Half-closed after an error; draining peer bytes.
  };

  int fd = -1;
  uint64_t id = 0;
  State state = State::kReading;
  std::string in;   ///< Unconsumed request bytes (pipelining carries over).
  std::string out;  ///< Response bytes being flushed.
  size_t out_off = 0;
  uint32_t events = 0;      ///< Currently registered epoll interest.
  bool registered = false;  ///< fd present in the epoll set.
  bool saw_request_byte = false;  ///< Mid-request (deadline running).
  bool peer_eof = false;
  size_t head_bytes = 0;      ///< Head size once parsed (0 = not yet).
  size_t content_length = 0;  ///< Declared body size once head parsed.
  bool close_after_write = false;
  bool linger_on_close = false;  ///< Error path: drain before closing.
  bool count_served_on_flush = false;
  bool batch_on_flush = false;
  HttpRequest request;  ///< Request being parsed (head fields so far).
  Clock::time_point request_deadline{};
};

HttpServer::HttpServer(Options options, HttpHandler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

HttpServer::~HttpServer() { Shutdown(); }

Status HttpServer::Start() {
  if (running_.load()) {
    return Status::FailedPrecondition("server already running");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // Every failure from here on closes the listener first.
  const auto fail = [this](Status status) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  };

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return fail(Status::InvalidArgument("invalid bind address '" +
                                        options_.bind_address + "'"));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail(Status::IOError("bind " + options_.bind_address + ":" +
                                std::to_string(options_.port) + ": " +
                                std::strerror(errno)));
  }
  if (::listen(listen_fd_, options_.accept_backlog) < 0) {
    return fail(Status::IOError(std::string("listen: ") +
                                std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
  ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    const Status error =
        Status::IOError(std::string("epoll/eventfd: ") + std::strerror(errno));
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
    return fail(error);
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  // Workers must cover max_inflight admitted requests (admission
  // control, not worker starvation, should bound concurrency); batch
  // capacity defaults to a small slice of that.
  const size_t interactive =
      options_.num_workers > 0
          ? options_.num_workers
          : std::max(ThreadPool::DefaultThreadCount(), options_.max_inflight);
  const size_t batch = options_.batch_workers > 0
                           ? options_.batch_workers
                           : std::max<size_t>(1, interactive / 8);
  sched::PriorityScheduler::Options sched_options;
  sched_options.interactive_workers = interactive;
  sched_options.batch_workers = batch;
  sched_options.max_queue_depth = options_.max_queue_depth;
  scheduler_ = std::make_unique<sched::PriorityScheduler>(sched_options);
  governor_ = std::make_unique<sched::TenantGovernor>(options_.qos);
  wheel_ = std::make_unique<sched::TimerWheel>();

  draining_.store(false);
  running_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { RunLoop(); });
  return Status::OK();
}

void HttpServer::Shutdown() {
  if (!running_.load(std::memory_order_acquire)) return;
  draining_.store(true, std::memory_order_release);
  WakeLoop();
  if (loop_.joinable()) loop_.join();
  // The loop exits only once every dispatched request has completed, so
  // the scheduler drains immediately.
  if (scheduler_ != nullptr) scheduler_->Shutdown();
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

HttpServer::Stats HttpServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void HttpServer::WakeLoop() {
  if (wake_fd_ < 0) return;
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void HttpServer::PushCompletion(Completion completion) {
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.push_back(std::move(completion));
  }
  WakeLoop();
}

void HttpServer::RunLoop() {
  std::vector<epoll_event> events(128);
  std::vector<uint64_t> fired;
  std::vector<Completion> batch;
  bool listener_closed = false;
  while (true) {
    if (draining_.load(std::memory_order_acquire)) {
      if (!listener_closed) {
        // Drain begins: stop accepting and shed idle keep-alive
        // connections. Mid-request and dispatched connections are
        // served to completion (their deadlines bound the wait).
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
        listener_closed = true;
        std::vector<uint64_t> idle;
        for (const auto& [id, conn] : conns_) {
          if (conn->state == Connection::State::kReading &&
              !conn->saw_request_byte && conn->in.empty()) {
            idle.push_back(id);
          }
        }
        for (const uint64_t id : idle) {
          auto it = conns_.find(id);
          if (it != conns_.end()) CloseConnection(it->second.get());
        }
      }
      bool drained;
      {
        std::lock_guard<std::mutex> lock(mu_);
        drained = stats_.inflight == 0;
      }
      if (drained && conns_.empty()) break;
    }

    const int timeout = wheel_->TimeoutMs(Clock::now(), kMaxEpollWaitMs);
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout);
    if (n < 0 && errno != EINTR) {
      SURF_LOG(kError) << "epoll_wait: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == kListenerId) {
        AcceptReady();
      } else if (id == kWakeId) {
        uint64_t counter;
        while (::read(wake_fd_, &counter, sizeof(counter)) > 0) {
        }
      } else {
        HandleConnectionEvent(id, events[i].events);
      }
    }

    batch.clear();
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      batch.swap(completions_);
    }
    for (Completion& completion : batch) {
      HandleCompletion(std::move(completion));
    }

    fired.clear();
    wheel_->Advance(Clock::now(), &fired);
    for (const uint64_t id : fired) OnTimer(id);
  }
}

void HttpServer::AcceptReady() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN: accepted everything pending
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.connections_accepted;
      ++stats_.connections_open;
    }
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = id;
    Connection* raw = conn.get();
    conns_.emplace(id, std::move(conn));
    UpdateEpoll(raw, EPOLLIN);
    wheel_->Arm(id, DeadlineAfter(options_.idle_timeout_seconds));
  }
}

void HttpServer::HandleConnectionEvent(uint64_t id, uint32_t events) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Connection* conn = it->second.get();
  if (conn->state == Connection::State::kWriting) {
    if (events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) ContinueWrite(conn);
  } else if (events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
    ReadAvailable(conn);
  }
  it = conns_.find(id);
  if (it != conns_.end() &&
      it->second->state == Connection::State::kReading) {
    ProcessInput(it->second.get());
  }
}

void HttpServer::ReadAvailable(Connection* conn) {
  char chunk[16384];
  while (true) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      // Lingering connections only drain; everything else accumulates.
      if (conn->state != Connection::State::kLingering) {
        conn->in.append(chunk, static_cast<size_t>(n));
      }
      continue;
    }
    if (n == 0) {
      conn->peer_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn->peer_eof = true;  // hard error: treat as gone
    break;
  }
  if (conn->state == Connection::State::kLingering && conn->peer_eof) {
    CloseConnection(conn);
  }
}

void HttpServer::ProcessInput(Connection* conn) {
  // Pump: parse and dispatch as many buffered requests as possible
  // until the connection blocks (needs bytes, awaits a worker, hits
  // write backpressure) or closes. Iterative on purpose — a buffer full
  // of pipelined requests must not recurse once per request.
  const uint64_t conn_id = conn->id;
  while (true) {
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;
    Connection* c = it->second.get();
    if (c->state != Connection::State::kReading) return;

    if (!c->saw_request_byte) {
      if (c->in.empty()) {
        if (c->peer_eof) CloseConnection(c);
        return;  // idle: keep-alive timer stays armed
      }
      // The per-request deadline starts at the request's first byte.
      c->saw_request_byte = true;
      c->request_deadline = DeadlineAfter(options_.request_deadline_seconds);
      wheel_->Arm(c->id, c->request_deadline);
    }

    if (c->head_bytes == 0) {
      const http::Framing framing =
          http::ParseRequestHead(c->in, options_.max_header_bytes,
                                 options_.max_body_bytes, &c->request);
      if (framing.need_more()) {
        if (c->peer_eof) CloseConnection(c);  // EOF mid-head
        return;                               // need more bytes
      }
      if (const http::WireError* error = framing.error) {
        ErrorClose(c,
                   JsonErrorResponse(error->status, error->code,
                                     error->message),
                   &Stats::parse_errors);
        return;
      }
      c->head_bytes = framing.head_bytes;
      c->content_length = framing.body_bytes;
    }

    const size_t total = c->head_bytes + c->content_length;
    if (c->in.size() < total) {
      if (c->peer_eof) CloseConnection(c);  // EOF mid-body
      return;                               // need more bytes
    }

    // One complete request: consume exactly its bytes. Surplus bytes
    // (HTTP pipelining) stay in the buffer and are parsed after this
    // request's response flushes — their deadline starts then.
    c->request.body = c->in.substr(c->head_bytes, c->content_length);
    c->in.erase(0, total);
    c->request.deadline = c->request_deadline;
    c->saw_request_byte = false;
    c->head_bytes = 0;
    wheel_->Disarm(c->id);
    DispatchRequest(c);
    // If the dispatch answered synchronously (QoS rejection flushed in
    // one send) the connection is back to kReading: keep pumping.
  }
}

void HttpServer::DispatchRequest(Connection* conn) {
  HttpRequest request = std::move(conn->request);
  conn->request = HttpRequest();

  bool client_close = false;
  if (const std::string* h = request.FindHeader("connection")) {
    if (::strcasecmp(h->c_str(), "close") == 0) client_close = true;
  }

  // Global admission control over concurrently dispatched *requests*.
  // Idle keep-alive connections hold no slot, so a fleet of quiet
  // clients cannot starve admission.
  bool admit = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stats_.inflight < options_.max_inflight) {
      ++stats_.inflight;
      admit = true;
    } else {
      ++stats_.connections_rejected;
    }
  }
  if (!admit) {
    HttpResponse rejected = JsonErrorResponse(
        429, "overloaded", "server at max in-flight requests");
    rejected.headers.emplace_back("Retry-After", "1");
    // Asynchronous write + lingering close: a flood of rejected clients
    // costs the loop one buffered send each, never a blocking write.
    ErrorClose(conn, rejected, nullptr);
    return;
  }

  // Per-tenant QoS. Throttled/over-quota answers keep the connection
  // alive: the client's next request may be within budget.
  std::string tenant = "default";
  if (const std::string* h = request.FindHeader(options_.tenant_header)) {
    if (!h->empty()) tenant = *h;
  }
  const auto decision = governor_->Admit(tenant, Clock::now());
  if (decision != sched::TenantGovernor::Decision::kAdmit) {
    const bool throttled =
        decision == sched::TenantGovernor::Decision::kThrottled;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --stats_.inflight;
      if (throttled) {
        ++stats_.tenant_throttled;
      } else {
        ++stats_.tenant_over_quota;
      }
    }
    HttpResponse limited =
        throttled ? JsonErrorResponse(429, "tenant_throttled",
                                      "tenant rate limit exceeded")
                  : JsonErrorResponse(429, "tenant_over_quota",
                                      "tenant concurrency quota exhausted");
    limited.headers.emplace_back("Retry-After", "1");
    const bool keep_alive =
        !client_close && !draining_.load(std::memory_order_acquire);
    conn->count_served_on_flush = false;
    StartWrite(conn, http::SerializeResponse(limited, keep_alive),
               keep_alive);
    return;
  }

  bool is_batch = false;
  if (const std::string* h = request.FindHeader(options_.priority_header)) {
    if (::strcasecmp(h->c_str(), "batch") == 0) is_batch = true;
  }

  conn->state = Connection::State::kDispatched;
  UpdateEpoll(conn, 0);  // park the socket until the response is ready
  wheel_->Disarm(conn->id);

  sched::Job job;
  job.cls = is_batch ? sched::JobClass::kBatch : sched::JobClass::kInteractive;
  job.deadline = request.deadline;
  const uint64_t id = conn->id;
  job.run = [this, id, request = std::move(request), client_close, is_batch,
             tenant]() {
    HttpResponse response;
    try {
      response = handler_(request);
    } catch (const std::exception& e) {
      // A handler bug must not kill the worker or vanish silently: log
      // it, count it, and tell the client something went wrong.
      SURF_LOG(kError) << "handler threw for " << request.method << " "
                       << request.target << ": " << e.what();
      response = JsonErrorResponse(500, "internal", "handler threw");
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.worker_exceptions;
    } catch (...) {
      SURF_LOG(kError) << "handler threw a non-exception type for "
                       << request.method << " " << request.target;
      response = JsonErrorResponse(500, "internal", "handler threw");
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.worker_exceptions;
    }
    Completion done;
    done.conn_id = id;
    done.count_served = true;
    done.batch = is_batch;
    done.tenant = tenant;
    done.tenant_charged = true;
    // Close after this response when the client asked to, or when the
    // server is draining (so clients re-connect elsewhere).
    done.keep_alive =
        !draining_.load(std::memory_order_acquire) && !client_close;
    // The write failpoint is evaluated here on the worker: a delay
    // action stalls this request without stalling the event loop, and
    // an error action drops the response as if the peer vanished.
    if (!MaybeFailpoint("net.write").ok()) {
      done.drop = true;
    } else {
      done.bytes = http::SerializeResponse(response, done.keep_alive);
    }
    PushCompletion(std::move(done));
  };
  job.shed = [this, id, client_close, is_batch, tenant]() {
    Completion done;
    done.conn_id = id;
    done.shed = true;
    done.batch = is_batch;
    done.tenant = tenant;
    done.tenant_charged = true;
    done.keep_alive =
        !draining_.load(std::memory_order_acquire) && !client_close;
    HttpResponse shed_response = JsonErrorResponse(
        503, "overloaded_shed", "request shed under load; retry later");
    shed_response.headers.emplace_back("Retry-After", "1");
    done.bytes = http::SerializeResponse(shed_response, done.keep_alive);
    PushCompletion(std::move(done));
  };
  scheduler_->Submit(std::move(job));
}

void HttpServer::HandleCompletion(Completion completion) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stats_.inflight > 0) --stats_.inflight;
    if (completion.shed) ++stats_.requests_shed;
  }
  if (completion.tenant_charged) governor_->Release(completion.tenant);

  auto it = conns_.find(completion.conn_id);
  if (it == conns_.end()) return;  // connection died while the job ran
  Connection* conn = it->second.get();
  if (completion.drop) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.write_failures;
    }
    CloseConnection(conn);
    return;
  }
  conn->count_served_on_flush = completion.count_served;
  conn->batch_on_flush = completion.batch;
  StartWrite(conn, std::move(completion.bytes), completion.keep_alive);
  // The write may have flushed synchronously; resume parsing any
  // pipelined bytes already buffered.
  it = conns_.find(completion.conn_id);
  if (it != conns_.end() &&
      it->second->state == Connection::State::kReading) {
    ProcessInput(it->second.get());
  }
}

void HttpServer::ErrorClose(Connection* conn, const HttpResponse& response,
                            uint64_t Stats::*counter) {
  if (counter != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    ++(stats_.*counter);
  }
  conn->linger_on_close = true;
  conn->count_served_on_flush = false;
  conn->batch_on_flush = false;
  StartWrite(conn, http::SerializeResponse(response, false),
             /*keep_alive=*/false);
}

void HttpServer::StartWrite(Connection* conn, std::string bytes,
                            bool keep_alive) {
  conn->out = std::move(bytes);
  conn->out_off = 0;
  conn->close_after_write = !keep_alive;
  conn->state = Connection::State::kWriting;
  wheel_->Arm(conn->id, DeadlineAfter(options_.request_deadline_seconds));
  ContinueWrite(conn);
}

void HttpServer::ContinueWrite(Connection* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_off,
                             conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      UpdateEpoll(conn, EPOLLOUT);  // flush resumes on writability
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.write_failures;
    }
    CloseConnection(conn);
    return;
  }
  FinishWrite(conn);
}

void HttpServer::FinishWrite(Connection* conn) {
  if (conn->count_served_on_flush) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests_served;
    if (conn->batch_on_flush) ++stats_.batch_served;
  }
  conn->count_served_on_flush = false;
  conn->batch_on_flush = false;
  conn->out.clear();
  conn->out_off = 0;
  if (conn->close_after_write || draining_.load(std::memory_order_acquire)) {
    if (conn->linger_on_close && !conn->peer_eof) {
      BeginLinger(conn);
    } else {
      CloseConnection(conn);
    }
    return;
  }
  conn->state = Connection::State::kReading;
  UpdateEpoll(conn, EPOLLIN);
  wheel_->Arm(conn->id, DeadlineAfter(options_.idle_timeout_seconds));
  // Pipelined bytes already buffered are pumped by the caller.
}

void HttpServer::BeginLinger(Connection* conn) {
  // The peer may still be sending (we rejected before reading it all).
  // close() with unread bytes in the receive queue provokes an RST that
  // can discard the just-written response before the client reads it,
  // so half-close our side and drain theirs briefly instead.
  ::shutdown(conn->fd, SHUT_WR);
  conn->state = Connection::State::kLingering;
  UpdateEpoll(conn, EPOLLIN);
  wheel_->Arm(conn->id, DeadlineAfter(kLingerSeconds));
}

void HttpServer::OnTimer(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Connection* conn = it->second.get();
  switch (conn->state) {
    case Connection::State::kReading:
      if (!conn->saw_request_byte) {
        CloseConnection(conn);  // idle keep-alive timeout
        return;
      }
      ErrorClose(conn,
                 JsonErrorResponse(408, "deadline_exceeded",
                                   conn->head_bytes > 0
                                       ? "request body not received in time"
                                       : "request not received in time"),
                 &Stats::request_timeouts);
      return;
    case Connection::State::kWriting: {
      // Write deadline: the peer is too slow to take the response.
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.write_failures;
      }
      CloseConnection(conn);
      return;
    }
    case Connection::State::kLingering:
      CloseConnection(conn);
      return;
    case Connection::State::kDispatched:
      return;  // no timer runs while a worker owns the request
  }
}

void HttpServer::CloseConnection(Connection* conn) {
  wheel_->Disarm(conn->id);
  if (conn->registered) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  }
  ::close(conn->fd);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stats_.connections_open > 0) --stats_.connections_open;
  }
  conns_.erase(conn->id);  // frees conn
}

void HttpServer::UpdateEpoll(Connection* conn, uint32_t events) {
  if (events == 0) {
    if (conn->registered) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
      conn->registered = false;
    }
    conn->events = 0;
    return;
  }
  epoll_event ev{};
  ev.events = events;  // level-triggered
  ev.data.u64 = conn->id;
  if (!conn->registered) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &ev);
    conn->registered = true;
  } else if (conn->events != events) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  }
  conn->events = events;
}

}  // namespace surf
