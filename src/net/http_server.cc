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

/// The Stats field each http::Counter bumps, in enum order.
constexpr uint64_t HttpServer::Stats::*kStepCounters[] = {
    &HttpServer::Stats::parse_errors, &HttpServer::Stats::request_timeouts,
    &HttpServer::Stats::write_failures, &HttpServer::Stats::requests_served,
    &HttpServer::Stats::batch_served};

/// An error answer that asks the client to retry in a second.
HttpResponse RetryLater(int status, const char* code, const char* message) {
  HttpResponse response = JsonErrorResponse(status, code, message);
  response.headers.emplace_back("Retry-After", "1");
  return response;
}

/// A synchronous answer to a dispatched request.
http::Event Answer(const HttpResponse& response, http::Then then) {
  return {http::Event::kCompletion, {},
          {http::SerializeResponse(response, then == http::Then::kKeep), then}};
}

Clock::duration Seconds(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

}  // namespace

/// \brief One connection: its socket, its epoll registration, the answer
/// being flushed, and the step state that decides everything else.
struct HttpServer::Connection {
  int fd = -1;
  uint64_t id = 0;
  uint32_t events = 0;  ///< Registered epoll interest (0 = not in the set).
  http::Interest interest = http::Interest::kNone;  ///< What the step wants.
  std::string out;  ///< Response bytes being flushed.
  size_t out_off = 0;
  http::Conn state;
};

HttpServer::HttpServer(Options options, HttpHandler handler)
    : options_(std::move(options)),
      handler_(std::move(handler)),
      limits_{options_.max_header_bytes, options_.max_body_bytes,
              Seconds(options_.request_deadline_seconds),
              Seconds(options_.idle_timeout_seconds)} {}

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
        // Drain begins: stop accepting; the step closes idle keep-alive
        // connections and serves the rest to completion (their deadlines
        // bound the wait).
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
        listener_closed = true;
        for (auto it = conns_.begin(); it != conns_.end();) {
          Connection* conn = (it++)->second.get();  // Drive may erase it
          Drive(conn, {http::Event::kDrain});
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
    for (const uint64_t id : fired) {
      auto it = conns_.find(id);
      if (it != conns_.end()) Drive(it->second.get(), {http::Event::kTimer});
    }
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
    Drive(raw, {http::Event::kOpen});
  }
}

void HttpServer::HandleConnectionEvent(uint64_t id, uint32_t events) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Connection* conn = it->second.get();
  if (conn->interest == http::Interest::kWrite) {
    if (!(events & (EPOLLOUT | EPOLLERR | EPOLLHUP))) return;
    if (std::optional<http::Event> ended = Flush(conn)) {
      Drive(conn, std::move(*ended));
    }
    return;
  }
  if (!(events & (EPOLLIN | EPOLLERR | EPOLLHUP))) return;
  // Read while the step wants bytes: a dispatch parks the rest in the
  // kernel until its answer is written.
  char chunk[16384];
  while (conn->interest == http::Interest::kRead) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {  // EOF, or a hard error: the peer is gone either way
      Drive(conn, {http::Event::kPeerEof});
      return;
    }
    if (!Drive(conn, {http::Event::kBytes,
                      std::string_view(chunk, static_cast<size_t>(n))})) {
      return;
    }
  }
}

bool HttpServer::Drive(Connection* conn, http::Event event) {
  const Clock::time_point now = Clock::now();
  for (std::optional<http::Event> next = std::move(event); next;) {
    actions_.clear();
    http::Step(limits_, &conn->state, *std::move(next), now, &actions_);
    next.reset();
    for (http::Action& action : actions_) {
      switch (action.kind) {
        case http::Action::kInterest:
          conn->interest = action.interest;
          break;
        case http::Action::kArm:
          wheel_->Arm(conn->id, action.at);
          break;
        case http::Action::kDisarm:
          wheel_->Disarm(conn->id);
          break;
        case http::Action::kCount: {
          std::lock_guard<std::mutex> lock(mu_);
          ++(stats_.*kStepCounters[static_cast<int>(action.counter)]);
          break;
        }
        case http::Action::kHalfClose:
          ::shutdown(conn->fd, SHUT_WR);
          break;
        case http::Action::kClose:
          CloseConnection(conn);
          return false;
        case http::Action::kWrite:
          conn->out = std::move(action.bytes);
          conn->out_off = 0;
          next = Flush(conn);
          break;
        case http::Action::kDispatch:
          next = Dispatch(conn, std::move(action.request));
          break;
      }
    }
  }
  constexpr uint32_t kEpollEvents[] = {0, EPOLLIN, EPOLLOUT};  // by Interest
  UpdateEpoll(conn, kEpollEvents[static_cast<int>(conn->interest)]);
  return true;
}

std::optional<http::Event> HttpServer::Dispatch(Connection* conn,
                                                HttpRequest request) {
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
    // Asynchronous write + lingering close: a flood of rejected clients
    // costs the loop one buffered send each, never a blocking write.
    return Answer(RetryLater(429, "overloaded",
                             "server at max in-flight requests"),
                  http::Then::kLinger);
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
    return Answer(throttled ? RetryLater(429, "tenant_throttled",
                                         "tenant rate limit exceeded")
                            : RetryLater(429, "tenant_over_quota",
                                         "tenant concurrency quota exhausted"),
                  client_close || draining_.load(std::memory_order_acquire)
                      ? http::Then::kClose
                      : http::Then::kKeep);
  }

  bool is_batch = false;
  if (const std::string* h = request.FindHeader(options_.priority_header)) {
    if (::strcasecmp(h->c_str(), "batch") == 0) is_batch = true;
  }

  sched::Job job;
  job.cls = is_batch ? sched::JobClass::kBatch : sched::JobClass::kInteractive;
  job.deadline = request.deadline;
  const uint64_t id = conn->id;
  // Close after the answer when the client asked to, or when the server
  // is draining (so clients re-connect elsewhere).
  const auto answered = [this, id, client_close, tenant](bool shed) {
    Completion done{id, tenant, shed, {}};
    done.reply.then = client_close || draining_.load(std::memory_order_acquire)
                          ? http::Then::kClose
                          : http::Then::kKeep;
    return done;
  };
  job.run = [this, request = std::move(request), is_batch, answered]() {
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
    Completion done = answered(/*shed=*/false);
    done.reply.served =
        is_batch ? http::Served::kBatch : http::Served::kInteractive;
    // The write failpoint is evaluated here on the worker: a delay
    // action stalls this request without stalling the event loop, and
    // an error action drops the response as if the peer vanished.
    if (!MaybeFailpoint("net.write").ok()) {
      done.reply.drop = true;
    } else {
      done.reply.bytes = http::SerializeResponse(
          response, done.reply.then == http::Then::kKeep);
    }
    PushCompletion(std::move(done));
  };
  job.shed = [this, answered]() {
    Completion done = answered(/*shed=*/true);
    done.reply.bytes = http::SerializeResponse(
        RetryLater(503, "overloaded_shed",
                   "request shed under load; retry later"),
        done.reply.then == http::Then::kKeep);
    PushCompletion(std::move(done));
  };
  scheduler_->Submit(std::move(job));
  return std::nullopt;
}

void HttpServer::HandleCompletion(Completion completion) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stats_.inflight > 0) --stats_.inflight;
    if (completion.shed) ++stats_.requests_shed;
  }
  governor_->Release(completion.tenant);
  auto it = conns_.find(completion.conn_id);
  if (it == conns_.end()) return;  // connection died while the job ran
  Drive(it->second.get(),
        {http::Event::kCompletion, {}, std::move(completion.reply)});
}

std::optional<http::Event> HttpServer::Flush(Connection* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_off,
                             conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return std::nullopt;  // write interest resumes the flush
    }
    return http::Event{http::Event::kWriteFailed};
  }
  conn->out.clear();
  return http::Event{http::Event::kFlushed};
}

void HttpServer::CloseConnection(Connection* conn) {
  wheel_->Disarm(conn->id);
  if (conn->events != 0) {
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
  if (events == conn->events) return;
  if (events == 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  } else {
    epoll_event ev{};
    ev.events = events;  // level-triggered
    ev.data.u64 = conn->id;
    ::epoll_ctl(epoll_fd_, conn->events == 0 ? EPOLL_CTL_ADD : EPOLL_CTL_MOD,
                conn->fd, &ev);
  }
  conn->events = events;
}

}  // namespace surf
