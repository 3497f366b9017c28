#ifndef SURF_NET_HTTP_SERVER_H_
#define SURF_NET_HTTP_SERVER_H_

/// \file
/// \brief A dependency-free HTTP/1.1 server over POSIX sockets.
///
/// Architecture: a single epoll-driven event loop owns the listening
/// socket and every connection — nonblocking accept/read/write state
/// machines with per-connection buffers and a hashed timer wheel for
/// idle timeouts, request deadlines, and write deadlines. Complete
/// requests are handed to a two-class PriorityScheduler (interactive
/// vs. batch by request header, earliest-deadline-first within a
/// class); workers run the handler and post the serialized response
/// back to the loop over an eventfd, so no thread ever blocks on a
/// socket.
///
/// Admission control counts in-flight *requests*, not connections:
/// past `max_inflight` concurrently dispatched requests the loop
/// answers `429 Too Many Requests` — written asynchronously like any
/// other response, so a flood of rejected clients cannot stall accept.
/// Idle keep-alive connections hold no admission slot. Per-tenant QoS
/// (token-bucket rate limits and concurrency quotas keyed off a tenant
/// header) rejects before dispatch, and an optional ready-queue bound
/// load-sheds the cheapest queued batch work first (503). Each request
/// is read under a deadline (`408` on expiry), and `Shutdown()`
/// performs a graceful drain: accepting stops, idle keep-alive
/// connections are closed, and every request whose bytes have started
/// arriving is served to completion before the call returns.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/http_wire.h"
#include "sched/priority_scheduler.h"
#include "sched/tenant_governor.h"
#include "sched/timer_wheel.h"
#include "util/status.h"

namespace surf {

/// Builds a JSON error response `{"error": {"code": ..., "message": ...}}`
/// with the given HTTP status.
HttpResponse JsonErrorResponse(int status_code, const std::string& code,
                               const std::string& message);

/// \brief Application callback: one request in, one response out.
/// Invoked concurrently from worker threads; must be thread-safe.
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// \brief The embedded HTTP/1.1 server (`surfd`'s transport).
class HttpServer {
 public:
  /// \brief Listener, concurrency, deadline, and QoS configuration.
  struct Options {
    /// Address to bind (loopback by default; "0.0.0.0" to expose).
    std::string bind_address = "127.0.0.1";
    /// TCP port; 0 asks the kernel for an ephemeral port (see port()).
    uint16_t port = 0;
    /// Interactive handler worker threads. The default 0 sizes the pool
    /// to max(hardware concurrency, max_inflight) so admission control,
    /// not worker starvation, is what bounds concurrency.
    size_t num_workers = 0;
    /// Batch-class worker threads — also the batch concurrency cap
    /// (batch jobs never run on interactive workers). The default 0
    /// resolves to max(1, num_workers / 8).
    size_t batch_workers = 0;
    /// Concurrently dispatched *requests* admitted before the loop
    /// answers 429. Idle keep-alive connections hold no slot.
    size_t max_inflight = 64;
    /// listen(2) backlog.
    int accept_backlog = 128;
    /// Per-request deadline: reading one full request (and writing its
    /// response) must finish within this budget or the connection is
    /// answered 408 and closed.
    double request_deadline_seconds = 30.0;
    /// Idle keep-alive connections are closed after this long without a
    /// new request.
    double idle_timeout_seconds = 60.0;
    /// Maximum accepted header section size.
    size_t max_header_bytes = 64 * 1024;
    /// Maximum accepted body size (413 beyond it).
    size_t max_body_bytes = 64 * 1024 * 1024;
    /// Request header naming the tenant for QoS accounting (lower-case;
    /// requests without it bill the "default" tenant).
    std::string tenant_header = "x-surf-tenant";
    /// Request header carrying the scheduling class; the value "batch"
    /// (case-insensitive) routes the request to the batch workers.
    std::string priority_header = "x-surf-priority";
    /// Per-tenant rate limits and concurrency quotas (all unlimited by
    /// default).
    sched::TenantGovernor::Options qos;
    /// Ready-queue depth that triggers load shedding (the farthest-
    /// deadline queued batch job is abandoned with a 503). 0 = never
    /// shed: admission control alone bounds the backlog.
    size_t max_queue_depth = 0;
  };

  /// \brief Monotonic transport counters.
  struct Stats {
    /// Connections accepted.
    uint64_t connections_accepted = 0;
    /// Requests turned away with 429 by global admission control.
    uint64_t connections_rejected = 0;
    /// Requests fully served (handler ran, response written).
    uint64_t requests_served = 0;
    /// Requests that hit the read deadline (408).
    uint64_t request_timeouts = 0;
    /// Requests rejected by the HTTP parser (400/413/431/501).
    uint64_t parse_errors = 0;
    /// Handler invocations that threw an exception (answered 500).
    uint64_t worker_exceptions = 0;
    /// Responses whose socket write failed (peer gone, injected fault,
    /// or write deadline expired); the connection is dropped.
    uint64_t write_failures = 0;
    /// Requests currently dispatched to the scheduler (admission gauge;
    /// idle keep-alive connections do not count).
    uint64_t inflight = 0;
    /// Requests answered 429 by a tenant rate limit.
    uint64_t tenant_throttled = 0;
    /// Requests answered 429 by a tenant concurrency quota.
    uint64_t tenant_over_quota = 0;
    /// Queued jobs abandoned by load shedding (answered 503).
    uint64_t requests_shed = 0;
    /// Subset of requests_served that ran on the batch workers.
    uint64_t batch_served = 0;
    /// Currently open connections (gauge).
    uint64_t connections_open = 0;
  };

  /// Configures the server; call Start() to bind and serve.
  HttpServer(Options options, HttpHandler handler);
  /// Stops (gracefully) if still running.
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the event loop + scheduler. Fails with
  /// IOError when the address/port cannot be bound.
  Status Start();

  /// Graceful drain: stop accepting, close idle connections, serve every
  /// in-flight request to completion, then return. Idempotent.
  void Shutdown();

  /// The bound port (the kernel-chosen one when Options::port was 0).
  uint16_t port() const { return port_; }

  /// Effective interactive-worker count (the resolved default sizing
  /// when Options::num_workers was 0); 0 before Start().
  size_t workers() const {
    return scheduler_ == nullptr ? 0 : scheduler_->interactive_workers();
  }

  /// Effective batch-worker count; 0 before Start().
  size_t batch_workers() const {
    return scheduler_ == nullptr ? 0 : scheduler_->batch_workers();
  }

  /// Transport counter snapshot.
  Stats stats() const;

 private:
  struct Connection;
  /// A finished unit of worker-side work handed back to the loop.
  struct Completion {
    uint64_t conn_id = 0;
    std::string bytes;       ///< Serialized response ("" with drop).
    bool keep_alive = true;  ///< Connection stays open after the write.
    bool drop = false;       ///< Injected write fault: drop the peer.
    bool count_served = false;  ///< Bump requests_served on full flush.
    bool batch = false;
    bool shed = false;  ///< Load-shed answer (counts requests_shed).
    bool end_request = true;  ///< Releases the admission + tenant slot.
    std::string tenant;
    bool tenant_charged = false;
  };

  void RunLoop();
  void WakeLoop();
  void PushCompletion(Completion completion);
  void HandleCompletion(Completion completion);
  void AcceptReady();
  void HandleConnectionEvent(uint64_t id, uint32_t events);
  void ReadAvailable(Connection* conn);
  void ProcessInput(Connection* conn);
  void DispatchRequest(Connection* conn);
  /// Queues an error response and closes (via lingering half-close)
  /// after it is flushed; bumps `*counter` when non-null.
  void ErrorClose(Connection* conn, const HttpResponse& response,
                  uint64_t Stats::*counter);
  void StartWrite(Connection* conn, std::string bytes, bool keep_alive);
  void ContinueWrite(Connection* conn);
  void FinishWrite(Connection* conn);
  void BeginLinger(Connection* conn);
  void OnTimer(uint64_t id);
  void CloseConnection(Connection* conn);
  void UpdateEpoll(Connection* conn, uint32_t events);

  Options options_;
  HttpHandler handler_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  std::thread loop_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};

  std::unique_ptr<sched::PriorityScheduler> scheduler_;
  std::unique_ptr<sched::TenantGovernor> governor_;
  std::unique_ptr<sched::TimerWheel> wheel_;

  /// Loop-thread-only state (no lock: only RunLoop touches it).
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = wake eventfd

  mutable std::mutex mu_;
  std::condition_variable drained_cv_;
  Stats stats_;

  std::mutex completions_mu_;
  std::vector<Completion> completions_;
};

}  // namespace surf

#endif  // SURF_NET_HTTP_SERVER_H_
