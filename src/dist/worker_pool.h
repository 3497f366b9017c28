#ifndef SURF_DIST_WORKER_POOL_H_
#define SURF_DIST_WORKER_POOL_H_

/// \file
/// \brief The coordinator's static member list of remote surfd workers.
///
/// A WorkerPool is configured once (`--workers host:port,...`) and holds
/// per-worker health plus request-latency telemetry. Health is
/// optimistic: every worker starts healthy, an RPC failure marks it
/// unhealthy (MarkUnhealthy, called by the scatter path right before it
/// re-homes the shard group), and ProbeUnhealthy gives marked workers a
/// `GET /healthz` chance to rejoin at the start of each scatter — so a
/// restarted worker is picked up without coordinator intervention.
/// All counters are atomics; the pool is safe to use from concurrent
/// scatter threads and the /metrics renderer simultaneously.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/metrics.h"
#include "util/cancel.h"
#include "util/status.h"

namespace surf {
namespace dist {

/// \brief Static worker membership + health + latency telemetry.
class WorkerPool {
 public:
  /// \brief Telemetry snapshot of one worker: the figures /metrics
  /// renders, with the server-side histograms' bucket bounds.
  using WorkerFigures = ServerMetrics::ServiceFigures::DistWorkerFigures;

  /// \brief Pool-level telemetry snapshot.
  struct Figures {
    uint64_t shard_retries = 0;
    std::vector<WorkerFigures> workers;
  };

  /// Builds the member list from "host:port" endpoints. Malformed
  /// endpoints are recorded and surfaced via `status()` (the pool is
  /// still constructed so the caller can report the error cleanly).
  explicit WorkerPool(const std::vector<std::string>& endpoints,
                      double rpc_timeout_seconds = 300.0);

  /// OK unless an endpoint failed to parse at construction.
  const Status& status() const { return status_; }

  size_t size() const { return workers_.size(); }
  const std::string& endpoint(size_t i) const { return workers_[i]->endpoint; }
  bool healthy(size_t i) const {
    return workers_[i]->healthy.load(std::memory_order_relaxed);
  }

  /// Marks worker `i` unhealthy (its RPC failed); ProbeUnhealthy may
  /// readmit it later.
  void MarkUnhealthy(size_t i) {
    workers_[i]->healthy.store(false, std::memory_order_relaxed);
  }

  /// Probes every *unhealthy* worker with `GET /healthz` (short
  /// timeout), readmitting responders. Healthy workers are not touched —
  /// the steady-state scatter pays zero probe RPCs. Returns the healthy
  /// count afterwards.
  size_t ProbeUnhealthy(const CancelToken& cancel);

  /// Indices of currently healthy workers, ascending.
  std::vector<size_t> HealthyWorkers() const;

  /// One POST against worker `i`, recording latency on success and
  /// marking the worker unhealthy on transport failure. Transport
  /// failures come back as their IOError/TimedOut/Cancelled selves; an
  /// HTTP error answer maps onto the library code space (5xx →
  /// Internal, 404 → NotFound, 412 → FailedPrecondition, 408 →
  /// TimedOut, other 4xx → InvalidArgument) so IsRetriableStatus can
  /// separate "retry elsewhere" from "the request itself is wrong".
  StatusOr<std::string> Post(size_t i, const std::string& target,
                             const std::string& body,
                             const CancelToken& cancel);

  /// Counts one shard-group re-home (exported as
  /// surf_dist_shard_retries_total).
  void RecordRetry() {
    shard_retries_.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t shard_retries() const {
    return shard_retries_.load(std::memory_order_relaxed);
  }

  /// Telemetry snapshot for the /metrics exporter.
  Figures Snapshot() const;

 private:
  /// Stable-address per-worker state (atomics must not move).
  struct Worker {
    std::string endpoint;
    std::string host;
    uint16_t port = 0;
    std::atomic<bool> healthy{true};
    std::array<std::atomic<uint64_t>,
               ServerMetrics::kLatencyBucketsSeconds.size() + 1>
        buckets{};
    std::atomic<uint64_t> latency_sum_ns{0};
    std::atomic<uint64_t> latency_count{0};
  };

  void RecordLatency(Worker* worker, double seconds);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint64_t> shard_retries_{0};
  double rpc_timeout_seconds_;
  Status status_ = Status::OK();
};

}  // namespace dist
}  // namespace surf

#endif  // SURF_DIST_WORKER_POOL_H_
