#include "dist/worker_pool.h"

#include <chrono>

#include "dist/http_client.h"
#include "util/retry.h"

namespace surf {
namespace dist {

namespace {

/// Health probes answer within milliseconds on a live worker; a short
/// budget keeps a dead member from stalling the scatter it precedes.
constexpr double kProbeTimeoutSeconds = 1.0;

Status StatusFromHttpCode(int code, const std::string& body) {
  const std::string detail = "worker answered " + std::to_string(code) +
                             (body.empty() ? "" : ": " + body);
  if (code >= 500) return Status::Internal(detail);
  switch (code) {
    case 404:
      return Status::NotFound(detail);
    case 408:
      return Status::TimedOut(detail);
    case 412:
      return Status::FailedPrecondition(detail);
    case 429:
      return Status::Unavailable(detail);
    default:
      return Status::InvalidArgument(detail);
  }
}

}  // namespace

WorkerPool::WorkerPool(const std::vector<std::string>& endpoints,
                       double rpc_timeout_seconds)
    : rpc_timeout_seconds_(rpc_timeout_seconds) {
  for (const std::string& endpoint : endpoints) {
    auto worker = std::make_unique<Worker>();
    worker->endpoint = endpoint;
    const Status parsed =
        ParseEndpoint(endpoint, &worker->host, &worker->port);
    if (!parsed.ok() && status_.ok()) status_ = parsed;
    workers_.push_back(std::move(worker));
  }
}

size_t WorkerPool::ProbeUnhealthy(const CancelToken& cancel) {
  size_t healthy = 0;
  for (auto& worker : workers_) {
    if (worker->healthy.load(std::memory_order_relaxed)) {
      ++healthy;
      continue;
    }
    auto reply = HttpCall(worker->host, worker->port, "GET", "/healthz", "",
                          kProbeTimeoutSeconds, cancel);
    if (reply.ok() && reply->status_code == 200) {
      worker->healthy.store(true, std::memory_order_relaxed);
      ++healthy;
    }
  }
  return healthy;
}

std::vector<size_t> WorkerPool::HealthyWorkers() const {
  std::vector<size_t> healthy;
  healthy.reserve(workers_.size());
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i]->healthy.load(std::memory_order_relaxed)) {
      healthy.push_back(i);
    }
  }
  return healthy;
}

StatusOr<std::string> WorkerPool::Post(size_t i, const std::string& target,
                                       const std::string& body,
                                       const CancelToken& cancel) {
  Worker* worker = workers_[i].get();
  const auto started = std::chrono::steady_clock::now();
  auto reply = HttpCall(worker->host, worker->port, "POST", target, body,
                        rpc_timeout_seconds_, cancel);
  if (!reply.ok()) {
    // Transport-level failure (refused, reset, timed out): the member is
    // suspect. A *cancelled* call says nothing about the worker.
    if (reply.status().code() != StatusCode::kCancelled) MarkUnhealthy(i);
    return reply.status();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  RecordLatency(worker, seconds);
  if (reply->status_code != 200) {
    const Status mapped = StatusFromHttpCode(reply->status_code, reply->body);
    // An HTTP-level transient (overload, internal error) also counts
    // against health; request-shaped rejections (400/404/412) do not —
    // the worker is fine, the request is not.
    if (IsRetriableStatus(mapped)) MarkUnhealthy(i);
    return mapped;
  }
  return std::move(reply->body);
}

void WorkerPool::RecordLatency(Worker* worker, double seconds) {
  worker->buckets[ServerMetrics::LatencyBucket(seconds)].fetch_add(
      1, std::memory_order_relaxed);
  worker->latency_sum_ns.fetch_add(
      static_cast<uint64_t>(seconds * 1e9), std::memory_order_relaxed);
  worker->latency_count.fetch_add(1, std::memory_order_relaxed);
}

WorkerPool::Figures WorkerPool::Snapshot() const {
  Figures figures;
  figures.shard_retries = shard_retries_.load(std::memory_order_relaxed);
  figures.workers.reserve(workers_.size());
  for (const auto& worker : workers_) {
    WorkerFigures w;
    w.endpoint = worker->endpoint;
    w.healthy = worker->healthy.load(std::memory_order_relaxed);
    for (size_t b = 0; b < w.buckets.size(); ++b) {
      w.buckets[b] = worker->buckets[b].load(std::memory_order_relaxed);
    }
    w.latency_sum_seconds =
        static_cast<double>(
            worker->latency_sum_ns.load(std::memory_order_relaxed)) /
        1e9;
    w.latency_count = worker->latency_count.load(std::memory_order_relaxed);
    figures.workers.push_back(std::move(w));
  }
  return figures;
}

}  // namespace dist
}  // namespace surf
