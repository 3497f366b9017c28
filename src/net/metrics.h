#ifndef SURF_NET_METRICS_H_
#define SURF_NET_METRICS_H_

/// \file
/// \brief Request-level observability for the HTTP front-end, rendered in
/// Prometheus text exposition format.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

namespace surf {

/// \brief Thread-safe counters behind `GET /metrics`: per-route request
/// counts by status code, a latency histogram, and an in-flight gauge.
///
/// The hot path (RecordRequest, once per completed request on every
/// worker) is lock-free in steady state: the histogram and latency
/// accumulators are plain relaxed atomics, and per-(route, status)
/// counters live behind a reader/writer registry — recording an
/// already-seen pair takes the shared lock only (no worker serializes on
/// another), and the exclusive lock is paid once per *new* pair (a
/// handful per process lifetime) plus at render time.
class ServerMetrics {
 public:
  /// Upper bounds (seconds) of the latency histogram buckets; the
  /// implicit final bucket is +Inf.
  static constexpr std::array<double, 14> kLatencyBucketsSeconds = {
      0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
      0.1,    0.25,  0.5,    1.0,   2.5,  5.0,   10.0};

  /// Index of the bucket `seconds` falls in (kLatencyBucketsSeconds.size()
  /// for +Inf); the dist worker pool buckets its RPC latencies alike.
  static size_t LatencyBucket(double seconds);

  /// Records one completed request: its route label (the matched
  /// endpoint pattern, not the raw target), HTTP status, and wall-time.
  void RecordRequest(const std::string& route, int status_code,
                     double seconds);

  /// Marks one request entering the handler (in-flight gauge +1).
  void BeginRequest() { inflight_.fetch_add(1, std::memory_order_relaxed); }
  /// Marks one request leaving the handler (in-flight gauge −1).
  void EndRequest() { inflight_.fetch_sub(1, std::memory_order_relaxed); }

  /// \brief One cache figure the exporter publishes alongside transport
  /// counters (filled by the caller from SurrogateCache::Stats).
  struct CacheFigures {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t stale_evictions = 0;
    uint64_t entries = 0;
    uint64_t degraded_serves = 0;
    uint64_t negative_hits = 0;
    uint64_t breaker_rejections = 0;
    uint64_t training_failures = 0;
  };

  /// \brief Service-level figures (job table + transport health +
  /// backend/evaluator telemetry) the exporter publishes alongside
  /// request metrics.
  struct ServiceFigures {
    uint64_t jobs_tracked = 0;
    uint64_t jobs_evicted = 0;
    /// Whether the transport counters below carry live values (false
    /// when metrics are rendered outside a running server).
    bool has_transport = false;
    uint64_t worker_exceptions = 0;
    uint64_t write_failures = 0;
    /// QoS counters from the event loop's admission + scheduling layer.
    uint64_t requests_shed = 0;
    uint64_t tenant_throttled = 0;
    uint64_t tenant_over_quota = 0;
    uint64_t batch_served = 0;
    /// /v1/mine requests answered by sharing an identical in-flight
    /// computation (single-flight coalescing).
    uint64_t mine_coalesced = 0;
    /// Sharded-evaluator shard classifications (process totals; see
    /// ShardedScanEvaluator::global_telemetry()).
    uint64_t shard_evals_pruned = 0;
    uint64_t shard_evals_block_merged = 0;
    uint64_t shard_evals_scanned = 0;
    /// Active SIMD kernel backend ("generic", "avx2", "avx512");
    /// empty omits the surf_accel_backend info gauge.
    std::string accel_backend;
    /// \brief One distributed worker's figures (what
    /// dist::WorkerPool::Snapshot() returns).
    struct DistWorkerFigures {
      std::string endpoint;
      bool healthy = true;
      /// Raw (non-cumulative) RPC latency bucket counts; bounds are
      /// kLatencyBucketsSeconds, last slot = +Inf.
      std::array<uint64_t, kLatencyBucketsSeconds.size() + 1> buckets{};
      double latency_sum_seconds = 0.0;
      uint64_t latency_count = 0;
    };
    /// Whether the cluster figures below carry live values (false on
    /// non-coordinator deployments; every surf_dist_* series is then
    /// omitted).
    bool has_dist = false;
    /// Shard groups re-homed onto another worker after an RPC failure.
    uint64_t dist_shard_retries = 0;
    /// Per-worker health + request-latency figures.
    std::vector<DistWorkerFigures> dist_workers;
  };

  /// Renders every metric in Prometheus text format (version 0.0.4),
  /// including the per-stage pipeline histograms fed by the trace layer
  /// (surf_stage_seconds, from StageStats).
  std::string RenderPrometheus(const CacheFigures& cache,
                               const ServiceFigures& service) const;
  /// Convenience overload: no service-level figures (job gauges read 0,
  /// transport series and the accel gauge are omitted).
  std::string RenderPrometheus(const CacheFigures& cache) const {
    return RenderPrometheus(cache, ServiceFigures());
  }

 private:
  /// Stable-address atomic counter (registry values are pointers so a
  /// rehash never moves a counter under a concurrent increment).
  struct Counter {
    std::atomic<uint64_t> value{0};
  };

  /// Bumps the counter for (route, status), creating it on first sight.
  void BumpRouteCounter(const std::string& route, int status_code);

  /// (route, status code) → request count. shared lock to find+bump,
  /// exclusive lock to insert/render.
  mutable std::shared_mutex routes_mu_;
  std::map<std::pair<std::string, int>, std::unique_ptr<Counter>> requests_;

  /// Cumulative bucket counts; index i = bucket kLatencyBucketsSeconds[i],
  /// last slot = +Inf.
  std::array<std::atomic<uint64_t>, kLatencyBucketsSeconds.size() + 1>
      buckets_{};
  /// Total latency in nanoseconds (integer so the hot add is one relaxed
  /// fetch_add; rendered as seconds).
  std::atomic<uint64_t> latency_sum_ns_{0};
  std::atomic<uint64_t> latency_count_{0};
  std::atomic<uint64_t> inflight_{0};
};

}  // namespace surf

#endif  // SURF_NET_METRICS_H_
