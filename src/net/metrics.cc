#include "net/metrics.h"

#include <cmath>
#include <cstdio>
#include <mutex>

#include "util/trace.h"

namespace surf {

namespace {

void AppendMetric(std::string* out, const std::string& line) {
  out->append(line);
  out->push_back('\n');
}

/// Writes the HELP and TYPE lines that open a metric family.
void AppendFamily(std::string* out, const std::string& name, const char* type,
                  const std::string& help) {
  AppendMetric(out, "# HELP " + name + " " + help);
  AppendMetric(out, "# TYPE " + name + " " + type);
}

std::string FormatSeconds(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

void ServerMetrics::BumpRouteCounter(const std::string& route,
                                     int status_code) {
  const std::pair<std::string, int> key{route, status_code};
  {
    // Fast path: the pair has been seen before (every request after the
    // first per route/status), so a shared lock suffices and recorders
    // never serialize on each other.
    std::shared_lock<std::shared_mutex> lock(routes_mu_);
    auto it = requests_.find(key);
    if (it != requests_.end()) {
      it->second->value.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  std::unique_lock<std::shared_mutex> lock(routes_mu_);
  auto [it, inserted] = requests_.try_emplace(key);
  if (inserted) it->second = std::make_unique<Counter>();
  it->second->value.fetch_add(1, std::memory_order_relaxed);
}

size_t ServerMetrics::LatencyBucket(double seconds) {
  size_t bucket = 0;
  while (bucket < kLatencyBucketsSeconds.size() &&
         !(seconds <= kLatencyBucketsSeconds[bucket])) {
    ++bucket;
  }
  return bucket;
}

void ServerMetrics::RecordRequest(const std::string& route, int status_code,
                                  double seconds) {
  BumpRouteCounter(route, status_code);
  buckets_[LatencyBucket(seconds)].fetch_add(1, std::memory_order_relaxed);
  const double ns = seconds * 1e9;
  latency_sum_ns_.fetch_add(
      ns > 0.0 ? static_cast<uint64_t>(std::llround(ns)) : 0,
      std::memory_order_relaxed);
  latency_count_.fetch_add(1, std::memory_order_relaxed);
}

std::string ServerMetrics::RenderPrometheus(const CacheFigures& cache,
                                            const ServiceFigures& service)
    const {
  std::string out;
  out.reserve(4096);

  AppendFamily(&out, "surf_http_requests_total", "counter",
               "Requests served, by route and status code.");
  {
    std::unique_lock<std::shared_mutex> lock(routes_mu_);
    for (const auto& [key, counter] : requests_) {
      AppendMetric(
          &out,
          "surf_http_requests_total{route=\"" + key.first + "\",code=\"" +
              std::to_string(key.second) + "\"} " +
              std::to_string(counter->value.load(std::memory_order_relaxed)));
    }
  }

  AppendFamily(&out, "surf_http_request_duration_seconds", "histogram",
               "End-to-end handler latency.");
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kLatencyBucketsSeconds.size(); ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    AppendMetric(&out, "surf_http_request_duration_seconds_bucket{le=\"" +
                           FormatSeconds(kLatencyBucketsSeconds[i]) + "\"} " +
                           std::to_string(cumulative));
  }
  cumulative += buckets_.back().load(std::memory_order_relaxed);
  AppendMetric(&out,
               "surf_http_request_duration_seconds_bucket{le=\"+Inf\"} " +
                   std::to_string(cumulative));
  AppendMetric(
      &out,
      "surf_http_request_duration_seconds_sum " +
          FormatSeconds(
              static_cast<double>(
                  latency_sum_ns_.load(std::memory_order_relaxed)) *
              1e-9));
  AppendMetric(&out,
               "surf_http_request_duration_seconds_count " +
                   std::to_string(
                       latency_count_.load(std::memory_order_relaxed)));

  AppendFamily(&out, "surf_http_inflight_requests", "gauge",
               "Requests currently inside a handler.");
  AppendMetric(&out, "surf_http_inflight_requests " +
                         std::to_string(inflight_.load()));

  // Per-stage pipeline latency, fed by the trace layer: one histogram
  // per mining stage, same buckets as the request histogram above so
  // the two decompositions line up.
  AppendFamily(&out, "surf_stage_seconds", "histogram",
               "Mining pipeline stage latency (spans recorded by traced "
               "requests), by stage.");
  const StageStats& stages = StageStats::Instance();
  for (int s = 1; s < kNumTraceStages; ++s) {
    const TraceStage stage = static_cast<TraceStage>(s);
    const StageStats::Snapshot snap = stages.Get(stage);
    const std::string label(TraceStageName(stage));
    uint64_t stage_cumulative = 0;
    for (size_t i = 0; i < StageStats::kBucketBoundsSeconds.size(); ++i) {
      stage_cumulative += snap.buckets[i];
      AppendMetric(
          &out,
          "surf_stage_seconds_bucket{stage=\"" + label + "\",le=\"" +
              FormatSeconds(StageStats::kBucketBoundsSeconds[i]) + "\"} " +
              std::to_string(stage_cumulative));
    }
    stage_cumulative += snap.buckets.back();
    AppendMetric(&out, "surf_stage_seconds_bucket{stage=\"" + label +
                           "\",le=\"+Inf\"} " +
                           std::to_string(stage_cumulative));
    AppendMetric(&out, "surf_stage_seconds_sum{stage=\"" + label + "\"} " +
                           FormatSeconds(snap.sum_seconds));
    AppendMetric(&out, "surf_stage_seconds_count{stage=\"" + label + "\"} " +
                           std::to_string(snap.count));
  }

  AppendFamily(&out, "surf_cache_requests_total", "counter",
               "Surrogate-cache lookups, by outcome.");
  AppendMetric(&out, "surf_cache_requests_total{outcome=\"hit\"} " +
                         std::to_string(cache.hits));
  AppendMetric(&out, "surf_cache_requests_total{outcome=\"miss\"} " +
                         std::to_string(cache.misses));
  AppendMetric(&out, "surf_cache_requests_total{outcome=\"degraded\"} " +
                         std::to_string(cache.degraded_serves));
  AppendMetric(&out, "surf_cache_requests_total{outcome=\"negative\"} " +
                         std::to_string(cache.negative_hits));
  AppendMetric(&out, "surf_cache_requests_total{outcome=\"rejected\"} " +
                         std::to_string(cache.breaker_rejections));

  AppendFamily(&out, "surf_cache_training_failures_total", "counter",
               "Surrogate training attempts that failed (before any "
               "fallback).");
  AppendMetric(&out, "surf_cache_training_failures_total " +
                         std::to_string(cache.training_failures));

  AppendFamily(&out, "surf_cache_evictions_total", "counter",
               "Surrogate-cache evictions, by reason.");
  AppendMetric(&out, "surf_cache_evictions_total{reason=\"capacity\"} " +
                         std::to_string(cache.evictions));
  AppendMetric(&out, "surf_cache_evictions_total{reason=\"stale\"} " +
                         std::to_string(cache.stale_evictions));

  AppendFamily(&out, "surf_cache_entries", "gauge",
               "Resident cache entries.");
  AppendMetric(&out, "surf_cache_entries " + std::to_string(cache.entries));

  const uint64_t lookups = cache.hits + cache.misses;
  AppendFamily(&out, "surf_cache_hit_ratio", "gauge",
               "Fraction of lookups served by a resident surrogate.");
  AppendMetric(
      &out, "surf_cache_hit_ratio " +
                FormatSeconds(lookups == 0 ? 0.0
                                           : static_cast<double>(cache.hits) /
                                                 static_cast<double>(lookups)));

  AppendFamily(&out, "surf_shard_scan_total", "counter",
               "Sharded-evaluator shard classifications, by action (pruned = "
               "disjoint skip, block_merged = answered from summaries, "
               "scanned = full mask scan).");
  AppendMetric(&out, "surf_shard_scan_total{action=\"pruned\"} " +
                         std::to_string(service.shard_evals_pruned));
  AppendMetric(&out, "surf_shard_scan_total{action=\"block_merged\"} " +
                         std::to_string(service.shard_evals_block_merged));
  AppendMetric(&out, "surf_shard_scan_total{action=\"scanned\"} " +
                         std::to_string(service.shard_evals_scanned));

  if (!service.accel_backend.empty()) {
    AppendFamily(&out, "surf_accel_backend", "gauge",
                 "Active SIMD kernel backend (info-style gauge: the selected "
                 "backend reads 1).");
    AppendMetric(&out, "surf_accel_backend{backend=\"" +
                           service.accel_backend + "\"} 1");
  }

  AppendFamily(&out, "surf_jobs_tracked", "gauge",
               "Jobs registered in the job table (live + retained finished).");
  AppendMetric(&out,
               "surf_jobs_tracked " + std::to_string(service.jobs_tracked));

  AppendFamily(&out, "surf_jobs_evicted_total", "counter",
               "Finished jobs evicted from the job table by retention (count "
               "or age cap).");
  AppendMetric(&out, "surf_jobs_evicted_total " +
                         std::to_string(service.jobs_evicted));

  if (service.has_dist) {
    AppendFamily(&out, "surf_dist_shard_retries_total", "counter",
                 "Shard groups re-homed onto another worker after an RPC "
                 "failure.");
    AppendMetric(&out, "surf_dist_shard_retries_total " +
                           std::to_string(service.dist_shard_retries));

    AppendFamily(&out, "surf_dist_worker_unhealthy", "gauge",
                 "Whether a configured worker is currently marked unhealthy "
                 "(1 = failing, awaiting /healthz readmission).");
    for (const auto& worker : service.dist_workers) {
      AppendMetric(&out, "surf_dist_worker_unhealthy{worker=\"" +
                             worker.endpoint + "\"} " +
                             std::string(worker.healthy ? "0" : "1"));
    }

    AppendFamily(&out, "surf_dist_worker_request_seconds", "histogram",
                 "Coordinator-observed shard-evaluate RPC latency, by worker.");
    for (const auto& worker : service.dist_workers) {
      const std::string label = "worker=\"" + worker.endpoint + "\"";
      uint64_t worker_cumulative = 0;
      for (size_t i = 0; i < kLatencyBucketsSeconds.size(); ++i) {
        worker_cumulative += worker.buckets[i];
        AppendMetric(&out,
                     "surf_dist_worker_request_seconds_bucket{" + label +
                         ",le=\"" + FormatSeconds(kLatencyBucketsSeconds[i]) +
                         "\"} " + std::to_string(worker_cumulative));
      }
      worker_cumulative += worker.buckets.back();
      AppendMetric(&out, "surf_dist_worker_request_seconds_bucket{" + label +
                             ",le=\"+Inf\"} " +
                             std::to_string(worker_cumulative));
      AppendMetric(&out, "surf_dist_worker_request_seconds_sum{" + label +
                             "} " +
                             FormatSeconds(worker.latency_sum_seconds));
      AppendMetric(&out, "surf_dist_worker_request_seconds_count{" + label +
                             "} " + std::to_string(worker.latency_count));
    }
  }

  if (service.has_transport) {
    AppendFamily(&out, "surf_http_worker_exceptions_total", "counter",
                 "Handler invocations that threw (answered 500).");
    AppendMetric(&out, "surf_http_worker_exceptions_total " +
                           std::to_string(service.worker_exceptions));

    AppendFamily(&out, "surf_http_write_failures_total", "counter",
                 "Responses whose socket write failed (peer gone or write "
                 "deadline).");
    AppendMetric(&out, "surf_http_write_failures_total " +
                           std::to_string(service.write_failures));

    AppendFamily(&out, "surf_http_requests_shed_total", "counter",
                 "Queued requests abandoned by load shedding (answered 503).");
    AppendMetric(&out, "surf_http_requests_shed_total " +
                           std::to_string(service.requests_shed));

    AppendFamily(&out, "surf_http_tenant_throttled_total", "counter",
                 "Requests answered 429 by a tenant rate limit.");
    AppendMetric(&out, "surf_http_tenant_throttled_total " +
                           std::to_string(service.tenant_throttled));

    AppendFamily(&out, "surf_http_tenant_over_quota_total", "counter",
                 "Requests answered 429 by a tenant concurrency quota.");
    AppendMetric(&out, "surf_http_tenant_over_quota_total " +
                           std::to_string(service.tenant_over_quota));

    AppendFamily(&out, "surf_http_batch_served_total", "counter",
                 "Requests served on the batch-class workers.");
    AppendMetric(&out, "surf_http_batch_served_total " +
                           std::to_string(service.batch_served));

    AppendFamily(&out, "surf_mine_coalesced_total", "counter",
                 "/v1/mine requests answered by sharing an identical "
                 "in-flight computation.");
    AppendMetric(&out, "surf_mine_coalesced_total " +
                           std::to_string(service.mine_coalesced));
  }
  return out;
}

}  // namespace surf
