// Extension: HTTP front-end serving throughput (ISSUE 3 acceptance) and
// cancellation CPU reclaim (ISSUE 4 acceptance).
//
// Closed-loop multi-connection load generator against a loopback surfd
// instance: N persistent keep-alive connections (default 32) each send
// POST /v1/mine back-to-back against a warm surrogate cache for a fixed
// duration. Reports qps, p50/p99 latency, and the cache hit ratio, then
// re-loads the server and calls Shutdown() mid-flight to prove the
// graceful drain: every response the server wrote arrives complete at a
// client (no partial/truncated responses under load).
//
// A third phase measures the CPU reclaimed by cancellation: one long
// mine request is run to completion over POST /v1/mine, then the same
// request is submitted as an async job (POST /v1/jobs) and cancelled
// shortly after (DELETE /v1/jobs/{id}); the job must reach its terminal
// Cancelled state in a small fraction of the run-to-completion
// wall-time, proving a cancelled search stops computing instead of
// stranding its worker.
//
// Writes BENCH_http.json (override with SURF_BENCH_HTTP_JSON).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "net/http_server.h"
#include "net/json_codec.h"
#include "net/metrics.h"
#include "net/surf_handler.h"
#include "serve/mining_service.h"
#include "util/cli.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/stopwatch.h"

using namespace surf;

namespace {

/// Outcome of one blocking request over a persistent connection.
enum class RequestOutcome {
  kComplete,        // full response received
  kClosedCleanly,   // EOF before any response byte (drain race: retryable)
  kPartial,         // response started but truncated — a dropped response
  kSendFailed,      // connection already closed when sending
};

/// Minimal blocking keep-alive HTTP client.
class BenchClient {
 public:
  ~BenchClient() { Close(); }

  bool Connect(uint16_t port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval timeout{30, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      Close();
      return false;
    }
    return true;
  }

  RequestOutcome Request(const std::string& wire, int* status,
                         std::string* body) {
    size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return RequestOutcome::kSendFailed;
      sent += static_cast<size_t>(n);
    }
    std::string buffer;
    size_t head_end = std::string::npos;
    while ((head_end = buffer.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill(&buffer)) {
        return buffer.empty() ? RequestOutcome::kClosedCleanly
                              : RequestOutcome::kPartial;
      }
    }
    *status = std::atoi(buffer.substr(9, 3).c_str());
    size_t content_length = 0;
    const size_t cl = buffer.find("Content-Length: ");
    if (cl != std::string::npos && cl < head_end) {
      content_length = static_cast<size_t>(
          std::atoll(buffer.c_str() + cl + std::strlen("Content-Length: ")));
    }
    std::string payload = buffer.substr(head_end + 4);
    while (payload.size() < content_length) {
      if (!Fill(&payload)) return RequestOutcome::kPartial;
    }
    *body = payload.substr(0, content_length);
    return RequestOutcome::kComplete;
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  bool Fill(std::string* buffer) {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
};

std::string WireRequest(const std::string& path, const std::string& body) {
  return "POST " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// A wire request carrying QoS headers (tenant / scheduling class).
std::string WireRequestWithHeaders(
    const std::string& path, const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& headers) {
  std::string wire = "POST " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  for (const auto& [name, value] : headers) {
    wire += name + ": " + value + "\r\n";
  }
  wire += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  wire += body;
  return wire;
}

double PercentileMs(std::vector<double>* latencies_ms, double q) {
  if (latencies_ms->empty()) return 0.0;
  std::sort(latencies_ms->begin(), latencies_ms->end());
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(latencies_ms->size() - 1));
  return (*latencies_ms)[idx];
}

struct HttpBenchReport {
  size_t connections = 0;
  double duration_seconds = 0.0;
  uint64_t requests = 0;
  uint64_t errors = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double cache_hit_ratio = 0.0;
  uint64_t drain_responses_client = 0;
  uint64_t drain_responses_server = 0;
  uint64_t drain_partial = 0;
  bool drain_clean = false;
  double run_to_completion_seconds = 0.0;
  double cancelled_job_seconds = 0.0;
  double cancel_reclaim_ratio = 0.0;
  bool cancel_clean = false;
  uint64_t fault_requests = 0;
  uint64_t fault_ok = 0;
  double fault_availability = 0.0;
  double fault_baseline_p99_ms = 0.0;
  double fault_p99_ms = 0.0;
  uint64_t fault_degraded_serves = 0;
  uint64_t fault_training_failures = 0;
  bool fault_clean = false;
  bool throughput_clean = false;
  double mixed_interactive_baseline_p99_ms = 0.0;
  double mixed_interactive_p99_ms = 0.0;
  double mixed_batch_qps = 0.0;
  uint64_t mixed_batch_completed = 0;
  double inversion_ratio = 0.0;
  bool priority_clean = false;
};

/// The pre-event-loop thread-per-connection transport measured ~193 qps
/// at 361ms p99 on this recipe (committed BENCH_http.json baseline).
/// The event-loop + coalescing transport must at least double the
/// throughput without giving back latency.
constexpr double kBaselineQps = 193.0;
constexpr double kBaselineP99Ms = 361.0;
/// Interactive p99 under a batch flood may degrade at most 20% over
/// interactive-alone p99 on the same server (priority-inversion gate).
constexpr double kMaxInversionRatio = 1.2;

void WriteJsonReport(const HttpBenchReport& r, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"connections\": %zu,\n"
               "  \"duration_seconds\": %.3f,\n"
               "  \"requests\": %llu,\n"
               "  \"errors\": %llu,\n"
               "  \"qps\": %.2f,\n"
               "  \"p50_latency_ms\": %.3f,\n"
               "  \"p99_latency_ms\": %.3f,\n"
               "  \"cache_hit_ratio\": %.4f,\n"
               "  \"drain_responses_client\": %llu,\n"
               "  \"drain_responses_server\": %llu,\n"
               "  \"drain_partial_responses\": %llu,\n"
               "  \"drain_clean\": %s,\n"
               "  \"run_to_completion_seconds\": %.3f,\n"
               "  \"cancelled_job_seconds\": %.3f,\n"
               "  \"cancel_reclaim_ratio\": %.4f,\n"
               "  \"cancel_clean\": %s,\n"
               "  \"fault_requests\": %llu,\n"
               "  \"fault_ok\": %llu,\n"
               "  \"fault_availability\": %.4f,\n"
               "  \"fault_baseline_p99_ms\": %.3f,\n"
               "  \"fault_p99_ms\": %.3f,\n"
               "  \"fault_degraded_serves\": %llu,\n"
               "  \"fault_training_failures\": %llu,\n"
               "  \"fault_clean\": %s,\n"
               "  \"throughput_clean\": %s,\n"
               "  \"mixed_interactive_baseline_p99_ms\": %.3f,\n"
               "  \"mixed_interactive_p99_ms\": %.3f,\n"
               "  \"mixed_batch_qps\": %.2f,\n"
               "  \"mixed_batch_completed\": %llu,\n"
               "  \"inversion_ratio\": %.4f,\n"
               "  \"priority_clean\": %s\n"
               "}\n",
               r.connections, r.duration_seconds,
               static_cast<unsigned long long>(r.requests),
               static_cast<unsigned long long>(r.errors), r.qps, r.p50_ms,
               r.p99_ms, r.cache_hit_ratio,
               static_cast<unsigned long long>(r.drain_responses_client),
               static_cast<unsigned long long>(r.drain_responses_server),
               static_cast<unsigned long long>(r.drain_partial),
               r.drain_clean ? "true" : "false",
               r.run_to_completion_seconds, r.cancelled_job_seconds,
               r.cancel_reclaim_ratio, r.cancel_clean ? "true" : "false",
               static_cast<unsigned long long>(r.fault_requests),
               static_cast<unsigned long long>(r.fault_ok),
               r.fault_availability, r.fault_baseline_p99_ms, r.fault_p99_ms,
               static_cast<unsigned long long>(r.fault_degraded_serves),
               static_cast<unsigned long long>(r.fault_training_failures),
               r.fault_clean ? "true" : "false",
               r.throughput_clean ? "true" : "false",
               r.mixed_interactive_baseline_p99_ms, r.mixed_interactive_p99_ms,
               r.mixed_batch_qps,
               static_cast<unsigned long long>(r.mixed_batch_completed),
               r.inversion_ratio, r.priority_clean ? "true" : "false");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const size_t connections =
      static_cast<size_t>(flags.GetInt("connections", 32));
  const double seconds = flags.GetDouble("seconds", 3.0);
  const size_t queries = static_cast<size_t>(flags.GetInt("queries", 2000));

  SyntheticSpec spec;
  spec.dims = 2;
  spec.num_gt_regions = 2;
  spec.statistic = SyntheticStatistic::kDensity;
  spec.num_background = 12000;
  spec.seed = 31;
  const SyntheticDataset ds = SyntheticGenerator::Generate(spec);

  // The serving recipe from bench/ext_service: seeded init, no
  // per-iteration KDE integrals, modest swarm — representative of a
  // latency-sensitive deployment.
  v2::MineRequest request;
  request.dataset = "bench";
  request.query.statistic = Statistic::Count(ds.region_cols);
  request.query.threshold = 1000.0;
  request.training.workload.num_queries = queries;
  request.training.surrogate.gbrt.n_estimators = 100;
  request.search.finder.gso.max_iterations = 30;
  request.search.finder.use_kde_guidance = false;
  const std::string mine_wire =
      WireRequest("/v1/mine", WriteJson(MineRequestV2ToJson(request)));

  HttpBenchReport report;
  report.connections = connections;
  report.duration_seconds = seconds;

  // ---- phase 1: closed-loop throughput against a warm cache.
  {
    MiningService service;
    if (auto st = service.RegisterDataset("bench", ds.data); !st.ok()) {
      std::fprintf(stderr, "register failed: %s\n", st.ToString().c_str());
      return 1;
    }
    ServerMetrics metrics;
    SurfHandler handler(&service, &metrics);
    HttpServer::Options options;
    options.max_inflight = connections + 4;
    options.num_workers = connections + 4;
    HttpServer server(options, handler.AsHttpHandler());
    if (auto st = server.Start(); !st.ok()) {
      std::fprintf(stderr, "start failed: %s\n", st.ToString().c_str());
      return 1;
    }

    // Warm the cache so the loop measures serving, not training.
    {
      BenchClient warmer;
      if (!warmer.Connect(server.port())) {
        std::fprintf(stderr, "cannot connect to loopback server\n");
        return 1;
      }
      int status = 0;
      std::string body;
      if (warmer.Request(mine_wire, &status, &body) !=
              RequestOutcome::kComplete ||
          status != 200) {
        std::fprintf(stderr, "warmup request failed (status %d): %s\n",
                     status, body.c_str());
        return 1;
      }
    }

    std::printf("== HTTP closed-loop: %zu connections x %.1fs against a "
                "warm cache ==\n",
                connections, seconds);
    std::atomic<bool> stop{false};
    std::vector<std::vector<double>> latencies(connections);
    std::vector<uint64_t> errors(connections, 0);
    std::vector<std::thread> workers;
    workers.reserve(connections);
    const uint16_t port = server.port();
    for (size_t i = 0; i < connections; ++i) {
      workers.emplace_back([&, i] {
        BenchClient client;
        if (!client.Connect(port)) {
          ++errors[i];
          return;
        }
        while (!stop.load(std::memory_order_relaxed)) {
          Stopwatch timer;
          int status = 0;
          std::string body;
          const RequestOutcome outcome =
              client.Request(mine_wire, &status, &body);
          if (outcome != RequestOutcome::kComplete || status != 200 ||
              body.find("\"cache_hit\":true") == std::string::npos) {
            ++errors[i];
            if (outcome != RequestOutcome::kComplete) break;
            continue;
          }
          latencies[i].push_back(timer.ElapsedMillis());
        }
      });
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int>(seconds * 1000)));
    stop.store(true);
    for (std::thread& t : workers) t.join();
    server.Shutdown();

    std::vector<double> all;
    for (const auto& per_conn : latencies) {
      all.insert(all.end(), per_conn.begin(), per_conn.end());
      report.requests += per_conn.size();
    }
    for (uint64_t e : errors) report.errors += e;
    report.qps = static_cast<double>(report.requests) / seconds;
    report.p50_ms = PercentileMs(&all, 0.50);
    report.p99_ms = PercentileMs(&all, 0.99);
    const SurrogateCache::Stats cache = service.cache().stats();
    report.cache_hit_ratio =
        cache.hits + cache.misses == 0
            ? 0.0
            : static_cast<double>(cache.hits) /
                  static_cast<double>(cache.hits + cache.misses);
    report.throughput_clean =
        report.qps >= 2.0 * kBaselineQps && report.p99_ms <= kBaselineP99Ms;
    std::printf("served %llu requests (%.1f qps), p50 %.2fms, p99 %.2fms, "
                "cache hit ratio %.3f, %llu errors -> %s (gate: >= %.0f qps "
                "at p99 <= %.0fms)\n",
                static_cast<unsigned long long>(report.requests), report.qps,
                report.p50_ms, report.p99_ms, report.cache_hit_ratio,
                static_cast<unsigned long long>(report.errors),
                report.throughput_clean ? "clean" : "THROUGHPUT GATE FAILED",
                2.0 * kBaselineQps, kBaselineP99Ms);
  }

  // ---- phase 2: graceful drain under load. Clients blast requests with
  // no coordination; Shutdown() lands mid-flight. Every response the
  // server counts as served must arrive complete client-side.
  {
    MiningService service;
    if (auto st = service.RegisterDataset("bench", ds.data); !st.ok()) {
      std::fprintf(stderr, "register failed: %s\n", st.ToString().c_str());
      return 1;
    }
    ServerMetrics metrics;
    SurfHandler handler(&service, &metrics);
    HttpServer::Options options;
    options.max_inflight = connections + 4;
    options.num_workers = connections + 4;
    HttpServer server(options, handler.AsHttpHandler());
    if (auto st = server.Start(); !st.ok()) {
      std::fprintf(stderr, "start failed: %s\n", st.ToString().c_str());
      return 1;
    }
    {
      BenchClient warmer;
      int status = 0;
      std::string body;
      if (!warmer.Connect(server.port()) ||
          warmer.Request(mine_wire, &status, &body) !=
              RequestOutcome::kComplete) {
        std::fprintf(stderr, "drain-phase warmup failed\n");
        return 1;
      }
    }

    std::atomic<uint64_t> complete{0};
    std::atomic<uint64_t> partial{0};
    std::vector<std::thread> workers;
    workers.reserve(connections);
    const uint16_t port = server.port();
    for (size_t i = 0; i < connections; ++i) {
      workers.emplace_back([&, port] {
        BenchClient client;
        if (!client.Connect(port)) return;
        while (true) {
          int status = 0;
          std::string body;
          const RequestOutcome outcome =
              client.Request(mine_wire, &status, &body);
          if (outcome == RequestOutcome::kComplete) {
            complete.fetch_add(1);
            continue;  // keep loading until the drain closes us
          }
          if (outcome == RequestOutcome::kPartial) partial.fetch_add(1);
          break;  // clean close / send failure: the server is gone
        }
      });
    }
    // Let the load build, then drain mid-flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    server.Shutdown();
    for (std::thread& t : workers) t.join();

    report.drain_responses_client = complete.load();
    // The warmup response is counted by the server too; subtract it to
    // compare against the loaded clients only.
    report.drain_responses_server = server.stats().requests_served - 1;
    report.drain_partial = partial.load();
    report.drain_clean =
        report.drain_partial == 0 &&
        report.drain_responses_client == report.drain_responses_server;
    std::printf("drain under load: server wrote %llu responses, clients "
                "received %llu complete / %llu partial -> %s\n",
                static_cast<unsigned long long>(report.drain_responses_server),
                static_cast<unsigned long long>(report.drain_responses_client),
                static_cast<unsigned long long>(report.drain_partial),
                report.drain_clean ? "clean" : "DROPPED RESPONSES");
  }

  // ---- phase 3: cancellation CPU reclaim. The same long search is run
  // once to completion (blocking /v1/mine) and once as an async job
  // cancelled ~100ms in; the cancelled job must reach its terminal state
  // in a small fraction of the run-to-completion wall-time.
  {
    MiningService service;
    if (auto st = service.RegisterDataset("bench", ds.data); !st.ok()) {
      std::fprintf(stderr, "register failed: %s\n", st.ToString().c_str());
      return 1;
    }
    ServerMetrics metrics;
    SurfHandler handler(&service, &metrics);
    HttpServer::Options options;
    options.request_deadline_seconds = 120.0;  // the full run must finish
    HttpServer server(options, handler.AsHttpHandler());
    if (auto st = server.Start(); !st.ok()) {
      std::fprintf(stderr, "start failed: %s\n", st.ToString().c_str());
      return 1;
    }

    // A deliberately long search: convergence disabled, big iteration
    // budget, per-iteration KDE mass guidance on. Same cache key as the
    // warmup (finder knobs are per-request, not part of the key).
    v2::MineRequest slow = request;
    slow.search.finder.gso.max_iterations = 1500;
    slow.search.finder.gso.convergence_tol_frac = 0.0;
    slow.search.finder.use_kde_guidance = true;
    const std::string slow_wire =
        WireRequest("/v1/mine", WriteJson(MineRequestV2ToJson(slow)));

    BenchClient client;
    int status = 0;
    std::string body;
    if (!client.Connect(server.port()) ||
        client.Request(mine_wire, &status, &body) !=
            RequestOutcome::kComplete ||
        status != 200) {
      std::fprintf(stderr, "cancel-phase warmup failed (status %d)\n",
                   status);
      return 1;
    }

    std::printf("== cancellation: long mine to completion vs cancelled "
                "job ==\n");
    Stopwatch full_timer;
    if (client.Request(slow_wire, &status, &body) !=
            RequestOutcome::kComplete ||
        status != 200) {
      std::fprintf(stderr, "run-to-completion request failed (status %d)\n",
                   status);
      return 1;
    }
    report.run_to_completion_seconds = full_timer.ElapsedSeconds();

    Stopwatch cancel_timer;
    const std::string submit_wire =
        WireRequest("/v1/jobs", WriteJson(MineRequestV2ToJson(slow)));
    if (client.Request(submit_wire, &status, &body) !=
            RequestOutcome::kComplete ||
        status != 202) {
      std::fprintf(stderr, "job submit failed (status %d): %s\n", status,
                   body.c_str());
      return 1;
    }
    auto submitted = ParseJson(body);
    const JsonValue* id_field =
        submitted.ok() ? submitted->Find("job_id") : nullptr;
    if (id_field == nullptr || !id_field->is_string()) {
      std::fprintf(stderr, "job submit returned no job_id: %s\n",
                   body.c_str());
      return 1;
    }
    const std::string job_id = id_field->string_value();

    // Let the search get going, then cancel.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const std::string cancel_wire = "DELETE /v1/jobs/" + job_id +
                                    " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                                    "Content-Length: 0\r\n\r\n";
    if (client.Request(cancel_wire, &status, &body) !=
            RequestOutcome::kComplete ||
        status != 200) {
      std::fprintf(stderr, "job cancel failed (status %d): %s\n", status,
                   body.c_str());
      return 1;
    }

    // Poll until the job reaches its terminal state.
    const std::string poll_wire = "GET /v1/jobs/" + job_id +
                                  " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                                  "Content-Length: 0\r\n\r\n";
    bool cancelled_status = false;
    for (int i = 0; i < 2000; ++i) {
      if (client.Request(poll_wire, &status, &body) !=
              RequestOutcome::kComplete ||
          status != 200) {
        std::fprintf(stderr, "job poll failed (status %d)\n", status);
        return 1;
      }
      auto polled = ParseJson(body);
      const JsonValue* response_field =
          polled.ok() ? polled->Find("response") : nullptr;
      if (response_field != nullptr) {
        const JsonValue* job_status = response_field->Find("status");
        const JsonValue* code =
            job_status != nullptr ? job_status->Find("code") : nullptr;
        cancelled_status = code != nullptr && code->is_string() &&
                           code->string_value() == "cancelled";
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    report.cancelled_job_seconds = cancel_timer.ElapsedSeconds();
    report.cancel_reclaim_ratio =
        report.run_to_completion_seconds > 0.0
            ? report.cancelled_job_seconds / report.run_to_completion_seconds
            : 0.0;
    report.cancel_clean =
        cancelled_status && report.cancel_reclaim_ratio < 0.5;
    std::printf("run-to-completion %.3fs vs cancelled job %.3fs "
                "(ratio %.3f, terminal status %s) -> %s\n",
                report.run_to_completion_seconds,
                report.cancelled_job_seconds, report.cancel_reclaim_ratio,
                cancelled_status ? "cancelled" : "NOT CANCELLED",
                report.cancel_clean ? "clean" : "CPU NOT RECLAIMED");
    server.Shutdown();
  }

  // ---- phase 4: availability under injected training faults (ISSUE 6
  // acceptance). A short-TTL cache forces continual revalidation while
  // the serve.train failpoint fails 5% of trainings; stale-while-
  // revalidate must keep answering 200 (flagged degraded when a retrain
  // fails) instead of surfacing 500s. Gates: availability >= 99% and a
  // fault-phase p99 no worse than 2x the in-phase (fault-free) p99
  // measured against the same short-TTL retrain cadence.
  {
    MiningService::Options service_options;
    service_options.cache.max_age_seconds = 0.1;  // continual revalidation
    service_options.cache.stale_while_revalidate = true;
    MiningService service(service_options);
    // A lighter recipe than phase 1: retrains complete in tens of
    // milliseconds, so the run packs in enough training attempts for a
    // 5% fire rate to actually produce failures worth surviving.
    v2::MineRequest fault_request = request;
    fault_request.training.workload.num_queries = 300;
    fault_request.training.surrogate.gbrt.n_estimators = 30;
    fault_request.search.finder.gso.max_iterations = 20;
    const std::string fault_wire = WireRequest(
        "/v1/mine", WriteJson(MineRequestV2ToJson(fault_request)));
    if (auto st = service.RegisterDataset("bench", ds.data); !st.ok()) {
      std::fprintf(stderr, "register failed: %s\n", st.ToString().c_str());
      return 1;
    }
    ServerMetrics metrics;
    SurfHandler handler(&service, &metrics);
    const size_t fault_connections = std::min<size_t>(connections, 8);
    HttpServer::Options options;
    options.max_inflight = fault_connections + 4;
    options.num_workers = fault_connections + 4;
    HttpServer server(options, handler.AsHttpHandler());
    if (auto st = server.Start(); !st.ok()) {
      std::fprintf(stderr, "start failed: %s\n", st.ToString().c_str());
      return 1;
    }
    {
      BenchClient warmer;
      int status = 0;
      std::string body;
      if (!warmer.Connect(server.port()) ||
          warmer.Request(fault_wire, &status, &body) !=
              RequestOutcome::kComplete ||
          status != 200) {
        std::fprintf(stderr, "fault-phase warmup failed (status %d)\n",
                     status);
        return 1;
      }
    }

    // One closed-loop sub-phase; latencies and 200-counts per run.
    const auto run_subphase = [&](double run_seconds,
                                  std::vector<double>* latencies_out,
                                  uint64_t* total_out, uint64_t* ok_out) {
      std::atomic<bool> stop{false};
      std::vector<std::vector<double>> latencies(fault_connections);
      std::vector<uint64_t> totals(fault_connections, 0);
      std::vector<uint64_t> oks(fault_connections, 0);
      std::vector<std::thread> workers;
      workers.reserve(fault_connections);
      const uint16_t port = server.port();
      for (size_t i = 0; i < fault_connections; ++i) {
        workers.emplace_back([&, i] {
          BenchClient client;
          if (!client.Connect(port)) return;
          while (!stop.load(std::memory_order_relaxed)) {
            Stopwatch timer;
            int status = 0;
            std::string body;
            if (client.Request(fault_wire, &status, &body) !=
                RequestOutcome::kComplete) {
              break;
            }
            ++totals[i];
            if (status == 200) {
              ++oks[i];
              latencies[i].push_back(timer.ElapsedMillis());
            }
          }
        });
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<int>(run_seconds * 1000)));
      stop.store(true);
      for (std::thread& t : workers) t.join();
      for (size_t i = 0; i < fault_connections; ++i) {
        latencies_out->insert(latencies_out->end(), latencies[i].begin(),
                              latencies[i].end());
        *total_out += totals[i];
        *ok_out += oks[i];
      }
    };

    std::printf("== fault injection: %zu connections, 0.1s cache TTL, "
                "serve.train failing 5%% of retrains ==\n",
                fault_connections);
    std::vector<double> baseline_latencies;
    uint64_t baseline_total = 0, baseline_ok = 0;
    run_subphase(seconds, &baseline_latencies, &baseline_total,
                 &baseline_ok);
    report.fault_baseline_p99_ms = PercentileMs(&baseline_latencies, 0.99);

    const SurrogateCache::Stats before = service.cache().stats();
    FailpointRegistry::Global().SetSeed(2026);
    if (auto st =
            FailpointRegistry::Global().Set("serve.train", "prob:0.05");
        !st.ok()) {
      std::fprintf(stderr, "failpoint arm failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::vector<double> fault_latencies;
    run_subphase(seconds, &fault_latencies, &report.fault_requests,
                 &report.fault_ok);
    FailpointRegistry::Global().ClearAll();
    server.Shutdown();

    const SurrogateCache::Stats after = service.cache().stats();
    report.fault_p99_ms = PercentileMs(&fault_latencies, 0.99);
    report.fault_availability =
        report.fault_requests == 0
            ? 0.0
            : static_cast<double>(report.fault_ok) /
                  static_cast<double>(report.fault_requests);
    report.fault_degraded_serves =
        after.degraded_serves - before.degraded_serves;
    report.fault_training_failures =
        after.training_failures - before.training_failures;
    report.fault_clean =
        report.fault_requests > 0 && report.fault_availability >= 0.99 &&
        report.fault_p99_ms <= 2.0 * report.fault_baseline_p99_ms;
    std::printf(
        "fault phase: %llu requests, availability %.4f, p99 %.2fms vs "
        "baseline p99 %.2fms, %llu degraded serves, %llu training "
        "failures -> %s\n",
        static_cast<unsigned long long>(report.fault_requests),
        report.fault_availability, report.fault_p99_ms,
        report.fault_baseline_p99_ms,
        static_cast<unsigned long long>(report.fault_degraded_serves),
        static_cast<unsigned long long>(report.fault_training_failures),
        report.fault_clean ? "clean" : "DEGRADATION GATE FAILED");
  }

  // ---- phase 5: per-tenant QoS + priority scheduling (ISSUE 10
  // acceptance). Interactive clients serve warm-cache mines while an
  // "analytics" tenant floods batch-class requests with distinct
  // thresholds (each a fresh training — real CPU work). The batch
  // workers run niced and strictly separated from the interactive pool,
  // so interactive p99 under the flood must stay within 20% of the
  // interactive-alone p99 measured on the same server, while the batch
  // flood still makes progress.
  {
    MiningService service;
    if (auto st = service.RegisterDataset("bench", ds.data); !st.ok()) {
      std::fprintf(stderr, "register failed: %s\n", st.ToString().c_str());
      return 1;
    }
    ServerMetrics metrics;
    SurfHandler handler(&service, &metrics);
    const size_t interactive_conns = std::min<size_t>(connections, 8);
    const size_t batch_conns = 4;
    HttpServer::Options options;
    options.max_inflight = interactive_conns + batch_conns + 4;
    options.num_workers = interactive_conns + 4;
    options.batch_workers = 2;
    // The analytics tenant is quota-bounded to its flood size: the QoS
    // path is exercised on every batch admission without rejections.
    options.qos.per_tenant["analytics"].max_inflight = batch_conns;
    HttpServer server(options, handler.AsHttpHandler());
    if (auto st = server.Start(); !st.ok()) {
      std::fprintf(stderr, "start failed: %s\n", st.ToString().c_str());
      return 1;
    }
    {
      BenchClient warmer;
      int status = 0;
      std::string body;
      if (!warmer.Connect(server.port()) ||
          warmer.Request(mine_wire, &status, &body) !=
              RequestOutcome::kComplete ||
          status != 200) {
        std::fprintf(stderr, "mixed-phase warmup failed (status %d)\n",
                     status);
        return 1;
      }
    }
    const uint16_t port = server.port();

    // Closed-loop interactive load for `run_seconds`; returns latencies.
    const auto run_interactive = [&](double run_seconds,
                                     std::vector<double>* latencies_out) {
      std::atomic<bool> stop{false};
      std::vector<std::vector<double>> latencies(interactive_conns);
      std::vector<std::thread> workers;
      workers.reserve(interactive_conns);
      for (size_t i = 0; i < interactive_conns; ++i) {
        workers.emplace_back([&, i] {
          BenchClient client;
          if (!client.Connect(port)) return;
          while (!stop.load(std::memory_order_relaxed)) {
            Stopwatch timer;
            int status = 0;
            std::string body;
            if (client.Request(mine_wire, &status, &body) !=
                    RequestOutcome::kComplete ||
                status != 200) {
              break;
            }
            latencies[i].push_back(timer.ElapsedMillis());
          }
        });
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<int>(run_seconds * 1000)));
      stop.store(true);
      for (std::thread& t : workers) t.join();
      for (auto& per_conn : latencies) {
        latencies_out->insert(latencies_out->end(), per_conn.begin(),
                              per_conn.end());
      }
    };

    std::printf("== mixed QoS: %zu interactive + %zu batch (tenant "
                "\"analytics\") connections ==\n",
                interactive_conns, batch_conns);
    // Sub-phase A: interactive alone.
    std::vector<double> alone;
    run_interactive(seconds, &alone);
    report.mixed_interactive_baseline_p99_ms = PercentileMs(&alone, 0.99);

    // Sub-phase B: the same interactive load with a batch flood under
    // it. Every batch request carries a distinct threshold, so each one
    // is a fresh training — sustained CPU pressure, no cache shortcut.
    std::atomic<bool> batch_stop{false};
    std::atomic<uint64_t> batch_done{0};
    std::atomic<int> batch_seq{0};
    std::vector<std::thread> batch_workers;
    batch_workers.reserve(batch_conns);
    for (size_t i = 0; i < batch_conns; ++i) {
      batch_workers.emplace_back([&] {
        BenchClient client;
        if (!client.Connect(port)) return;
        while (!batch_stop.load(std::memory_order_relaxed)) {
          v2::MineRequest batch_request = request;
          batch_request.training.workload.num_queries = 300;
          batch_request.training.surrogate.gbrt.n_estimators = 30;
          batch_request.search.finder.gso.max_iterations = 20;
          batch_request.query.threshold = 900.0 + batch_seq.fetch_add(1);
          const std::string wire = WireRequestWithHeaders(
              "/v1/mine", WriteJson(MineRequestV2ToJson(batch_request)),
              {{"x-surf-priority", "batch"}, {"x-surf-tenant", "analytics"}});
          int status = 0;
          std::string body;
          if (client.Request(wire, &status, &body) !=
              RequestOutcome::kComplete) {
            break;
          }
          if (status == 200) batch_done.fetch_add(1);
        }
      });
    }
    std::vector<double> flooded;
    Stopwatch flood_timer;
    run_interactive(seconds, &flooded);
    const double flood_seconds = flood_timer.ElapsedSeconds();
    batch_stop.store(true);
    for (std::thread& t : batch_workers) t.join();
    server.Shutdown();

    report.mixed_interactive_p99_ms = PercentileMs(&flooded, 0.99);
    report.mixed_batch_completed = batch_done.load();
    report.mixed_batch_qps =
        flood_seconds > 0.0
            ? static_cast<double>(report.mixed_batch_completed) /
                  flood_seconds
            : 0.0;
    // Guard the ratio against sub-millisecond baselines: at that scale
    // scheduler jitter dominates and the ratio measures noise.
    const double floor_ms =
        std::max(report.mixed_interactive_baseline_p99_ms, 1.0);
    report.inversion_ratio = report.mixed_interactive_p99_ms / floor_ms;
    report.priority_clean =
        !flooded.empty() && report.mixed_batch_completed > 0 &&
        report.inversion_ratio <= kMaxInversionRatio;
    std::printf("interactive p99 %.2fms alone vs %.2fms under batch flood "
                "(inversion ratio %.3f, gate <= %.2f), batch %.1f qps "
                "(%llu completed) -> %s\n",
                report.mixed_interactive_baseline_p99_ms,
                report.mixed_interactive_p99_ms, report.inversion_ratio,
                kMaxInversionRatio, report.mixed_batch_qps,
                static_cast<unsigned long long>(report.mixed_batch_completed),
                report.priority_clean ? "clean" : "PRIORITY GATE FAILED");
  }

  const char* json_env = std::getenv("SURF_BENCH_HTTP_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_http.json";
  WriteJsonReport(report, json_path);
  std::printf("wrote %s\n", json_path.c_str());

  // Acceptance contract: ≥ 32 sustained connections with a warm cache,
  // and a drain that drops nothing.
  if (report.requests == 0 || report.errors > 0) {
    std::fprintf(stderr, "FAIL: closed loop had errors\n");
    return 1;
  }
  if (!report.throughput_clean) {
    std::fprintf(stderr,
                 "FAIL: throughput gate (%.1f qps at p99 %.2fms; need >= "
                 "%.0f qps at p99 <= %.0fms)\n",
                 report.qps, report.p99_ms, 2.0 * kBaselineQps,
                 kBaselineP99Ms);
    return 1;
  }
  if (!report.priority_clean) {
    std::fprintf(stderr,
                 "FAIL: priority-inversion gate (interactive p99 %.2fms "
                 "under flood vs %.2fms alone, ratio %.3f > %.2f, or no "
                 "batch progress: %llu completed)\n",
                 report.mixed_interactive_p99_ms,
                 report.mixed_interactive_baseline_p99_ms,
                 report.inversion_ratio, kMaxInversionRatio,
                 static_cast<unsigned long long>(report.mixed_batch_completed));
    return 1;
  }
  if (!report.drain_clean) {
    std::fprintf(stderr, "FAIL: graceful drain dropped responses\n");
    return 1;
  }
  if (!report.cancel_clean) {
    std::fprintf(stderr,
                 "FAIL: cancelled job did not stop promptly "
                 "(%.3fs vs %.3fs run-to-completion)\n",
                 report.cancelled_job_seconds,
                 report.run_to_completion_seconds);
    return 1;
  }
  if (!report.fault_clean) {
    std::fprintf(stderr,
                 "FAIL: fault-injection gate (availability %.4f < 0.99 or "
                 "p99 %.2fms > 2x baseline %.2fms)\n",
                 report.fault_availability, report.fault_p99_ms,
                 report.fault_baseline_p99_ms);
    return 1;
  }
  return 0;
}
