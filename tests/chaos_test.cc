// Chaos suite (ISSUE 6): drives every compiled failpoint site through
// the HTTP front-end and asserts the failure contract — mapped status
// codes (408/429/500/503), Retry-After hints, degraded-but-labelled
// stale serves, a coherent cache afterwards, an intact graceful drain
// under injected faults, and zero crashes. The test at the bottom
// asserts the suite exercised every site in
// FailpointRegistry::KnownSites(), so adding a failpoint without chaos
// coverage fails CI.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "dist/cluster_evaluator.h"
#include "dist/worker_pool.h"
#include "net/http_server.h"
#include "net/json_codec.h"
#include "net/metrics.h"
#include "net/surf_handler.h"
#include "serve/mining_service.h"
#include "util/failpoint.h"
#include "util/json.h"

namespace surf {
namespace {

// ------------------------------------------------------- test HTTP client

struct ChaosResponse {
  /// 0 = the connection died before a full response arrived (e.g. the
  /// net.write failpoint dropped it).
  int status = 0;
  std::string body;
  /// Header fields, names lower-cased.
  HttpHeaders headers;

  const std::string* FindHeader(const std::string& name) const {
    return surf::FindHeader(headers, name);
  }
};

/// Minimal blocking HTTP/1.1 client. Unlike net_test's, it parses the
/// response headers — the chaos contract includes Retry-After.
class ChaosClient {
 public:
  ~ChaosClient() { Close(); }

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

  ChaosResponse Request(const std::string& method, const std::string& path,
                        const std::string& body = "") {
    const std::string out =
        http::SerializeRequest(method, path, {{"Host", "127.0.0.1"}}, body);
    size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return {};
      sent += static_cast<size_t>(n);
    }
    return ReadResponse();
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  ChaosResponse ReadResponse() {
    ChaosResponse response;
    std::string buffer;
    if (!http::ReadResponse(
             &buffer, [this](std::string* out) { return Fill(out); },
             &response.status, &response.headers, &response.body)
             .ok()) {
      return {};
    }
    return response;
  }

  bool Fill(std::string* buffer) {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
};

// ------------------------------------------------------------- fixtures

SyntheticDataset MakeChaosData() {
  SyntheticSpec spec;
  spec.dims = 2;
  spec.num_gt_regions = 1;
  spec.statistic = SyntheticStatistic::kDensity;
  spec.num_background = 4000;
  spec.seed = 17;
  return SyntheticGenerator::Generate(spec);
}

std::string InlineDatasetBody(const std::string& name, const Dataset& data) {
  JsonValue body = JsonValue::Object();
  body.Set("name", JsonValue(name));
  JsonValue columns = JsonValue::Array();
  for (const std::string& c : data.column_names()) {
    columns.Append(JsonValue(c));
  }
  body.Set("columns", std::move(columns));
  JsonValue rows = JsonValue::Array();
  for (size_t i = 0; i < data.num_rows(); ++i) {
    JsonValue row = JsonValue::Array();
    for (size_t j = 0; j < data.num_cols(); ++j) {
      row.Append(JsonValue(data.Get(i, j)));
    }
    rows.Append(std::move(row));
  }
  body.Set("rows", std::move(rows));
  return WriteJson(body);
}

/// A fast /v1/mine body. `num_queries` varies the workload recipe and
/// therefore the cache key, so each chaos phase trains a fresh entry;
/// `shards` > 1 routes exact evaluation through the sharded scan (the
/// shard.evaluate site).
std::string MineBody(int num_queries, int shards = 1) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      R"({"api_version": 2, "dataset": "synth",
          "query": {"kind": "threshold",
                    "statistic": {"kind": "count", "region_cols": [0, 1]},
                    "threshold": 800.0},
          "search": {"finder": {"gso": {"max_iterations": 25},
                                "use_kde_guidance": false}},
          "training": {"workload": {"num_queries": %d},
                       "surrogate": {"gbrt": {"n_estimators": 40}}},
          "execution": {"shards": %d, "use_kde": false}})",
      num_queries, shards);
  return buf;
}

/// MiningService + SurfHandler (failpoint admin on) + HttpServer on an
/// ephemeral loopback port. Clears the failpoint registry on teardown
/// so no injected fault leaks out of a test.
struct ChaosServer {
  explicit ChaosServer(MiningService::Options service_options = {},
                       HttpServer::Options http_options = {}) {
    service = std::make_unique<MiningService>(service_options);
    metrics = std::make_unique<ServerMetrics>();
    SurfHandler::Options handler_options;
    handler_options.enable_failpoint_admin = true;
    handler = std::make_unique<SurfHandler>(service.get(), metrics.get(),
                                            handler_options);
    http_options.port = 0;
    server =
        std::make_unique<HttpServer>(http_options, handler->AsHttpHandler());
    handler->set_transport_stats_provider(
        [this] { return server->stats(); });
    start_status = server->Start();
  }

  ~ChaosServer() { FailpointRegistry::Global().ClearAll(); }

  bool RegisterData(ChaosClient* client, const Dataset& data) {
    return client->Request("POST", "/v1/datasets",
                           InlineDatasetBody("synth", data))
               .status == 201;
  }

  /// Arms failpoints through the admin API (the suite exercises the
  /// admin surface itself this way).
  bool Arm(ChaosClient* client, const std::string& spec, uint64_t seed = 1) {
    JsonValue body = JsonValue::Object();
    body.Set("spec", JsonValue(spec));
    body.Set("seed", JsonValue(static_cast<double>(seed)));
    return client->Request("POST", "/v1/failpoints", WriteJson(body))
               .status == 200;
  }

  bool Disarm(ChaosClient* client) {
    return client->Request("DELETE", "/v1/failpoints").status == 200;
  }

  std::unique_ptr<MiningService> service;
  std::unique_ptr<ServerMetrics> metrics;
  std::unique_ptr<SurfHandler> handler;
  std::unique_ptr<HttpServer> server;
  Status start_status = Status::OK();
};

/// Sites the suite has driven end-to-end; the final test asserts this
/// covers the compiled catalogue.
std::set<std::string>& CoveredSites() {
  static std::set<std::string> covered;
  return covered;
}

// ----------------------------------------------------------------- tests

TEST(ChaosAdminTest, FailpointRoutesExistOnlyWhenEnabled) {
  // Disabled (default) handler: the admin surface genuinely 404s.
  {
    MiningService service;
    ServerMetrics metrics;
    SurfHandler handler(&service, &metrics);
    HttpServer::Options options;
    options.port = 0;
    HttpServer server(options, handler.AsHttpHandler());
    ASSERT_TRUE(server.Start().ok());
    ChaosClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    EXPECT_EQ(client.Request("GET", "/v1/failpoints").status, 404);
    EXPECT_EQ(client
                  .Request("POST", "/v1/failpoints",
                           R"({"spec": "serve.train=error"})")
                  .status,
              404);
    server.Shutdown();
    EXPECT_FALSE(FailpointRegistry::active());
  }

  ChaosServer cs;
  ASSERT_TRUE(cs.start_status.ok()) << cs.start_status.ToString();
  ChaosClient client;
  ASSERT_TRUE(client.Connect(cs.server->port()));

  // Empty registry, full catalogue.
  ChaosResponse list = client.Request("GET", "/v1/failpoints");
  ASSERT_EQ(list.status, 200);
  auto parsed = ParseJson(list.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("failpoints")->size(), 0u);
  EXPECT_EQ(parsed->Find("known_sites")->size(),
            FailpointRegistry::KnownSites().size());

  // Arm + echo, then clear one site, then clear all.
  ASSERT_TRUE(cs.Arm(&client, "serve.train=error,cache.insert=prob:0.5",
                     /*seed=*/42));
  list = client.Request("GET", "/v1/failpoints");
  parsed = ParseJson(list.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("failpoints")->size(), 2u);
  EXPECT_EQ(parsed->Find("seed")->number_value(), 42.0);

  EXPECT_EQ(client.Request("DELETE", "/v1/failpoints/serve.train").status,
            200);
  EXPECT_EQ(client.Request("DELETE", "/v1/failpoints/serve.train").status,
            404);
  // Malformed specs are rejected whole.
  EXPECT_EQ(client
                .Request("POST", "/v1/failpoints",
                         R"({"spec": "serve.train=prob:2.0"})")
                .status,
            400);
  EXPECT_EQ(client.Request("POST", "/v1/failpoints", "{}").status, 400);
  ASSERT_TRUE(cs.Disarm(&client));
  EXPECT_FALSE(FailpointRegistry::active());
}

TEST(ChaosSiteTest, DataLoadCsvFailureAnswers500AndRecovers) {
  ChaosServer cs;
  ASSERT_TRUE(cs.start_status.ok());
  ChaosClient client;
  ASSERT_TRUE(client.Connect(cs.server->port()));

  // A real CSV on disk, so only the injected fault can fail the load.
  const std::string csv_path = ::testing::TempDir() + "chaos_data.csv";
  {
    std::FILE* f = std::fopen(csv_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("x,y\n1,2\n3,4\n5,6\n", f);
    std::fclose(f);
  }
  const std::string body =
      R"({"name": "fromcsv", "path": ")" + csv_path + R"("})";

  ASSERT_TRUE(cs.Arm(&client, "data.load_csv=error"));
  ChaosResponse failed = client.Request("POST", "/v1/datasets", body);
  EXPECT_EQ(failed.status, 500);
  EXPECT_NE(failed.body.find("data.load_csv"), std::string::npos);

  ASSERT_TRUE(cs.Disarm(&client));
  EXPECT_EQ(client.Request("POST", "/v1/datasets", body).status, 201);
  CoveredSites().insert("data.load_csv");
  std::remove(csv_path.c_str());
}

TEST(ChaosSiteTest, TrainingFailureAnswers500ThenRetrainsCleanly) {
  const SyntheticDataset ds = MakeChaosData();
  ChaosServer cs;
  ASSERT_TRUE(cs.start_status.ok());
  ChaosClient client;
  ASSERT_TRUE(client.Connect(cs.server->port()));
  ASSERT_TRUE(cs.RegisterData(&client, ds.data));

  ASSERT_TRUE(cs.Arm(&client, "serve.train=error"));
  ChaosResponse failed = client.Request("POST", "/v1/mine", MineBody(800));
  EXPECT_EQ(failed.status, 500);
  EXPECT_NE(failed.body.find("internal"), std::string::npos);
  // No stranded entry: the failed training left the cache empty.
  EXPECT_EQ(cs.service->cache().size(), 0u);

  ASSERT_TRUE(cs.Disarm(&client));
  ChaosResponse ok = client.Request("POST", "/v1/mine", MineBody(800));
  EXPECT_EQ(ok.status, 200);
  auto parsed = ParseJson(ok.body);
  ASSERT_TRUE(parsed.ok());
  // The recovered answer is a fresh fit, not a degraded leftover.
  EXPECT_EQ(parsed->Find("provenance")->Find("degraded"), nullptr);
  CoveredSites().insert("serve.train");
}

TEST(ChaosSiteTest, CacheInsertFailureAnswers500AndLeavesCacheCoherent) {
  const SyntheticDataset ds = MakeChaosData();
  ChaosServer cs;
  ASSERT_TRUE(cs.start_status.ok());
  ChaosClient client;
  ASSERT_TRUE(client.Connect(cs.server->port()));
  ASSERT_TRUE(cs.RegisterData(&client, ds.data));

  ASSERT_TRUE(cs.Arm(&client, "cache.insert=error"));
  EXPECT_EQ(client.Request("POST", "/v1/mine", MineBody(801)).status, 500);
  EXPECT_EQ(cs.service->cache().size(), 0u);

  ASSERT_TRUE(cs.Disarm(&client));
  EXPECT_EQ(client.Request("POST", "/v1/mine", MineBody(801)).status, 200);
  EXPECT_EQ(cs.service->cache().size(), 1u);
  // And the recovered entry is a genuine cache entry: a replay hits.
  ChaosResponse replay = client.Request("POST", "/v1/mine", MineBody(801));
  EXPECT_EQ(replay.status, 200);
  EXPECT_NE(replay.body.find("\"cache_hit\":true"), std::string::npos);
  CoveredSites().insert("cache.insert");
}

TEST(ChaosSiteTest, ShardEvaluateFailureDegradesResultsNotTheServer) {
  const SyntheticDataset ds = MakeChaosData();
  ChaosServer cs;
  ASSERT_TRUE(cs.start_status.ok());
  ChaosClient client;
  ASSERT_TRUE(client.Connect(cs.server->port()));
  ASSERT_TRUE(cs.RegisterData(&client, ds.data));

  // shard.evaluate has no status channel: a fired hit yields an
  // undefined statistic (NaN) for that evaluation. Training labels
  // and validations carry NaNs, threshold comparisons go false — the
  // request must still complete (200), never crash or hang.
  ASSERT_TRUE(cs.Arm(&client, "shard.evaluate=prob:0.3", /*seed=*/9));
  ChaosResponse noisy =
      client.Request("POST", "/v1/mine", MineBody(802, /*shards=*/4));
  EXPECT_EQ(noisy.status, 200);
  ASSERT_TRUE(ParseJson(noisy.body).ok());

  ASSERT_TRUE(cs.Disarm(&client));
  EXPECT_EQ(client
                .Request("POST", "/v1/mine", MineBody(803, /*shards=*/4))
                .status,
            200);
  CoveredSites().insert("shard.evaluate");
}

TEST(ChaosSiteTest, NetWriteFailureDropsConnectionNotServer) {
  const SyntheticDataset ds = MakeChaosData();
  ChaosServer cs;
  ASSERT_TRUE(cs.start_status.ok());
  ChaosClient client;
  ASSERT_TRUE(client.Connect(cs.server->port()));
  ASSERT_TRUE(cs.RegisterData(&client, ds.data));

  // Armed directly (not via HTTP): the admin response's own socket
  // write would hit the failpoint too.
  ASSERT_TRUE(FailpointRegistry::Global().Set("net.write", "error").ok());
  ChaosResponse dropped = client.Request("GET", "/healthz");
  EXPECT_EQ(dropped.status, 0);  // connection died, no response bytes

  FailpointRegistry::Global().ClearAll();
  EXPECT_GE(cs.server->stats().write_failures, 1u);
  // The server survives: a fresh connection serves normally.
  ChaosClient fresh;
  ASSERT_TRUE(fresh.Connect(cs.server->port()));
  EXPECT_EQ(fresh.Request("GET", "/healthz").status, 200);
  CoveredSites().insert("net.write");
}

TEST(ChaosContractTest, DelayActionSlowsButServes) {
  ChaosServer cs;
  ASSERT_TRUE(cs.start_status.ok());
  ChaosClient client;
  ASSERT_TRUE(client.Connect(cs.server->port()));

  ASSERT_TRUE(
      FailpointRegistry::Global().Set("net.write", "delay:120").ok());
  const auto started = std::chrono::steady_clock::now();
  ChaosResponse slow = client.Request("GET", "/healthz");
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  EXPECT_EQ(slow.status, 200);
  EXPECT_GE(elapsed, 0.1);
  FailpointRegistry::Global().ClearAll();
}

TEST(ChaosContractTest, BreakerAnswers503WithRetryAfterOverHttp) {
  const SyntheticDataset ds = MakeChaosData();
  MiningService::Options options;
  options.num_threads = 2;
  options.cache.breaker_failure_threshold = 2;
  options.cache.breaker_open_seconds = 60.0;
  ChaosServer cs(options);
  ASSERT_TRUE(cs.start_status.ok());
  ChaosClient client;
  ASSERT_TRUE(client.Connect(cs.server->port()));
  ASSERT_TRUE(cs.RegisterData(&client, ds.data));

  ASSERT_TRUE(cs.Arm(&client, "serve.train=error"));
  EXPECT_EQ(client.Request("POST", "/v1/mine", MineBody(810)).status, 500);
  EXPECT_EQ(client.Request("POST", "/v1/mine", MineBody(810)).status, 500);

  ChaosResponse refused = client.Request("POST", "/v1/mine", MineBody(810));
  EXPECT_EQ(refused.status, 503);
  EXPECT_NE(refused.body.find("unavailable"), std::string::npos);
  const std::string* retry_after = refused.FindHeader("retry-after");
  ASSERT_NE(retry_after, nullptr);
  EXPECT_GE(std::atoi(retry_after->c_str()), 1);
  EXPECT_LE(std::atoi(retry_after->c_str()), 60);
  EXPECT_EQ(cs.service->cache().stats().breaker_rejections, 1u);
  ASSERT_TRUE(cs.Disarm(&client));
}

TEST(ChaosContractTest, StaleServeIsLabelledDegradedOverHttp) {
  const SyntheticDataset ds = MakeChaosData();
  MiningService::Options options;
  options.num_threads = 2;
  options.cache.max_age_seconds = 0.0;  // stale immediately
  ChaosServer cs(options);
  ASSERT_TRUE(cs.start_status.ok());
  ChaosClient client;
  ASSERT_TRUE(client.Connect(cs.server->port()));
  ASSERT_TRUE(cs.RegisterData(&client, ds.data));

  ChaosResponse first = client.Request("POST", "/v1/mine", MineBody(820));
  ASSERT_EQ(first.status, 200);
  // No failpoints: the envelope carries no degraded marker at all (the
  // byte-compat contract for healthy serving).
  EXPECT_EQ(first.body.find("degraded"), std::string::npos);

  ASSERT_TRUE(cs.Arm(&client, "serve.train=error"));
  ChaosResponse degraded = client.Request("POST", "/v1/mine", MineBody(820));
  ASSERT_EQ(degraded.status, 200);
  auto parsed = ParseJson(degraded.body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* provenance = parsed->Find("provenance");
  ASSERT_NE(provenance, nullptr);
  ASSERT_NE(provenance->Find("degraded"), nullptr);
  EXPECT_TRUE(provenance->Find("degraded")->bool_value());
  EXPECT_NE(provenance->Find("degraded_reason"), nullptr);
  EXPECT_GE(cs.service->cache().stats().degraded_serves, 1u);
  ASSERT_TRUE(cs.Disarm(&client));

  // /metrics exports the degradation counters.
  ChaosResponse metrics = client.Request("GET", "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(
      metrics.body.find("surf_cache_requests_total{outcome=\"degraded\"}"),
      std::string::npos);
  EXPECT_NE(metrics.body.find("surf_cache_training_failures_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("surf_http_worker_exceptions_total"),
            std::string::npos);
}

TEST(ChaosContractTest, NegativeCacheFailsFastOverHttp) {
  const SyntheticDataset ds = MakeChaosData();
  MiningService::Options options;
  options.num_threads = 2;
  options.cache.negative_ttl_seconds = 60.0;
  ChaosServer cs(options);
  ASSERT_TRUE(cs.start_status.ok());
  ChaosClient client;
  ASSERT_TRUE(client.Connect(cs.server->port()));
  ASSERT_TRUE(cs.RegisterData(&client, ds.data));

  ASSERT_TRUE(cs.Arm(&client, "serve.train=error"));
  EXPECT_EQ(client.Request("POST", "/v1/mine", MineBody(830)).status, 500);
  ASSERT_TRUE(cs.Disarm(&client));

  // The fault is gone, but inside the TTL the remembered failure is
  // replayed without paying for another training.
  const auto started = std::chrono::steady_clock::now();
  ChaosResponse replayed = client.Request("POST", "/v1/mine", MineBody(830));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  EXPECT_EQ(replayed.status, 500);
  EXPECT_LT(elapsed, 1.0);  // fail-fast, no retrain
  EXPECT_EQ(cs.service->cache().stats().negative_hits, 1u);
  EXPECT_EQ(cs.service->cache().stats().training_failures, 1u);
}

TEST(ChaosContractTest, DrainStaysIntactUnderInjectedFaults) {
  const SyntheticDataset ds = MakeChaosData();
  MiningService::Options service_options;
  service_options.num_threads = 4;
  HttpServer::Options http_options;
  http_options.max_inflight = 32;
  ChaosServer cs(service_options, http_options);
  ASSERT_TRUE(cs.start_status.ok());
  {
    ChaosClient setup;
    ASSERT_TRUE(setup.Connect(cs.server->port()));
    ASSERT_TRUE(cs.RegisterData(&setup, ds.data));
    ASSERT_TRUE(
        cs.Arm(&setup, "serve.train=prob:0.4,shard.evaluate=prob:0.2",
               /*seed=*/3));
  }

  // Concurrent mining under injected faults, then a graceful drain.
  // Every request must get a complete, validly-coded response; the
  // server must survive to its Shutdown with coherent counters.
  constexpr int kClients = 8;
  std::atomic<int> completed{0};
  std::atomic<int> invalid{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ChaosClient c;
      if (!c.Connect(cs.server->port())) return;
      for (int r = 0; r < 3; ++r) {
        const ChaosResponse response =
            c.Request("POST", "/v1/mine", MineBody(840 + i, /*shards=*/2));
        if (response.status == 200 || response.status == 500 ||
            response.status == 503 || response.status == 429) {
          ++completed;
        } else {
          ++invalid;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(invalid.load(), 0);
  EXPECT_EQ(completed.load(), kClients * 3);

  cs.server->Shutdown();
  const HttpServer::Stats stats = cs.server->stats();
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_GE(stats.requests_served,
            static_cast<uint64_t>(kClients * 3));
  EXPECT_EQ(stats.worker_exceptions, 0u);  // failures map to statuses
  // The cache came out coherent: every request was accounted a hit or
  // a miss, and no slot is stuck mid-training (size() takes the cache
  // lock — it would deadlock or crash on a corrupted table).
  FailpointRegistry::Global().ClearAll();
  const SurrogateCache::Stats cache_stats = cs.service->cache().stats();
  EXPECT_GE(cache_stats.hits + cache_stats.misses, 1u);
  EXPECT_LE(cs.service->cache().size(),
            static_cast<size_t>(kClients));
}

// ------------------------------------------------- distributed scatter

/// One in-process worker surfd for the cluster chaos tests: service +
/// handler + server on an ephemeral loopback port, dataset pre-registered.
struct ChaosWorker {
  explicit ChaosWorker(const Dataset& data) {
    service = std::make_unique<MiningService>();
    EXPECT_TRUE(service->RegisterDataset("synth", data).ok());
    metrics = std::make_unique<ServerMetrics>();
    handler = std::make_unique<SurfHandler>(service.get(), metrics.get());
    HttpServer::Options options;
    options.port = 0;
    server = std::make_unique<HttpServer>(options, handler->AsHttpHandler());
    EXPECT_TRUE(server->Start().ok());
  }

  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(server->port());
  }

  std::unique_ptr<MiningService> service;
  std::unique_ptr<ServerMetrics> metrics;
  std::unique_ptr<SurfHandler> handler;
  std::unique_ptr<HttpServer> server;
};

TEST(ChaosSiteTest, DistShardRpcFailureReHomesOntoAnotherWorker) {
  // The dist.shard_rpc site fires inside the coordinator's per-attempt
  // RPC loop. Pick a seed (deterministically, by probing the registry's
  // reproducible fire sequence) where exactly one of the two first-
  // attempt hits fires and the next several do not: one shard group then
  // fails its first worker, re-homes onto the other, and succeeds — all
  // over real worker HTTP.
  const SyntheticDataset ds = MakeChaosData();
  ChaosWorker w0(ds.data);
  ChaosWorker w1(ds.data);
  dist::WorkerPool pool({w0.endpoint(), w1.endpoint()},
                        /*rpc_timeout_seconds=*/30.0);
  ASSERT_TRUE(pool.status().ok());

  ASSERT_TRUE(
      FailpointRegistry::Global().Set("dist.shard_rpc", "prob:0.35").ok());
  uint64_t chosen = 0;
  for (uint64_t seed = 1; seed < 20000 && chosen == 0; ++seed) {
    FailpointRegistry::Global().SetSeed(seed);  // resets the hit counter
    bool fired[12];
    for (bool& f : fired) f = !MaybeFailpoint("dist.shard_rpc").ok();
    const int early = (fired[0] ? 1 : 0) + (fired[1] ? 1 : 0);
    bool later = false;
    for (int i = 2; i < 12; ++i) later = later || fired[i];
    if (early == 1 && !later) chosen = seed;
  }
  ASSERT_NE(chosen, 0u) << "no seed gives the fail-once pattern";
  FailpointRegistry::Global().SetSeed(chosen);  // rewind for the real run

  const Statistic stat = Statistic::Count({0, 1});
  dist::ClusterEvaluator::Options options;
  options.dataset = "synth";
  options.num_shards = 2;
  dist::ClusterEvaluator cluster(&pool, stat, options);
  std::vector<Region> queries;
  queries.emplace_back(std::vector<double>{0.5, 0.5},
                       std::vector<double>{0.3, 0.3});
  queries.emplace_back(std::vector<double>{0.25, 0.75},
                       std::vector<double>{0.2, 0.1});
  const std::vector<double> labels =
      cluster.EvaluateBatch(queries, CancelToken());
  FailpointRegistry::Global().ClearAll();

  // The failed group re-homed and the batch still labelled everything —
  // degraded, but with real values, not NaN.
  ASSERT_EQ(labels.size(), queries.size());
  for (double label : labels) EXPECT_FALSE(std::isnan(label));
  EXPECT_TRUE(cluster.degraded());
  EXPECT_NE(cluster.degraded_reason().find("re-homed"), std::string::npos)
      << cluster.degraded_reason();
  EXPECT_EQ(pool.shard_retries(), 1u);
  CoveredSites().insert("dist.shard_rpc");
}

TEST(ChaosContractTest, ClusterSurvivesWorkerDeathWithOneWorkerLeft) {
  // Full-stack single-worker-left path: a coordinator surfd configured
  // with two workers loses one mid-deployment. A cluster-mode /v1/mine
  // over real HTTP must still answer 200, labelled from the surviving
  // worker, with degraded provenance and the dist metrics exported.
  const SyntheticDataset ds = MakeChaosData();
  ChaosWorker w0(ds.data);
  ChaosWorker w1(ds.data);

  MiningService::Options coordinator_options;
  coordinator_options.num_threads = 2;
  coordinator_options.cluster_workers = {w0.endpoint(), w1.endpoint()};
  ChaosServer cs(coordinator_options);
  ASSERT_TRUE(cs.start_status.ok());
  ChaosClient client;
  ASSERT_TRUE(client.Connect(cs.server->port()));
  ASSERT_TRUE(cs.RegisterData(&client, ds.data));

  // Kill worker 1: its port now refuses connections.
  w1.server->Shutdown();

  const std::string body =
      R"({"api_version": 2, "dataset": "synth",
          "query": {"kind": "threshold",
                    "statistic": {"kind": "count", "region_cols": [0, 1]},
                    "threshold": 800.0},
          "search": {"finder": {"gso": {"max_iterations": 15},
                                "use_kde_guidance": false}},
          "training": {"workload": {"num_queries": 200},
                       "surrogate": {"gbrt": {"n_estimators": 20}}},
          "execution": {"shards": 2, "cluster": true, "use_kde": false}})";
  ChaosResponse response = client.Request("POST", "/v1/mine", body);
  ASSERT_EQ(response.status, 200) << response.body;
  auto parsed = ParseJson(response.body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* provenance = parsed->Find("provenance");
  ASSERT_NE(provenance, nullptr);
  ASSERT_NE(provenance->Find("degraded"), nullptr);
  EXPECT_TRUE(provenance->Find("degraded")->bool_value());
  EXPECT_NE(provenance->Find("degraded_reason")->string_value().find(
                "re-homed"),
            std::string::npos)
      << provenance->Find("degraded_reason")->string_value();

  // The coordinator's /metrics carries the cluster series: the re-home
  // counter moved and the dead worker reads unhealthy.
  ChaosResponse metrics = client.Request("GET", "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("surf_dist_shard_retries_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("surf_dist_worker_unhealthy{worker=\"" +
                              w1.endpoint() + "\"} 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("surf_dist_worker_unhealthy{worker=\"" +
                              w0.endpoint() + "\"} 0"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("surf_dist_worker_request_seconds_bucket"),
            std::string::npos);
}

// Must run last in file order (gtest runs tests in declaration order
// within a translation unit): the catalogue-coverage gate.
TEST(ChaosCoverageTest, EveryCompiledFailpointSiteWasExercised) {
  for (const std::string& site : FailpointRegistry::KnownSites()) {
    EXPECT_TRUE(CoveredSites().count(site))
        << "failpoint site '" << site
        << "' is compiled in but the chaos suite never drove it; add a "
           "ChaosSiteTest for it";
  }
}

}  // namespace
}  // namespace surf
