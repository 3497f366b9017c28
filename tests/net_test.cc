// Tests for the src/net HTTP front-end: transport behaviour of
// HttpServer (admission control / 429, per-request deadlines / 408,
// graceful drain) and the SurfHandler JSON API, including the HTTP
// parity check — a MineRequest served over loopback HTTP must yield
// regions bit-identical to the same request served in-process, and the
// second HTTP request must be a cache hit with identical provenance.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "net/http_server.h"
#include "net/json_codec.h"
#include "net/metrics.h"
#include "net/surf_handler.h"
#include "serve/mining_service.h"
#include "util/json.h"

namespace surf {
namespace {

// ------------------------------------------------------- test HTTP client

struct ClientResponse {
  int status = 0;
  std::string body;
  bool connection_close = false;
};

/// A request as the test clients send it: Host, then `headers`.
std::string RawRequest(const std::string& method, const std::string& path,
                       const HttpHeaders& headers,
                       const std::string& body = "") {
  HttpHeaders fields = {{"Host", "127.0.0.1"}};
  fields.insert(fields.end(), headers.begin(), headers.end());
  return http::SerializeRequest(method, path, fields, body);
}

/// Minimal blocking keep-alive HTTP/1.1 client for loopback tests; the
/// wire module frames what it sends and reads.
class TestClient {
 public:
  ~TestClient() { Close(); }

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

  bool SendRaw(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Sends one request and reads one full response.
  ClientResponse Request(const std::string& method, const std::string& path,
                         const std::string& body = "") {
    if (!SendRaw(RawRequest(method, path, {}, body))) return {};
    return ReadResponse();
  }

  ClientResponse ReadResponse() {
    // pending_ holds any bytes left over by the previous response: with
    // pipelining, one recv can carry the tail of several responses.
    ClientResponse response;
    HttpHeaders headers;
    if (!http::ReadResponse(
             &pending_, [this](std::string* buffer) { return Fill(buffer); },
             &response.status, &headers, &response.body)
             .ok()) {
      pending_.clear();
      return {};
    }
    const std::string* connection = FindHeader(headers, "connection");
    response.connection_close = connection != nullptr && *connection == "close";
    return response;
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    pending_.clear();
  }

  bool connected() const { return fd_ >= 0; }

 private:
  bool Fill(std::string* buffer) {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string pending_;
};

// ------------------------------------------------------------- fixtures

SyntheticDataset MakeTestData() {
  SyntheticSpec spec;
  spec.dims = 2;
  spec.num_gt_regions = 1;
  spec.statistic = SyntheticStatistic::kDensity;
  spec.num_background = 4000;
  spec.seed = 17;
  return SyntheticGenerator::Generate(spec);
}

/// The shared fast-mining recipe: small workload, short swarm, no
/// per-iteration KDE integrals — keeps each train+mine well under a
/// second on one core.
v2::MineRequest MakeTestRequest(const std::string& dataset,
                                const std::vector<size_t>& region_cols) {
  v2::MineRequest request;
  request.dataset = dataset;
  request.query.statistic = Statistic::Count(region_cols);
  request.query.threshold = 800.0;
  request.training.workload.num_queries = 800;
  request.search.finder.gso.max_iterations = 30;
  request.search.finder.use_kde_guidance = false;
  request.training.surrogate.gbrt.n_estimators = 60;
  return request;
}

/// JSON rows payload for inline registration of a dataset.
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

/// An HttpServer + MiningService + SurfHandler bundle on an ephemeral
/// loopback port.
struct TestServer {
  explicit TestServer(HttpServer::Options options = {},
                      MiningService::Options service_options = {}) {
    service = std::make_unique<MiningService>(service_options);
    metrics = std::make_unique<ServerMetrics>();
    handler = std::make_unique<SurfHandler>(service.get(), metrics.get());
    options.port = 0;
    server = std::make_unique<HttpServer>(options, handler->AsHttpHandler());
    start_status = server->Start();
  }

  std::unique_ptr<MiningService> service;
  std::unique_ptr<ServerMetrics> metrics;
  std::unique_ptr<SurfHandler> handler;
  std::unique_ptr<HttpServer> server;
  Status start_status = Status::OK();
};

// ----------------------------------------------------------------- tests

TEST(SurfHandlerTest, RoutingAndProbes) {
  TestServer ts;
  ASSERT_TRUE(ts.start_status.ok()) << ts.start_status.ToString();
  TestClient client;
  ASSERT_TRUE(client.Connect(ts.server->port()));

  ClientResponse health = client.Request("GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"ok\""), std::string::npos);

  EXPECT_EQ(client.Request("GET", "/nope").status, 404);
  EXPECT_EQ(client.Request("DELETE", "/v1/mine").status, 405);
  // Malformed JSON → 400 from the codec, not a connection drop.
  EXPECT_EQ(client.Request("POST", "/v1/mine", "{not json").status, 400);
  // Unknown dataset → 404 via Status mapping.
  ClientResponse missing = client.Request(
      "POST", "/v1/mine",
      R"({"dataset": "ghost", "statistic": {"region_cols": [0, 1]}})");
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("not_found"), std::string::npos);
}

TEST(SurfHandlerTest, DatasetRegistrationConflictsAndValidation) {
  TestServer ts;
  ASSERT_TRUE(ts.start_status.ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(ts.server->port()));

  const std::string body =
      R"({"name": "tiny", "columns": ["x", "y"],
          "rows": [[0, 0], [1, 1], [2, 0.5]]})";
  EXPECT_EQ(client.Request("POST", "/v1/datasets", body).status, 201);
  // Same name again → AlreadyExists → 409.
  EXPECT_EQ(client.Request("POST", "/v1/datasets", body).status, 409);
  // Ragged row → 400.
  EXPECT_EQ(client
                .Request("POST", "/v1/datasets",
                         R"({"name": "bad", "columns": ["x", "y"],
                             "rows": [[1, 2], [3]]})")
                .status,
            400);
  // Both path and rows → 400.
  EXPECT_EQ(client
                .Request("POST", "/v1/datasets",
                         R"({"name": "bad2", "path": "x.csv",
                             "columns": ["x"], "rows": [[1]]})")
                .status,
            400);
  // Missing CSV file → IOError → 500 (not a crash).
  EXPECT_EQ(client
                .Request("POST", "/v1/datasets",
                         R"({"name": "bad3",
                             "path": "/nonexistent/x.csv"})")
                .status,
            500);
}

TEST(SurfHandlerTest, HttpMineMatchesInProcessBitExactly) {
  const SyntheticDataset ds = MakeTestData();
  TestServer ts;
  ASSERT_TRUE(ts.start_status.ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(ts.server->port()));

  // Register over the wire (inline rows), so the server-side dataset
  // itself went through the JSON codec.
  ASSERT_EQ(client
                .Request("POST", "/v1/datasets",
                         InlineDatasetBody("synth", ds.data))
                .status,
            201);

  const v2::MineRequest request = MakeTestRequest("synth", ds.region_cols);
  const std::string wire = WriteJson(MineRequestV2ToJson(request));

  ClientResponse first = client.Request("POST", "/v1/mine", wire);
  ASSERT_EQ(first.status, 200) << first.body;
  auto first_json = ParseJson(first.body);
  ASSERT_TRUE(first_json.ok());
  auto first_response = MineResponseFromJson(*first_json);
  ASSERT_TRUE(first_response.ok()) << first_response.status().ToString();
  EXPECT_FALSE(first_response->cache_hit);
  ASSERT_FALSE(first_response->result.regions.empty());

  // In-process arm: an independent service instance, same dataset, same
  // request. The engine is deterministic, so regions must agree bit for
  // bit with what came over the wire.
  MiningService local;
  ASSERT_TRUE(local.RegisterDataset("synth", ds.data).ok());
  const v2::MineResponse in_process = local.Mine(request);
  ASSERT_TRUE(in_process.status.ok()) << in_process.status.ToString();

  ASSERT_EQ(first_response->result.regions.size(),
            in_process.result.regions.size());
  for (size_t i = 0; i < in_process.result.regions.size(); ++i) {
    const FoundRegion& http = first_response->result.regions[i];
    const FoundRegion& direct = in_process.result.regions[i];
    EXPECT_EQ(http.region, direct.region) << "region " << i;
    EXPECT_EQ(http.estimate, direct.estimate) << "region " << i;
    EXPECT_EQ(http.true_value, direct.true_value) << "region " << i;
    EXPECT_EQ(http.complies_true, direct.complies_true) << "region " << i;
  }
  EXPECT_EQ(first_response->provenance.dataset_fingerprint,
            in_process.provenance.dataset_fingerprint);
  EXPECT_EQ(first_response->provenance.training_set_size,
            in_process.provenance.training_set_size);
  EXPECT_EQ(first_response->provenance.holdout_rmse,
            in_process.provenance.holdout_rmse);

  // Second HTTP request: cache hit, identical provenance, identical
  // regions.
  ClientResponse second = client.Request("POST", "/v1/mine", wire);
  ASSERT_EQ(second.status, 200);
  auto second_response = MineResponseFromJson(*ParseJson(second.body));
  ASSERT_TRUE(second_response.ok());
  EXPECT_TRUE(second_response->cache_hit);
  EXPECT_EQ(second_response->provenance.dataset_fingerprint,
            first_response->provenance.dataset_fingerprint);
  EXPECT_EQ(second_response->provenance.training_set_size,
            first_response->provenance.training_set_size);
  EXPECT_EQ(second_response->provenance.holdout_rmse,
            first_response->provenance.holdout_rmse);
  EXPECT_EQ(second_response->provenance.train_seconds,
            first_response->provenance.train_seconds);
  ASSERT_EQ(second_response->result.regions.size(),
            first_response->result.regions.size());
  for (size_t i = 0; i < first_response->result.regions.size(); ++i) {
    EXPECT_EQ(second_response->result.regions[i].region,
              first_response->result.regions[i].region);
  }

  // The cache counters observable over the wire agree.
  auto stats = ParseJson(client.Request("GET", "/v1/cache/stats").body);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->Find("hits")->number_value(), 1.0);
  EXPECT_EQ(stats->Find("misses")->number_value(), 1.0);
}

TEST(SurfHandlerTest, BatchEndpointReportsPerRequestFailures) {
  const SyntheticDataset ds = MakeTestData();
  TestServer ts;
  ASSERT_TRUE(ts.start_status.ok());
  ASSERT_TRUE(ts.service->RegisterDataset("synth", ds.data).ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(ts.server->port()));

  JsonValue batch = JsonValue::Object();
  JsonValue requests = JsonValue::Array();
  requests.Append(
      MineRequestV2ToJson(MakeTestRequest("synth", ds.region_cols)));
  requests.Append(
      MineRequestV2ToJson(MakeTestRequest("missing", ds.region_cols)));
  batch.Set("requests", std::move(requests));

  ClientResponse response =
      client.Request("POST", "/v1/mine:batch", WriteJson(batch));
  ASSERT_EQ(response.status, 200) << response.body;
  auto json = ParseJson(response.body);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->Find("total")->number_value(), 2.0);
  EXPECT_EQ(json->Find("failed")->number_value(), 1.0);
  const auto& responses = json->Find("responses")->array();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].Find("status")->Find("code")->string_value(), "ok");
  EXPECT_EQ(responses[1].Find("status")->Find("code")->string_value(),
            "not_found");
}

TEST(SurfHandlerTest, EvaluationsEndpointFeedsWarmStartPool) {
  const SyntheticDataset ds = MakeTestData();
  TestServer ts;
  ASSERT_TRUE(ts.start_status.ok());
  ASSERT_TRUE(ts.service->RegisterDataset("synth", ds.data).ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(ts.server->port()));

  const v2::MineRequest request = MakeTestRequest("synth", ds.region_cols);
  ClientResponse mined =
      client.Request("POST", "/v1/mine",
                     WriteJson(MineRequestV2ToJson(request)));
  ASSERT_EQ(mined.status, 200);
  auto mined_response = MineResponseFromJson(*ParseJson(mined.body));
  ASSERT_TRUE(mined_response.ok());
  ASSERT_FALSE(mined_response->result.regions.empty());

  JsonValue body = JsonValue::Object();
  body.Set("request", MineRequestV2ToJson(request));
  JsonValue evaluations = JsonValue::Array();
  for (const FoundRegion& r : mined_response->result.regions) {
    JsonValue e = JsonValue::Object();
    e.Set("region", RegionToJson(r.region));
    e.Set("value", JsonValue(r.true_value));
    evaluations.Append(std::move(e));
  }
  body.Set("evaluations", std::move(evaluations));

  ClientResponse appended =
      client.Request("POST", "/v1/evaluations", WriteJson(body));
  ASSERT_EQ(appended.status, 200) << appended.body;
  auto appended_json = ParseJson(appended.body);
  ASSERT_TRUE(appended_json.ok());
  EXPECT_EQ(appended_json->Find("appended")->number_value(),
            static_cast<double>(mined_response->result.regions.size()));
  auto provenance =
      ProvenanceFromJson(*appended_json->Find("provenance"));
  ASSERT_TRUE(provenance.ok());
  EXPECT_EQ(provenance->pending_examples,
            mined_response->result.regions.size());

  // Dimension mismatch is rejected before touching the cache entry.
  JsonValue bad = JsonValue::Object();
  bad.Set("request", MineRequestV2ToJson(request));
  JsonValue bad_list = JsonValue::Array();
  JsonValue bad_entry = JsonValue::Object();
  bad_entry.Set("region", RegionToJson(Region({0.5}, {0.1})));
  bad_entry.Set("value", JsonValue(1.0));
  bad_list.Append(std::move(bad_entry));
  bad.Set("evaluations", std::move(bad_list));
  EXPECT_EQ(client.Request("POST", "/v1/evaluations", WriteJson(bad)).status,
            400);
}

TEST(SurfHandlerTest, MetricsExposeTransportAndCache) {
  TestServer ts;
  ASSERT_TRUE(ts.start_status.ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(ts.server->port()));
  client.Request("GET", "/healthz");
  client.Request("GET", "/nope");

  ClientResponse metrics = client.Request("GET", "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find(
                "surf_http_requests_total{route=\"/healthz\",code=\"200\"} 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find(
                "surf_http_requests_total{route=\"unmatched\",code=\"404\"} 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("surf_http_request_duration_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("surf_http_inflight_requests 1"),
            std::string::npos)
      << "the /metrics request itself is in flight";
  EXPECT_NE(metrics.body.find("surf_cache_hit_ratio"), std::string::npos);
}

// One decoded sample line of the Prometheus text exposition format.
struct PromSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;
};

/// Parses `name{label="v",...} value`; returns false with `*error` set
/// on any syntax violation of the exposition format.
bool ParsePromSample(const std::string& line, PromSample* out,
                     std::string* error) {
  const auto name_char = [](char c, bool first) {
    const unsigned char u = static_cast<unsigned char>(c);
    return std::isalpha(u) != 0 || c == '_' || c == ':' ||
           (!first && std::isdigit(u) != 0);
  };
  size_t i = 0;
  while (i < line.size() && name_char(line[i], i == 0)) ++i;
  if (i == 0) {
    *error = "missing metric name";
    return false;
  }
  out->name = line.substr(0, i);
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      const size_t label_start = i;
      while (i < line.size() &&
             (name_char(line[i], false) || std::isdigit(
                  static_cast<unsigned char>(line[i])) != 0)) {
        ++i;
      }
      if (i == label_start || i >= line.size() || line[i] != '=') {
        *error = "malformed label name";
        return false;
      }
      const std::string label_name = line.substr(label_start, i - label_start);
      ++i;
      if (i >= line.size() || line[i] != '"') {
        *error = "label value must be quoted";
        return false;
      }
      ++i;
      std::string label_value;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\') {
          ++i;
          if (i >= line.size()) {
            *error = "dangling escape in label value";
            return false;
          }
        }
        label_value.push_back(line[i]);
        ++i;
      }
      if (i >= line.size()) {
        *error = "unterminated label value";
        return false;
      }
      ++i;  // closing quote
      out->labels.emplace_back(label_name, label_value);
      if (i < line.size() && line[i] == ',') {
        ++i;
      } else if (i >= line.size() || line[i] != '}') {
        *error = "expected ',' or '}' after label";
        return false;
      }
    }
    if (i >= line.size()) {
      *error = "unterminated label set";
      return false;
    }
    ++i;  // '}'
  }
  if (i >= line.size() || line[i] != ' ') {
    *error = "expected single space before value";
    return false;
  }
  ++i;
  char* end = nullptr;
  out->value = std::strtod(line.c_str() + i, &end);
  if (end == line.c_str() + i || end != line.c_str() + line.size()) {
    *error = "unparseable sample value";
    return false;
  }
  return true;
}

/// Lints a /metrics body against the exposition format: every sample
/// belongs to a declared family (HELP before TYPE, TYPE before samples),
/// series are unique, and histogram buckets are cumulative with
/// le="+Inf" equal to _count — per label set, so labeled histograms
/// (e.g. the per-worker dist latency series) are checked worker by
/// worker.
void LintPrometheusExposition(const std::string& body) {
  std::set<std::string> helped;
  std::map<std::string, std::string> family_type;
  std::set<std::string> series_seen;
  // Histogram bookkeeping, keyed by family + labels-without-le.
  std::map<std::string, std::vector<double>> hist_buckets;
  std::map<std::string, double> hist_counts;
  std::set<std::string> hist_inf_seen;

  std::istringstream lines(body);
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    SCOPED_TRACE("line " + std::to_string(lineno) + ": " + line);
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) {
      const std::string rest = line.substr(7);
      const size_t space = rest.find(' ');
      ASSERT_NE(space, std::string::npos) << "HELP without text";
      helped.insert(rest.substr(0, space));
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const size_t space = rest.find(' ');
      ASSERT_NE(space, std::string::npos) << "TYPE without a type";
      const std::string name = rest.substr(0, space);
      const std::string type = rest.substr(space + 1);
      EXPECT_TRUE(type == "counter" || type == "gauge" ||
                  type == "histogram")
          << "unknown metric type '" << type << "'";
      EXPECT_EQ(helped.count(name), 1u) << "TYPE without preceding HELP";
      EXPECT_EQ(family_type.count(name), 0u) << "duplicate TYPE";
      family_type[name] = type;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unexpected comment form";

    PromSample sample;
    std::string error;
    ASSERT_TRUE(ParsePromSample(line, &sample, &error)) << error;

    // Histogram samples attach to their base family.
    std::string family = sample.name;
    std::string hist_suffix;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const size_t n = std::strlen(suffix);
      if (family.size() > n &&
          family.compare(family.size() - n, n, suffix) == 0) {
        const std::string base = family.substr(0, family.size() - n);
        const auto it = family_type.find(base);
        if (it != family_type.end() && it->second == "histogram") {
          family = base;
          hist_suffix = suffix;
          break;
        }
      }
    }
    EXPECT_EQ(family_type.count(family), 1u) << "sample without # TYPE";

    const std::string series = line.substr(0, line.rfind(' '));
    EXPECT_TRUE(series_seen.insert(series).second) << "duplicate series";

    if (family != sample.name) {
      std::string key = family;
      std::string le;
      for (const auto& [label, value] : sample.labels) {
        if (label == "le") {
          le = value;
        } else {
          key += "|" + label + "=" + value;
        }
      }
      if (hist_suffix == "_bucket") {
        EXPECT_FALSE(le.empty()) << "_bucket sample without an le label";
        hist_buckets[key].push_back(sample.value);
        if (le == "+Inf") hist_inf_seen.insert(key);
      } else if (hist_suffix == "_count") {
        hist_counts[key] = sample.value;
      }
    }
  }

  for (const auto& [key, buckets] : hist_buckets) {
    SCOPED_TRACE("histogram " + key);
    for (size_t i = 1; i < buckets.size(); ++i) {
      EXPECT_LE(buckets[i - 1], buckets[i]) << "buckets not cumulative";
    }
    EXPECT_EQ(hist_inf_seen.count(key), 1u) << "missing le=\"+Inf\" bucket";
    ASSERT_EQ(hist_counts.count(key), 1u) << "missing _count sample";
    EXPECT_EQ(buckets.back(), hist_counts[key])
        << "le=\"+Inf\" must equal _count";
  }
}

// The live /metrics endpoint passes the lint, and the series added by
// the tracing / shard-telemetry work are present.
TEST(SurfHandlerTest, MetricsPassPrometheusExpositionLint) {
  TestServer ts;
  ASSERT_TRUE(ts.start_status.ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(ts.server->port()));
  client.Request("GET", "/healthz");
  client.Request("GET", "/nope");

  const std::string body = client.Request("GET", "/metrics").body;
  ASSERT_FALSE(body.empty());
  LintPrometheusExposition(body);

  // The series introduced by the tracing + shard-telemetry layer.
  EXPECT_NE(
      body.find("surf_stage_seconds_bucket{stage=\"training\",le=\"+Inf\"}"),
      std::string::npos);
  EXPECT_NE(body.find("surf_shard_scan_total{action=\"pruned\"}"),
            std::string::npos);
  EXPECT_NE(body.find("surf_shard_scan_total{action=\"block_merged\"}"),
            std::string::npos);
  EXPECT_NE(body.find("surf_shard_scan_total{action=\"scanned\"}"),
            std::string::npos);
  EXPECT_NE(body.find("surf_accel_backend{backend=\""), std::string::npos);
}

// The cluster-coordinator series (surf_dist_*) pass the same lint: the
// per-worker latency histograms must be cumulative with a per-label-set
// le="+Inf" equal to that worker's _count, and health gauges emit one
// 0/1 sample per configured worker.
TEST(SurfHandlerTest, DistClusterMetricsPassExpositionLint) {
  ServerMetrics metrics;
  metrics.RecordRequest("/metrics", 200, 0.001);

  ServerMetrics::CacheFigures cache;
  ServerMetrics::ServiceFigures service;
  service.has_dist = true;
  service.dist_shard_retries = 3;

  ServerMetrics::ServiceFigures::DistWorkerFigures healthy;
  healthy.endpoint = "127.0.0.1:9001";
  healthy.healthy = true;
  healthy.buckets[2] = 5;   // raw counts; the renderer accumulates
  healthy.buckets[7] = 2;
  healthy.buckets[14] = 1;  // +Inf slot: one slow outlier
  healthy.latency_sum_seconds = 0.75;
  healthy.latency_count = 8;
  service.dist_workers.push_back(healthy);

  ServerMetrics::ServiceFigures::DistWorkerFigures down;
  down.endpoint = "127.0.0.1:9002";
  down.healthy = false;  // zero RPCs recorded: empty histogram is legal
  service.dist_workers.push_back(down);

  const std::string body = metrics.RenderPrometheus(cache, service);
  LintPrometheusExposition(body);

  EXPECT_NE(body.find("surf_dist_shard_retries_total 3"),
            std::string::npos);
  EXPECT_NE(
      body.find("surf_dist_worker_unhealthy{worker=\"127.0.0.1:9001\"} 0"),
      std::string::npos);
  EXPECT_NE(
      body.find("surf_dist_worker_unhealthy{worker=\"127.0.0.1:9002\"} 1"),
      std::string::npos);
  EXPECT_NE(body.find("surf_dist_worker_request_seconds_bucket{worker="
                      "\"127.0.0.1:9001\",le=\"+Inf\"} 8"),
            std::string::npos);
  EXPECT_NE(body.find("surf_dist_worker_request_seconds_count{worker="
                      "\"127.0.0.1:9001\"} 8"),
            std::string::npos);
  EXPECT_NE(body.find("surf_dist_worker_request_seconds_sum{worker="
                      "\"127.0.0.1:9001\"}"),
            std::string::npos);

  // Non-coordinator rendering stays byte-free of dist series.
  service.has_dist = false;
  EXPECT_EQ(metrics.RenderPrometheus(cache, service).find("surf_dist_"),
            std::string::npos);
}

// A traced mine request carries the summary block in its response, is
// retained for GET /v1/trace/{id} as Chrome trace-event JSON, and feeds
// the per-stage histograms — while untraced requests stay trace-free.
TEST(SurfHandlerTest, TraceRoundTripOverHttp) {
  TestServer ts;
  ASSERT_TRUE(ts.start_status.ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(ts.server->port()));

  const SyntheticDataset ds = MakeTestData();
  ASSERT_EQ(client
                .Request("POST", "/v1/datasets",
                         InlineDatasetBody("traced", ds.data))
                .status,
            201);

  v2::MineRequest request = MakeTestRequest("traced", {0, 1});
  request.execution.trace = true;
  ClientResponse mined =
      client.Request("POST", "/v1/mine",
                     WriteJson(MineRequestV2ToJson(request)));
  ASSERT_EQ(mined.status, 200) << mined.body;
  auto mined_json = ParseJson(mined.body);
  ASSERT_TRUE(mined_json.ok());
  const JsonValue* trace = mined_json->Find("trace");
  ASSERT_NE(trace, nullptr) << "traced request must carry a trace block";
  const JsonValue* trace_id = trace->Find("id");
  ASSERT_NE(trace_id, nullptr);
  const JsonValue* stage_seconds = trace->Find("stage_seconds");
  ASSERT_NE(stage_seconds, nullptr);
  ASSERT_NE(stage_seconds->Find("training"), nullptr);
  EXPECT_GT(stage_seconds->Find("training")->number_value(), 0.0);
  ASSERT_NE(trace->Find("spans"), nullptr);
  EXPECT_FALSE(trace->Find("spans")->array().empty());

  // The retained trace replays in the Chrome trace-event format.
  ClientResponse exported =
      client.Request("GET", "/v1/trace/" + trace_id->string_value());
  ASSERT_EQ(exported.status, 200) << exported.body;
  auto chrome = ParseJson(exported.body);
  ASSERT_TRUE(chrome.ok());
  const JsonValue* events = chrome->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array().empty());
  const JsonValue& first = events->array().front();
  EXPECT_NE(first.Find("name"), nullptr);
  ASSERT_NE(first.Find("ph"), nullptr);
  EXPECT_EQ(first.Find("ph")->string_value(), "X");

  // Unknown ids answer 404 with a JSON error.
  EXPECT_EQ(client.Request("GET", "/v1/trace/trace-999999").status, 404);

  // An untraced request stays byte-compatible: no trace key at all.
  ClientResponse plain = client.Request(
      "POST", "/v1/mine",
      WriteJson(MineRequestV2ToJson(MakeTestRequest("traced", {0, 1}))));
  ASSERT_EQ(plain.status, 200);
  auto plain_json = ParseJson(plain.body);
  ASSERT_TRUE(plain_json.ok());
  EXPECT_EQ(plain_json->Find("trace"), nullptr);

  // The traced run fed the per-stage histograms (process-global, so at
  // least the training stage must have a nonzero count by now).
  const std::string metrics = client.Request("GET", "/metrics").body;
  const size_t count_pos =
      metrics.find("surf_stage_seconds_count{stage=\"training\"} ");
  ASSERT_NE(count_pos, std::string::npos);
  EXPECT_NE(metrics.compare(count_pos,
                            std::strlen(
                                "surf_stage_seconds_count{stage=\"training\"} "
                                "0\n"),
                            "surf_stage_seconds_count{stage=\"training\"} 0\n"),
            0)
      << "traced request must record stage observations";

  // Shard-scan telemetry and the accel backend ride /v1/cache/stats too.
  ClientResponse stats = client.Request("GET", "/v1/cache/stats");
  ASSERT_EQ(stats.status, 200);
  auto stats_json = ParseJson(stats.body);
  ASSERT_TRUE(stats_json.ok());
  EXPECT_NE(stats_json->Find("shard_evals"), nullptr);
  const JsonValue* backend = stats_json->Find("accel_backend");
  ASSERT_NE(backend, nullptr);
  EXPECT_FALSE(backend->string_value().empty());
}

// Async job submissions expose per-phase wall time from the first poll.
TEST(SurfHandlerTest, JobProgressCarriesPhaseSeconds) {
  TestServer ts;
  ASSERT_TRUE(ts.start_status.ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(ts.server->port()));

  const SyntheticDataset ds = MakeTestData();
  ASSERT_EQ(client
                .Request("POST", "/v1/datasets",
                         InlineDatasetBody("phased", ds.data))
                .status,
            201);

  ClientResponse submitted = client.Request(
      "POST", "/v1/jobs",
      WriteJson(MineRequestV2ToJson(MakeTestRequest("phased", {0, 1}))));
  ASSERT_EQ(submitted.status, 202) << submitted.body;
  auto submitted_json = ParseJson(submitted.body);
  ASSERT_TRUE(submitted_json.ok());
  const JsonValue* progress = submitted_json->Find("progress");
  ASSERT_NE(progress, nullptr);
  EXPECT_NE(progress->Find("queued_seconds"), nullptr);
  EXPECT_NE(progress->Find("training_seconds"), nullptr);
  EXPECT_NE(progress->Find("searching_seconds"), nullptr);
  const std::string job_id =
      submitted_json->Find("job_id")->string_value();

  // Poll to completion; the final progress must account for the work:
  // training + searching both saw wall time.
  const JsonValue* final_progress = nullptr;
  JsonValue last_poll;
  for (int attempt = 0; attempt < 600; ++attempt) {
    ClientResponse polled = client.Request("GET", "/v1/jobs/" + job_id);
    ASSERT_EQ(polled.status, 200) << polled.body;
    auto poll_json = ParseJson(polled.body);
    ASSERT_TRUE(poll_json.ok());
    last_poll = std::move(*poll_json);
    const JsonValue* p = last_poll.Find("progress");
    ASSERT_NE(p, nullptr);
    if (p->Find("phase")->string_value() == "done") {
      final_progress = p;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  ASSERT_NE(final_progress, nullptr) << "job never finished";
  EXPECT_GT(final_progress->Find("training_seconds")->number_value(), 0.0);
  EXPECT_GT(final_progress->Find("searching_seconds")->number_value(), 0.0);
}

// ------------------------------------------------- transport behaviour

TEST(HttpServerTest, BackpressureAnswers429PastMaxInflight) {
  std::atomic<int> entered{0};
  std::atomic<bool> release{false};
  HttpServer::Options options;
  options.max_inflight = 2;
  options.num_workers = 2;
  HttpServer server(options, [&](const HttpRequest&) {
    entered.fetch_add(1);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    HttpResponse ok;
    ok.body = "{}";
    return ok;
  });
  ASSERT_TRUE(server.Start().ok());

  TestClient slow1, slow2;
  ASSERT_TRUE(slow1.Connect(server.port()));
  ASSERT_TRUE(slow2.Connect(server.port()));
  ASSERT_TRUE(slow1.SendRaw("GET /a HTTP/1.1\r\nContent-Length: 0\r\n\r\n"));
  ASSERT_TRUE(slow2.SendRaw("GET /b HTTP/1.1\r\nContent-Length: 0\r\n\r\n"));
  while (entered.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Both slots are held; the next connection must be turned away with
  // 429 by the acceptor without reaching the handler.
  TestClient rejected;
  ASSERT_TRUE(rejected.Connect(server.port()));
  ClientResponse overflow = rejected.Request("GET", "/c");
  EXPECT_EQ(overflow.status, 429);
  EXPECT_NE(overflow.body.find("overloaded"), std::string::npos);

  release.store(true);
  EXPECT_EQ(slow1.ReadResponse().status, 200);
  EXPECT_EQ(slow2.ReadResponse().status, 200);
  server.Shutdown();
  const HttpServer::Stats stats = server.stats();
  EXPECT_EQ(stats.connections_rejected, 1u);
  EXPECT_EQ(stats.requests_served, 2u);
  EXPECT_EQ(entered.load(), 2);
}

TEST(HttpServerTest, RequestDeadlineAnswers408) {
  HttpServer::Options options;
  options.request_deadline_seconds = 0.25;
  options.num_workers = 2;
  HttpServer server(options, [](const HttpRequest&) {
    HttpResponse ok;
    ok.body = "{}";
    return ok;
  });
  ASSERT_TRUE(server.Start().ok());

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  // A partial request that never completes: the read deadline must fire
  // and answer 408 rather than hold the worker hostage.
  ASSERT_TRUE(client.SendRaw("POST /v1/mine HTTP/1.1\r\nContent-Le"));
  ClientResponse response = client.ReadResponse();
  EXPECT_EQ(response.status, 408);
  server.Shutdown();
  EXPECT_EQ(server.stats().request_timeouts, 1u);
}

TEST(HttpServerTest, OversizedBodyAnswers413) {
  HttpServer::Options options;
  options.max_body_bytes = 128;
  options.num_workers = 1;
  HttpServer server(options, [](const HttpRequest&) {
    HttpResponse ok;
    ok.body = "{}";
    return ok;
  });
  ASSERT_TRUE(server.Start().ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  EXPECT_EQ(client.Request("POST", "/x", std::string(4096, 'a')).status, 413);
  server.Shutdown();
}

TEST(HttpServerTest, GracefulDrainServesEveryInflightRequest) {
  constexpr int kClients = 8;
  std::atomic<int> entered{0};
  HttpServer::Options options;
  options.max_inflight = kClients;
  options.num_workers = kClients;
  HttpServer server(options, [&](const HttpRequest&) {
    entered.fetch_add(1);
    // Slow handler: Shutdown() arrives while all of these are running.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    HttpResponse ok;
    ok.body = R"({"served": true})";
    return ok;
  });
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  std::atomic<int> completed{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, port] {
      TestClient client;
      if (!client.Connect(port)) return;
      ClientResponse response = client.Request("POST", "/work", "{}");
      if (response.status == 200 &&
          response.body.find("served") != std::string::npos) {
        completed.fetch_add(1);
      }
    });
  }
  while (entered.load() < kClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Drain while every request is mid-handler: all of them must still
  // receive complete responses (the acceptance criterion: no dropped
  // responses under load).
  server.Shutdown();
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(completed.load(), kClients);
  EXPECT_EQ(server.stats().requests_served,
            static_cast<uint64_t>(kClients));

  // After the drain the listener is gone: new connections are refused.
  TestClient late;
  EXPECT_FALSE(late.Connect(port));
}

TEST(HttpServerTest, KeepAliveServesManyRequestsPerConnection) {
  std::atomic<int> served{0};
  HttpServer::Options options;
  options.num_workers = 1;
  HttpServer server(options, [&](const HttpRequest& request) {
    served.fetch_add(1);
    HttpResponse ok;
    ok.body = "{\"target\": \"" + request.target + "\"}";
    return ok;
  });
  ASSERT_TRUE(server.Start().ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  for (int i = 0; i < 20; ++i) {
    ClientResponse response =
        client.Request("GET", "/req/" + std::to_string(i));
    ASSERT_EQ(response.status, 200);
    EXPECT_NE(response.body.find("/req/" + std::to_string(i)),
              std::string::npos);
    EXPECT_FALSE(response.connection_close);
  }
  server.Shutdown();
  EXPECT_EQ(served.load(), 20);
  EXPECT_EQ(server.stats().connections_accepted, 1u);
}

// --------------------------------- ISSUE 10: event loop + QoS transport

TEST(HttpServerTest, RejectFloodDoesNotStallAccept) {
  // Regression for the thread-per-connection accept path: 429 rejection
  // writes used to happen synchronously on the acceptor thread, so a
  // flood of slow rejected clients stalled accept for everyone. Now the
  // loop writes rejections asynchronously like any response: a probe
  // arriving behind a flood of held-open rejected connections must
  // still be answered promptly.
  std::atomic<bool> release{false};
  HttpServer::Options options;
  options.max_inflight = 1;
  options.num_workers = 1;
  HttpServer server(options, [&](const HttpRequest&) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    HttpResponse ok;
    ok.body = "{}";
    return ok;
  });
  ASSERT_TRUE(server.Start().ok());

  TestClient blocker;
  ASSERT_TRUE(blocker.Connect(server.port()));
  ASSERT_TRUE(blocker.SendRaw(RawRequest("POST", "/hold", {})));
  while (server.stats().inflight < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // The flood: rejected connections that never read their 429 and never
  // close. Each one's rejection write must not block the loop.
  constexpr int kFlood = 30;
  std::vector<TestClient> flood(kFlood);
  for (TestClient& client : flood) {
    ASSERT_TRUE(client.Connect(server.port()));
    ASSERT_TRUE(client.SendRaw(RawRequest("GET", "/flood", {})));
  }

  const auto probe_start = std::chrono::steady_clock::now();
  TestClient probe;
  ASSERT_TRUE(probe.Connect(server.port()));
  ASSERT_TRUE(probe.SendRaw(RawRequest("GET", "/probe", {})));
  ClientResponse answer = probe.ReadResponse();
  const double probe_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    probe_start)
          .count();
  EXPECT_EQ(answer.status, 429);
  EXPECT_LT(probe_seconds, 1.0)
      << "a rejected-connection flood stalled the accept path";

  release.store(true);
  EXPECT_EQ(blocker.ReadResponse().status, 200);
  server.Shutdown();
  EXPECT_GE(server.stats().connections_rejected,
            static_cast<uint64_t>(kFlood + 1));
}

TEST(HttpServerTest, IdleKeepAliveConnectionsDoNotStarveAdmission) {
  // Admission control counts in-flight *requests*, not connections: a
  // parked fleet of idle keep-alive connections far beyond max_inflight
  // must not consume admission slots.
  HttpServer::Options options;
  options.max_inflight = 2;
  options.num_workers = 2;
  HttpServer server(options, [](const HttpRequest&) {
    HttpResponse ok;
    ok.body = "{}";
    return ok;
  });
  ASSERT_TRUE(server.Start().ok());

  // Twice max_inflight connections, each completing one request and
  // then going idle (holding the connection open).
  std::vector<TestClient> parked(4);
  for (TestClient& client : parked) {
    ASSERT_TRUE(client.Connect(server.port()));
    ClientResponse response = client.Request("GET", "/warm");
    ASSERT_EQ(response.status, 200);
    EXPECT_FALSE(response.connection_close);
  }

  // A new client must be admitted: the parked fleet holds no slots.
  TestClient fresh;
  ASSERT_TRUE(fresh.Connect(server.port()));
  EXPECT_EQ(fresh.Request("GET", "/new").status, 200);
  // And the parked connections themselves are still serviceable.
  EXPECT_EQ(parked[0].Request("GET", "/again").status, 200);
  server.Shutdown();
  EXPECT_EQ(server.stats().connections_rejected, 0u);
  EXPECT_EQ(server.stats().requests_served, 6u);
}

TEST(HttpServerTest, PipelinedRequestsInOneSegmentBothAnswered) {
  // Bytes beyond the first request's Content-Length belong to the next
  // request and must be carried over, not dropped (the old reader threw
  // leftovers away with its recv buffer).
  HttpServer::Options options;
  options.num_workers = 1;
  HttpServer server(options, [](const HttpRequest& request) {
    HttpResponse ok;
    ok.body = "{\"target\": \"" + request.target + "\"}";
    return ok;
  });
  ASSERT_TRUE(server.Start().ok());

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  // Two complete requests in one TCP segment.
  ASSERT_TRUE(client.SendRaw(RawRequest("GET", "/first", {}) +
                             RawRequest("GET", "/second", {})));
  ClientResponse first = client.ReadResponse();
  ClientResponse second = client.ReadResponse();
  EXPECT_EQ(first.status, 200);
  EXPECT_NE(first.body.find("/first"), std::string::npos);
  EXPECT_EQ(second.status, 200);
  EXPECT_NE(second.body.find("/second"), std::string::npos);
  server.Shutdown();
  EXPECT_EQ(server.stats().requests_served, 2u);
  EXPECT_EQ(server.stats().connections_accepted, 1u);
}

TEST(HttpServerTest, MalformedHeaderEmptyNameAnswers400) {
  HttpServer::Options options;
  options.num_workers = 1;
  std::atomic<int> handled{0};
  HttpServer server(options, [&](const HttpRequest&) {
    handled.fetch_add(1);
    HttpResponse ok;
    ok.body = "{}";
    return ok;
  });
  ASSERT_TRUE(server.Start().ok());

  // A header line with an empty field name used to be accepted as a
  // header named "". It is malformed (RFC 9112 field-name is 1*tchar).
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.SendRaw(
      "GET /x HTTP/1.1\r\n: lonely-value\r\nContent-Length: 0\r\n\r\n"));
  EXPECT_EQ(client.ReadResponse().status, 400);

  // Whitespace-only names are just as empty after trimming.
  TestClient spaces;
  ASSERT_TRUE(spaces.Connect(server.port()));
  ASSERT_TRUE(spaces.SendRaw(
      "GET /x HTTP/1.1\r\n   : v\r\nContent-Length: 0\r\n\r\n"));
  EXPECT_EQ(spaces.ReadResponse().status, 400);

  server.Shutdown();
  EXPECT_EQ(handled.load(), 0) << "malformed request reached the handler";
  EXPECT_EQ(server.stats().parse_errors, 2u);
}

// RFC 9112 §6.3: Content-Length is 1*DIGIT, and several fields must
// agree, or the framing is unrecoverable (the disagreement request
// smuggling exploits). The cluster client applies the same rule.
TEST(HttpServerTest, ContentLengthMustBeDigitsAndAgree) {
  HttpServer::Options options;
  options.num_workers = 1;
  std::atomic<int> handled{0};
  HttpServer server(options, [&](const HttpRequest& request) {
    handled.fetch_add(1);
    HttpResponse echo;
    echo.body = request.body;
    return echo;
  });
  ASSERT_TRUE(server.Start().ok());

  for (const std::string lengths :
       {"Content-Length: +5\r\n", "Content-Length: -1\r\n",
        "Content-Length: 3\r\nContent-Length: 5\r\n"}) {
    SCOPED_TRACE(lengths);
    TestClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    ASSERT_TRUE(
        client.SendRaw("POST /x HTTP/1.1\r\n" + lengths + "\r\nhello"));
    const ClientResponse response = client.ReadResponse();
    EXPECT_EQ(response.status, 400);
    auto body = ParseJson(response.body);
    ASSERT_TRUE(body.ok()) << response.body;
    EXPECT_EQ(body->Find("error")->Find("code")->string_value(),
              "bad_request");
    EXPECT_EQ(body->Find("error")->Find("message")->string_value(),
              "invalid Content-Length");
  }

  // Equal fields frame the body they agree on.
  TestClient agreeing;
  ASSERT_TRUE(agreeing.Connect(server.port()));
  ASSERT_TRUE(agreeing.SendRaw(
      "POST /x HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\n"
      "hello"));
  const ClientResponse response = agreeing.ReadResponse();
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "hello");

  server.Shutdown();
  EXPECT_EQ(handled.load(), 1);
  EXPECT_EQ(server.stats().parse_errors, 3u);
}

TEST(HttpServerTest, TenantConcurrencyQuotaAnswers429AndRecovers) {
  std::atomic<bool> release{false};
  std::atomic<int> entered{0};
  HttpServer::Options options;
  options.num_workers = 4;
  options.qos.per_tenant["acme"].max_inflight = 1;
  HttpServer server(options, [&](const HttpRequest& request) {
    if (request.target == "/hold") {
      entered.fetch_add(1);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    HttpResponse ok;
    ok.body = "{}";
    return ok;
  });
  ASSERT_TRUE(server.Start().ok());

  TestClient holder;
  ASSERT_TRUE(holder.Connect(server.port()));
  ASSERT_TRUE(holder.SendRaw(
      RawRequest("POST", "/hold", {{"x-surf-tenant", "acme"}})));
  while (entered.load() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Same tenant: over quota. The 429 must keep the connection open —
  // a throttled tenant retrying should not pay a reconnect.
  TestClient same_tenant;
  ASSERT_TRUE(same_tenant.Connect(server.port()));
  ASSERT_TRUE(same_tenant.SendRaw(
      RawRequest("GET", "/fast", {{"x-surf-tenant", "acme"}})));
  ClientResponse over = same_tenant.ReadResponse();
  EXPECT_EQ(over.status, 429);
  EXPECT_NE(over.body.find("tenant_over_quota"), std::string::npos);
  EXPECT_FALSE(over.connection_close);

  // A different tenant is unaffected by acme's quota.
  TestClient other;
  ASSERT_TRUE(other.Connect(server.port()));
  ASSERT_TRUE(other.SendRaw(
      RawRequest("GET", "/fast", {{"x-surf-tenant", "zeta"}})));
  EXPECT_EQ(other.ReadResponse().status, 200);

  release.store(true);
  EXPECT_EQ(holder.ReadResponse().status, 200);

  // The slot came back with the response: same connection, same tenant,
  // now admitted.
  ASSERT_TRUE(same_tenant.SendRaw(
      RawRequest("GET", "/fast", {{"x-surf-tenant", "acme"}})));
  EXPECT_EQ(same_tenant.ReadResponse().status, 200);

  server.Shutdown();
  const HttpServer::Stats stats = server.stats();
  EXPECT_EQ(stats.tenant_over_quota, 1u);
  EXPECT_EQ(stats.connections_rejected, 0u);
  // Served = /hold, zeta's /fast, acme's retry; the 429 is not "served".
  EXPECT_EQ(stats.requests_served, 3u);
}

TEST(HttpServerTest, TenantRateLimitThrottlesOnlyTheMeteredTenant) {
  HttpServer::Options options;
  options.num_workers = 2;
  // One-token bucket that effectively never refills within the test.
  options.qos.per_tenant["metered"].rate = 0.001;
  options.qos.per_tenant["metered"].burst = 1.0;
  HttpServer server(options, [](const HttpRequest&) {
    HttpResponse ok;
    ok.body = "{}";
    return ok;
  });
  ASSERT_TRUE(server.Start().ok());

  TestClient metered;
  ASSERT_TRUE(metered.Connect(server.port()));
  ASSERT_TRUE(metered.SendRaw(
      RawRequest("GET", "/a", {{"x-surf-tenant", "metered"}})));
  EXPECT_EQ(metered.ReadResponse().status, 200);

  ASSERT_TRUE(metered.SendRaw(
      RawRequest("GET", "/b", {{"x-surf-tenant", "metered"}})));
  ClientResponse throttled = metered.ReadResponse();
  EXPECT_EQ(throttled.status, 429);
  EXPECT_NE(throttled.body.find("tenant_throttled"), std::string::npos);
  EXPECT_FALSE(throttled.connection_close);

  // Unmetered traffic (no tenant header → the unlimited "default"
  // tenant) flows freely the whole time.
  TestClient anon;
  ASSERT_TRUE(anon.Connect(server.port()));
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(anon.Request("GET", "/free").status, 200);
  }

  server.Shutdown();
  const HttpServer::Stats stats = server.stats();
  EXPECT_EQ(stats.tenant_throttled, 1u);
  EXPECT_EQ(stats.requests_served, 6u);
}

TEST(HttpServerTest, BatchFloodDoesNotBlockInteractiveRequests) {
  // Priority-inversion regression: with every batch worker wedged and
  // more batch work queued, an interactive request must still be served
  // immediately by the interactive pool.
  std::atomic<bool> release{false};
  std::atomic<int> batch_entered{0};
  HttpServer::Options options;
  options.num_workers = 1;
  options.batch_workers = 1;
  HttpServer server(options, [&](const HttpRequest& request) {
    if (request.target == "/batch-hold") {
      batch_entered.fetch_add(1);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    HttpResponse ok;
    ok.body = "{\"target\": \"" + request.target + "\"}";
    return ok;
  });
  ASSERT_TRUE(server.Start().ok());

  // Wedge the batch worker and stack a second batch request behind it.
  TestClient wedge, queued;
  ASSERT_TRUE(wedge.Connect(server.port()));
  ASSERT_TRUE(wedge.SendRaw(RawRequest(
      "POST", "/batch-hold", {{"x-surf-priority", "batch"}})));
  while (batch_entered.load() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(queued.Connect(server.port()));
  ASSERT_TRUE(queued.SendRaw(RawRequest(
      "POST", "/batch-fast", {{"x-surf-priority", "Batch"}})));

  // The interactive request completes while the batch class is wedged.
  const auto start = std::chrono::steady_clock::now();
  TestClient interactive;
  ASSERT_TRUE(interactive.Connect(server.port()));
  ClientResponse fast = interactive.Request("GET", "/interactive");
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_EQ(fast.status, 200);
  EXPECT_LT(seconds, 1.0) << "interactive request waited behind batch work";
  EXPECT_EQ(batch_entered.load(), 1) << "queued batch job jumped the wedge";

  release.store(true);
  EXPECT_EQ(wedge.ReadResponse().status, 200);
  EXPECT_EQ(queued.ReadResponse().status, 200);
  server.Shutdown();
  const HttpServer::Stats stats = server.stats();
  EXPECT_EQ(stats.batch_served, 2u);
  EXPECT_EQ(stats.requests_served, 3u);
}

TEST(HttpServerTest, DrainCompletesQueuedBacklogBeyondWorkerCount) {
  // Drain under load with a real backlog: more admitted requests than
  // workers, so some are still *queued* (not just mid-handler) when
  // Shutdown() arrives. Every one of them is owed a response.
  constexpr int kClients = 6;
  std::atomic<int> entered{0};
  HttpServer::Options options;
  options.num_workers = 1;
  options.max_inflight = kClients;
  HttpServer server(options, [&](const HttpRequest&) {
    entered.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    HttpResponse ok;
    ok.body = R"({"served": true})";
    return ok;
  });
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  std::atomic<int> completed{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, port] {
      TestClient client;
      if (!client.Connect(port)) return;
      if (client.Request("POST", "/work", "{}").status == 200) {
        completed.fetch_add(1);
      }
    });
  }
  // Shutdown once every request is admitted (the inflight gauge counts
  // queued dispatches too); with one worker, most of the backlog is
  // still sitting in the scheduler queue at this point.
  while (server.stats().inflight < kClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  server.Shutdown();
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(completed.load(), kClients);
  EXPECT_EQ(server.stats().requests_served,
            static_cast<uint64_t>(kClients));
}

// ------------------------------------------------- ISSUE 4: v2 + jobs

TEST(SurfHandlerTest, VersionEndpointReportsSchemaRange) {
  TestServer ts;
  ASSERT_TRUE(ts.start_status.ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(ts.server->port()));

  ClientResponse version = client.Request("GET", "/v1/version");
  ASSERT_EQ(version.status, 200);
  auto parsed = ParseJson(version.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("api_version")->number_value(), 2.0);
  EXPECT_EQ(parsed->Find("api_min_version")->number_value(), 1.0);
  EXPECT_TRUE(parsed->Find("library_version")->is_string());
  EXPECT_TRUE(parsed->Find("build")->is_object());
}

// ------------------------------------------------ v1 bodies over HTTP

/// MakeTestRequest("web", {0, 1}) written by hand in the flat v1 schema.
constexpr const char* kV1WebBody = R"({
  "dataset": "web",
  "statistic": {"kind": "count", "region_cols": [0, 1]},
  "threshold": 800,
  "workload": {"num_queries": 800},
  "finder": {"gso": {"max_iterations": 30}, "use_kde_guidance": false},
  "surrogate": {"gbrt": {"n_estimators": 60}}})";

/// The same request as a v2 body.
std::string V2WebBody() {
  return WriteJson(MineRequestV2ToJson(MakeTestRequest("web", {0, 1})));
}

/// Copy of `value` with every numeric member whose key ends in "seconds"
/// zeroed — the only wall-clock fields of the mining answers.
JsonValue BlankTimings(const JsonValue& value) {
  if (value.is_array()) {
    JsonValue out = JsonValue::Array();
    for (const JsonValue& e : value.array()) out.Append(BlankTimings(e));
    return out;
  }
  if (!value.is_object()) return value;
  JsonValue out = JsonValue::Object();
  for (const auto& [key, member] : value.members()) {
    const bool timing = member.is_number() && key.size() >= 7 &&
                        key.compare(key.size() - 7, 7, "seconds") == 0;
    out.Set(key, timing ? JsonValue(0.0) : BlankTimings(member));
  }
  return out;
}

/// Sends `mine_body` to a mine-body endpoint of a fresh server holding
/// the "web" dataset and returns "<status> <blanked answer>". For
/// /v1/jobs the answer is the terminal poll; /v1/mine:batch and
/// /v1/evaluations wrap the body in their envelopes.
std::string AnswerOnFreshServer(const std::string& endpoint,
                                const std::string& mine_body) {
  TestServer ts;
  EXPECT_TRUE(ts.start_status.ok());
  EXPECT_TRUE(ts.service->RegisterDataset("web", MakeTestData().data).ok());
  TestClient client;
  EXPECT_TRUE(client.Connect(ts.server->port()));

  std::string body = mine_body;
  if (endpoint == "/v1/mine:batch") {
    body = R"({"requests": [)" + mine_body + "]}";
  } else if (endpoint == "/v1/evaluations") {
    body = R"({"request": )" + mine_body +
           R"(, "evaluations": [{"region": {"center": [0.5, 0.5],
               "half_lengths": [0.1, 0.2]}, "value": 7}]})";
  }
  ClientResponse response = client.Request("POST", endpoint, body);
  if (endpoint == "/v1/jobs") {
    EXPECT_EQ(response.status, 202) << response.body;
    auto submitted = ParseJson(response.body);
    if (!submitted.ok()) return "bad submit";
    const std::string id = submitted->Find("job_id")->string_value();
    for (int i = 0; i < 30000; ++i) {
      response = client.Request("GET", "/v1/jobs/" + id);
      auto polled = ParseJson(response.body);
      if (!polled.ok() || polled->Find("response") != nullptr) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  auto json = ParseJson(response.body);
  if (!json.ok()) return std::to_string(response.status) + " unparsable";
  return std::to_string(response.status) + " " +
         WriteJson(BlankTimings(*json));
}

/// A literal v1 body and its v2 twin get byte-identical answers (timings
/// blanked) from `endpoint`.
void ExpectV1AnswersLikeV2(const std::string& endpoint) {
  const std::string v1 = AnswerOnFreshServer(endpoint, kV1WebBody);
  const std::string v2 = AnswerOnFreshServer(endpoint, V2WebBody());
  EXPECT_EQ(v1.substr(0, 4), "200 ") << v1;
  EXPECT_EQ(v1, v2);
}

TEST(SurfHandlerTest, V1BodyAnswersLikeV2OnMine) {
  ExpectV1AnswersLikeV2("/v1/mine");
}

TEST(SurfHandlerTest, V1BodyAnswersLikeV2OnMineBatch) {
  ExpectV1AnswersLikeV2("/v1/mine:batch");
}

TEST(SurfHandlerTest, V1BodyAnswersLikeV2OnJobs) {
  ExpectV1AnswersLikeV2("/v1/jobs");
}

TEST(SurfHandlerTest, V1BodyAnswersLikeV2OnEvaluations) {
  ExpectV1AnswersLikeV2("/v1/evaluations");
}

TEST(SurfHandlerTest, V1AndV2BodiesShareTheCacheEntry) {
  const SyntheticDataset ds = MakeTestData();
  TestServer ts;
  ASSERT_TRUE(ts.start_status.ok());
  ASSERT_TRUE(ts.service->RegisterDataset("web", ds.data).ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(ts.server->port()));

  ClientResponse v1 = client.Request("POST", "/v1/mine", kV1WebBody);
  ASSERT_EQ(v1.status, 200);
  // The same request in the v2 named-section schema hits the cache entry
  // the v1 request trained and mines the same regions.
  ClientResponse v2_response = client.Request("POST", "/v1/mine", V2WebBody());
  ASSERT_EQ(v2_response.status, 200);
  auto decoded_v1 = ParseJson(v1.body);
  auto decoded_v2 = ParseJson(v2_response.body);
  ASSERT_TRUE(decoded_v1.ok());
  ASSERT_TRUE(decoded_v2.ok());
  EXPECT_FALSE(decoded_v1->Find("cache_hit")->bool_value());
  EXPECT_TRUE(decoded_v2->Find("cache_hit")->bool_value());
  EXPECT_EQ(WriteJson(*decoded_v1->Find("result")->Find("regions")),
            WriteJson(*decoded_v2->Find("result")->Find("regions")));
  // Answers to v1 bodies carry the v2 envelope's version stamp.
  EXPECT_EQ(decoded_v1->Find("api_version")->number_value(), 2.0);

  // record_evaluations without validate is rejected by the shared
  // validation path in both schemas, with the same message.
  v2::MineRequest bad = MakeTestRequest("web", {0, 1});
  bad.execution.record_evaluations = true;
  bad.execution.validate = false;
  ClientResponse bad_v2 = client.Request(
      "POST", "/v1/mine", WriteJson(MineRequestV2ToJson(bad)));
  ClientResponse bad_v1 = client.Request(
      "POST", "/v1/mine",
      R"({"dataset": "web", "statistic": {"region_cols": [0, 1]},
          "record_evaluations": true, "validate": false})");
  EXPECT_EQ(bad_v2.status, 400);
  EXPECT_EQ(bad_v1.status, 400);
  EXPECT_EQ(bad_v1.body, bad_v2.body);

  // The retired tree back-ends are unknown names in both schemas.
  ClientResponse kd_v1 = client.Request(
      "POST", "/v1/mine",
      R"({"dataset": "web", "statistic": {"region_cols": [0, 1]},
          "backend": "kd_tree"})");
  ClientResponse rtree_v2 = client.Request(
      "POST", "/v1/mine",
      R"({"api_version": 2, "dataset": "web", "query": {"statistic":
          {"region_cols": [0, 1]}}, "execution": {"backend": "rtree"}})");
  EXPECT_EQ(kd_v1.status, 400);
  EXPECT_NE(kd_v1.body.find("unknown backend 'kd_tree' (scan|grid_index)"),
            std::string::npos)
      << kd_v1.body;
  EXPECT_EQ(rtree_v2.status, 400);
  EXPECT_NE(rtree_v2.body.find("unknown backend 'rtree' (scan|grid_index)"),
            std::string::npos)
      << rtree_v2.body;
}

TEST(SurfHandlerTest, JobLifecycleSubmitPollCancel) {
  const SyntheticDataset ds = MakeTestData();
  TestServer ts;
  ASSERT_TRUE(ts.start_status.ok());
  ASSERT_TRUE(ts.service->RegisterDataset("web", ds.data).ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(ts.server->port()));

  // Warm the cache so the long job is all search.
  ASSERT_EQ(client
                .Request("POST", "/v1/mine",
                         WriteJson(MineRequestV2ToJson(
                             MakeTestRequest("web", ds.region_cols))))
                .status,
            200);

  v2::MineRequest slow = MakeTestRequest("web", ds.region_cols);
  slow.search.finder.gso.max_iterations = 200000;
  slow.search.finder.gso.convergence_tol_frac = 0.0;
  ClientResponse submitted = client.Request(
      "POST", "/v1/jobs", WriteJson(MineRequestV2ToJson(slow)));
  ASSERT_EQ(submitted.status, 202);
  auto submit_body = ParseJson(submitted.body);
  ASSERT_TRUE(submit_body.ok());
  const std::string id = submit_body->Find("job_id")->string_value();
  ASSERT_FALSE(id.empty());

  // Poll until the search is visibly under way.
  bool searching = false;
  for (int i = 0; i < 2000 && !searching; ++i) {
    ClientResponse polled = client.Request("GET", "/v1/jobs/" + id);
    ASSERT_EQ(polled.status, 200);
    auto body = ParseJson(polled.body);
    ASSERT_TRUE(body.ok());
    const JsonValue* progress = body->Find("progress");
    searching = progress->Find("iterations")->number_value() >= 3.0;
    if (!searching) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(searching);

  // Cancel, then poll to the terminal state: the response must arrive
  // promptly with status cancelled and the partial report flagged.
  ClientResponse cancelled = client.Request("DELETE", "/v1/jobs/" + id);
  ASSERT_EQ(cancelled.status, 200);
  const JsonValue* response_json = nullptr;
  auto final_body = ParseJson(cancelled.body);
  for (int i = 0; i < 2000; ++i) {
    ClientResponse polled = client.Request("GET", "/v1/jobs/" + id);
    ASSERT_EQ(polled.status, 200);
    final_body = ParseJson(polled.body);
    ASSERT_TRUE(final_body.ok());
    response_json = final_body->Find("response");
    if (response_json != nullptr) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_NE(response_json, nullptr) << "job never reached a terminal state";
  EXPECT_EQ(response_json->Find("status")->Find("code")->string_value(),
            "cancelled");
  const JsonValue* report =
      response_json->Find("result")->Find("report");
  EXPECT_TRUE(report->Find("cancelled")->bool_value());
  EXPECT_LT(report->Find("iterations")->number_value(), 100000.0);

  // Cancelling a finished job is a harmless no-op.
  ClientResponse again = client.Request("DELETE", "/v1/jobs/" + id);
  EXPECT_EQ(again.status, 200);
  auto again_body = ParseJson(again.body);
  ASSERT_TRUE(again_body.ok());
  EXPECT_TRUE(again_body->Find("already_done")->bool_value());

  // Unknown ids 404; the bare collection path still submits only.
  EXPECT_EQ(client.Request("GET", "/v1/jobs/nope").status, 404);
  EXPECT_EQ(client.Request("DELETE", "/v1/jobs/nope").status, 404);
}

TEST(SurfHandlerTest, V2CodecRoundTripsExecutionShards) {
  const SyntheticDataset ds = MakeTestData();
  v2::MineRequest request = MakeTestRequest("web", ds.region_cols);
  request.execution.shards = 8;

  // Encode → decode: the shard count survives the wire.
  auto decoded = MineRequestV2FromJson(
      ParseJson(WriteJson(MineRequestV2ToJson(request))).value(), nullptr);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->execution.shards, 8u);

  // Absent field: the v1-compatible default of one shard.
  v2::MineRequest plain = request;
  plain.execution.shards = 1;
  JsonValue encoded = MineRequestV2ToJson(plain);
  ASSERT_TRUE(encoded.Find("execution")->Find("shards") != nullptr);
  auto body = ParseJson(WriteJson(encoded));
  ASSERT_TRUE(body.ok());
  auto defaulted = MineRequestV2FromJson(*body, nullptr);
  ASSERT_TRUE(defaulted.ok());
  EXPECT_EQ(defaulted->execution.shards, 1u);

  // shards: 0 normalizes to 1 through the shared validation pass...
  v2::MineRequest zero = request;
  zero.execution.shards = 0;
  auto normalized = MineRequestV2FromJson(
      ParseJson(WriteJson(MineRequestV2ToJson(zero))).value(), nullptr);
  ASSERT_TRUE(normalized.ok());
  EXPECT_EQ(normalized->execution.shards, 1u);

  // ...while an absurd shard count is rejected at decode time.
  v2::MineRequest excessive = request;
  excessive.execution.shards = 100000;
  auto rejected = MineRequestV2FromJson(
      ParseJson(WriteJson(MineRequestV2ToJson(excessive))).value(), nullptr);
  EXPECT_FALSE(rejected.ok());

  // The flat v1 schema carries the field at the top level (v1 bodies
  // without it keep the single-evaluator default).
  auto v1_decoded = MineRequestV2FromJson(
      ParseJson(R"({"dataset": "web", "statistic": {"region_cols": [0, 1]},
                    "shards": 4})")
          .value(),
      nullptr);
  ASSERT_TRUE(v1_decoded.ok());
  EXPECT_EQ(v1_decoded->execution.shards, 4u);
}

TEST(SurfHandlerTest, JobsPathShardsOneVsEightIdenticalResponses) {
  // Two fresh servers, same dataset, same v2 job — one labelled through
  // the classic single evaluator, one through eight range-partitioned
  // shards. The mined count statistic is integer-exact under sharding,
  // so the terminal job responses must agree region for region.
  const SyntheticDataset ds = MakeTestData();

  auto run_job = [&](size_t shards) -> std::string {
    TestServer ts;
    EXPECT_TRUE(ts.start_status.ok());
    EXPECT_TRUE(ts.service->RegisterDataset("web", ds.data).ok());
    TestClient client;
    EXPECT_TRUE(client.Connect(ts.server->port()));

    v2::MineRequest request = MakeTestRequest("web", ds.region_cols);
    request.execution.shards = shards;
    ClientResponse submitted = client.Request(
        "POST", "/v1/jobs", WriteJson(MineRequestV2ToJson(request)));
    EXPECT_EQ(submitted.status, 202) << submitted.body;
    auto submit_body = ParseJson(submitted.body);
    EXPECT_TRUE(submit_body.ok());
    const std::string id = submit_body->Find("job_id")->string_value();

    for (int i = 0; i < 30000; ++i) {
      ClientResponse polled = client.Request("GET", "/v1/jobs/" + id);
      EXPECT_EQ(polled.status, 200);
      auto body = ParseJson(polled.body);
      EXPECT_TRUE(body.ok());
      if (const JsonValue* response = body->Find("response")) {
        EXPECT_EQ(response->Find("status")->Find("code")->string_value(),
                  "ok");
        return WriteJson(*response->Find("result")->Find("regions"));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ADD_FAILURE() << "job with shards=" << shards << " never finished";
    return "";
  };

  const std::string regions_one_shard = run_job(1);
  const std::string regions_eight_shards = run_job(8);
  ASSERT_FALSE(regions_one_shard.empty());
  EXPECT_GT(regions_one_shard.size(), 2u);  // mined something, not "[]"
  EXPECT_EQ(regions_one_shard, regions_eight_shards);
}

TEST(SurfHandlerTest, BlockingMineDeadlineCancelsAndAnswers408) {
  const SyntheticDataset ds = MakeTestData();
  TestServer ts;
  ASSERT_TRUE(ts.start_status.ok());
  ASSERT_TRUE(ts.service->RegisterDataset("web", ds.data).ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(ts.server->port()));

  ASSERT_EQ(client
                .Request("POST", "/v1/mine",
                         WriteJson(MineRequestV2ToJson(
                             MakeTestRequest("web", ds.region_cols))))
                .status,
            200);

  // A v2 request with a tight execution deadline on an endless search:
  // the worker must stop and answer 408 with the partial envelope.
  v2::MineRequest slow = MakeTestRequest("web", ds.region_cols);
  slow.search.finder.gso.max_iterations = 200000;
  slow.search.finder.gso.convergence_tol_frac = 0.0;
  slow.execution.deadline_seconds = 0.15;

  const auto started = std::chrono::steady_clock::now();
  ClientResponse response = client.Request(
      "POST", "/v1/mine", WriteJson(MineRequestV2ToJson(slow)));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  EXPECT_EQ(response.status, 408);
  EXPECT_LT(elapsed, 30.0);  // far below the 200k-iteration budget
  auto body = ParseJson(response.body);
  ASSERT_TRUE(body.ok());
  // The 408 carries the full envelope: cancelled status, partial
  // report, and the provenance of the model that served it.
  EXPECT_EQ(body->Find("status")->Find("code")->string_value(),
            "cancelled");
  EXPECT_TRUE(body->Find("result")
                  ->Find("report")
                  ->Find("cancelled")
                  ->bool_value());
  EXPECT_TRUE(body->Find("provenance")->is_object());
}

// ------------------------------------------------------- send-path tests

/// A blocking loopback client socket (TCP_NODELAY, 10 s receive
/// timeout). A nonzero `rcvbuf` is set before connect, so the advertised
/// window stays that small. -1 on failure.
int ConnectLoopback(uint16_t port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Polls `done` for up to `seconds`; returns its last value.
bool WaitFor(const std::function<bool()>& done, double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(static_cast<int>(seconds * 1e3));
  while (!done() && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

// The event loop's nonblocking writer (StartWrite/ContinueWrite) against
// a reader with a tiny receive buffer that drains slowly: the send path
// meets partial writes and EAGAIN on nearly every send(2), and a 1 MiB
// response must still arrive whole and in order.
TEST(HttpServerTest, LargeResponseReachesTinySlowReaderWhole) {
  std::string payload(1 << 20, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + (i % 23));
  }
  HttpServer::Options options;
  options.num_workers = 1;
  HttpServer server(options, [&](const HttpRequest&) {
    HttpResponse response;
    response.body = payload;
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  const int fd = ConnectLoopback(server.port(), /*rcvbuf=*/4096);
  ASSERT_GE(fd, 0);
  const std::string request = RawRequest("GET", "/big", {});
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string buffer, body;
  int status = 0;
  HttpHeaders headers;
  const auto slow_fill = [fd](std::string* out) {
    // Slow drain so the server keeps filling the tiny window.
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    char chunk[8192];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    out->append(chunk, static_cast<size_t>(n));
    return true;
  };
  EXPECT_TRUE(
      http::ReadResponse(&buffer, slow_fill, &status, &headers, &body).ok());
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(body == payload) << "body of " << body.size() << " bytes differs";
  ::close(fd);
  server.Shutdown();
  EXPECT_EQ(server.stats().requests_served, 1u);
  EXPECT_EQ(server.stats().write_failures, 0u);
}

// A peer that is gone must fail the write and drop the connection, not
// crash the process (SIGPIPE) or spin; the server keeps serving.
TEST(HttpServerTest, WriteToClosedPeerFailsCleanly) {
  std::atomic<bool> peer_closed{false};
  HttpServer::Options options;
  options.num_workers = 1;
  HttpServer server(options, [&](const HttpRequest& request) {
    HttpResponse response;
    if (request.target == "/big") {
      WaitFor([&] { return peer_closed.load(); }, 10.0);
      response.body.assign(8 << 20, 'x');  // beyond any socket buffer
    }
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  TestClient gone;
  ASSERT_TRUE(gone.Connect(server.port()));
  ASSERT_TRUE(gone.SendRaw(RawRequest("GET", "/big", {})));
  WaitFor([&] { return server.stats().inflight == 1; }, 10.0);
  gone.Close();
  peer_closed.store(true);
  EXPECT_TRUE(
      WaitFor([&] { return server.stats().write_failures == 1; }, 10.0));

  TestClient next;
  ASSERT_TRUE(next.Connect(server.port()));
  EXPECT_EQ(next.Request("GET", "/small").status, 200);
  server.Shutdown();
  EXPECT_EQ(server.stats().write_failures, 1u);
}

// The write deadline bounds a stalled reader: the peer never drains, so
// the writer must give up once the deadline passes instead of holding
// the connection forever on a full buffer.
TEST(HttpServerTest, WriteDeadlineDropsStalledReader) {
  HttpServer::Options options;
  options.num_workers = 1;
  options.request_deadline_seconds = 0.3;
  HttpServer server(options, [](const HttpRequest&) {
    HttpResponse response;
    response.body.assign(8 << 20, 'x');  // beyond any socket buffer
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  const int fd = ConnectLoopback(server.port(), /*rcvbuf=*/4096);
  ASSERT_GE(fd, 0);
  const std::string request = RawRequest("GET", "/big", {});
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  const auto started = std::chrono::steady_clock::now();
  EXPECT_TRUE(
      WaitFor([&] { return server.stats().write_failures == 1; }, 5.0));
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          started)
                .count(),
            5.0);
  EXPECT_TRUE(WaitFor([&] { return server.stats().connections_open == 0; },
                      5.0));
  ::close(fd);
  server.Shutdown();
  EXPECT_EQ(server.stats().requests_served, 0u);
}

// A handler that throws must be answered 500 and counted — never
// propagate out of the worker (which previously swallowed it silently)
// and never kill the connection loop.
TEST(HttpServerTest, ThrowingHandlerAnswers500AndCounts) {
  HttpServer::Options options;
  options.port = 0;
  HttpServer server(options, [](const HttpRequest& request) -> HttpResponse {
    if (request.target == "/boom") {
      throw std::runtime_error("handler exploded");
    }
    HttpResponse ok;
    ok.body = "fine";
    return ok;
  });
  ASSERT_TRUE(server.Start().ok());

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ClientResponse boom = client.Request("GET", "/boom");
  EXPECT_EQ(boom.status, 500);
  EXPECT_NE(boom.body.find("internal"), std::string::npos);

  // The same connection (keep-alive) still serves the next request.
  ClientResponse fine = client.Request("GET", "/fine");
  EXPECT_EQ(fine.status, 200);
  EXPECT_EQ(fine.body, "fine");

  server.Shutdown();
  EXPECT_EQ(server.stats().worker_exceptions, 1u);
}

// -------------------------------------------------- segmentation replay

/// Head and body limits the wire corpus is written against.
constexpr size_t kCorpusMaxHead = 1024;
constexpr size_t kCorpusMaxBody = 4096;

/// One corpus entry: the bytes a client sends and the status it gets.
/// Every entry is decided at its last byte (a complete request, or the
/// byte that makes it an error), so a server must answer it the same
/// however the bytes are cut into segments.
struct WireEntry {
  std::string name;
  std::string bytes;
  int status = 0;
};

std::vector<WireEntry> WireCorpus() {
  const std::string mine =
      "{\"api_version\": 2, \"dataset\": \"points\", \"query\": "
      "{\"statistic\": {\"kind\": \"count\", \"region_cols\": [\"x\", "
      "\"y\"]}, \"threshold\": 2000}}";
  const std::string head = "GET /x HTTP/1.1\r\nX-Pad: ";
  return {
      {"mine", RawRequest("POST", "/v1/mine", {{"Connection", "close"}}, mine),
       200},
      {"get", "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", 200},
      {"pipelined",
       RawRequest("GET", "/first", {}) +
           RawRequest("POST", "/second", {{"Connection", "close"}}, "xy"),
       200},
      {"bad_request_line", "GET /x\r\nHost: 127.0.0.1\r\n\r\n", 400},
      {"body_too_large", "POST /x HTTP/1.1\r\nContent-Length: 5000\r\n\r\n",
       413},
      // One byte past the head limit, with no blank line yet.
      {"head_too_large",
       head + std::string(kCorpusMaxHead + 1 - head.size(), 'p'), 431},
      {"chunked", "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
       501},
      {"length_sign", "POST /x HTTP/1.1\r\nContent-Length: +5\r\n\r\n", 400},
      {"length_negative", "POST /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
       400},
      {"length_conflict",
       "POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\n",
       400},
  };
}

/// Sends `bytes` cut at the offsets in `cuts` (TCP_NODELAY, a short pause
/// between segments) and returns every byte the server writes until it
/// closes the connection.
std::string SegmentedExchange(uint16_t port, const std::string& bytes,
                              const std::vector<size_t>& cuts) {
  const int fd = ConnectLoopback(port);
  std::string received;
  if (fd >= 0) {
    size_t from = 0;
    std::vector<size_t> ends = cuts;
    ends.push_back(bytes.size());
    for (const size_t to : ends) {
      const ssize_t want = static_cast<ssize_t>(to - from);
      if (want > 0 &&
          ::send(fd, bytes.data() + from, to - from, MSG_NOSIGNAL) != want) {
        break;
      }
      from = to;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      received.append(chunk, static_cast<size_t>(n));
    }
    ::close(fd);
  }
  return received;
}

// Aim 3's replay contract over a live server: each corpus entry sent in
// one piece and sent at 20 seeded random split points must draw the same
// response bytes.
TEST(HttpServerTest, SegmentedRequestsDrawTheSameResponseBytes) {
  HttpServer::Options options;
  options.num_workers = 1;
  options.max_header_bytes = kCorpusMaxHead;
  options.max_body_bytes = kCorpusMaxBody;
  HttpServer server(options, [](const HttpRequest& request) {
    HttpResponse echo;
    echo.body = request.method + " " + request.target + " " + request.body;
    return echo;
  });
  ASSERT_TRUE(server.Start().ok());

  std::mt19937_64 rng(25);
  for (const WireEntry& entry : WireCorpus()) {
    SCOPED_TRACE(entry.name);
    const std::string whole = SegmentedExchange(server.port(), entry.bytes, {});
    ASSERT_EQ(whole.rfind("HTTP/1.1 " + std::to_string(entry.status) + " ", 0),
              0u)
        << whole;
    for (int trial = 0; trial < 3; ++trial) {
      std::uniform_int_distribution<size_t> pick(1, entry.bytes.size() - 1);
      std::set<size_t> cut_set;
      while (cut_set.size() < 20) cut_set.insert(pick(rng));
      const std::vector<size_t> cuts(cut_set.begin(), cut_set.end());
      EXPECT_EQ(SegmentedExchange(server.port(), entry.bytes, cuts), whole)
          << "trial " << trial;
    }
  }
  server.Shutdown();
}

/// Asserts `frame` (a pure framing call) never changes its mind as bytes
/// arrive: on every prefix of `bytes` it answers need-more or exactly its
/// verdict on the whole, and need-more only before the deciding byte.
/// Checks every prefix, or `samples` random ones when nonzero.
void ExpectPrefixStable(
    const std::string& bytes,
    const std::function<http::Framing(std::string_view)>& frame,
    size_t samples = 0, std::mt19937_64* rng = nullptr) {
  const http::Framing whole = frame(bytes);
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= bytes.size(); ++n) lengths.push_back(n);
  if (samples > 0) {
    std::shuffle(lengths.begin(), lengths.end(), *rng);
    lengths.resize(std::min(samples, lengths.size()));
  }
  for (const size_t n : lengths) {
    const http::Framing prefix = frame(std::string_view(bytes).substr(0, n));
    if (prefix.need_more()) {
      if (!whole.need_more() && whole.error == nullptr) {
        EXPECT_LT(n, whole.size()) << "need-more after the message ended";
      }
      continue;
    }
    EXPECT_EQ(prefix.error, whole.error) << "prefix " << n;
    EXPECT_EQ(prefix.size(), whole.size()) << "prefix " << n;
  }
}

http::Framing FrameCorpusRequest(std::string_view bytes) {
  return http::FrameRequest(bytes, kCorpusMaxHead, kCorpusMaxBody);
}

// The pure framing call over every prefix of every corpus entry: need-more
// until the entry's deciding byte, then the verdict of the whole entry,
// which is the status the live server answers.
TEST(HttpWireTest, EveryPrefixFramesAsTheWholeEntry) {
  for (const WireEntry& entry : WireCorpus()) {
    SCOPED_TRACE(entry.name);
    const http::Framing whole = FrameCorpusRequest(entry.bytes);
    ASSERT_FALSE(whole.need_more());
    EXPECT_EQ(whole.error == nullptr ? 200 : whole.error->status,
              entry.status);
    const size_t decided =
        whole.error == nullptr ? whole.size() : entry.bytes.size();
    EXPECT_TRUE(
        FrameCorpusRequest(std::string_view(entry.bytes).substr(0, decided - 1))
            .need_more());
    ExpectPrefixStable(entry.bytes, FrameCorpusRequest);
  }
}

// The head limit is a property of the bytes, not of how they arrive: a
// head whose blank line ends past the limit is 431 whether it comes in
// one segment or byte by byte. A blank-line search over the whole buffer
// would accept it in one piece and reject it in pieces.
TEST(HttpWireTest, HeadLimitHoldsHoweverTheBytesArrive) {
  const std::string oversized = "GET /x HTTP/1.1\r\nX-Pad: " +
                                std::string(2 * kCorpusMaxHead, 'p') +
                                "\r\n\r\n";
  EXPECT_EQ(FrameCorpusRequest(oversized).error, &http::kHeadTooLarge);
  ExpectPrefixStable(oversized, FrameCorpusRequest);
}

// Seeded byte mutations of the corpus, requests and responses alike (the
// stand-in for a fuzz target; net_test runs under ASan/UBSan in CI). Each
// mutant must frame without fault and stay prefix-stable.
TEST(HttpWireTest, SeededMutationsStayPrefixStable) {
  std::vector<std::string> requests;
  for (const WireEntry& entry : WireCorpus()) requests.push_back(entry.bytes);
  HttpResponse limited = JsonErrorResponse(429, "overloaded", "retry");
  limited.headers.emplace_back("Retry-After", "1");
  HttpResponse ok;
  ok.body = "{\"regions\": []}";
  const std::vector<std::string> responses = {
      http::SerializeResponse(ok, true),
      http::SerializeResponse(limited, false),
      "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
      "HTTP/1.1 404 Not Found\r\n\r\n{}"};
  const auto frame_response = [](std::string_view bytes) {
    int status = 0;
    HttpHeaders headers;
    return http::ParseResponseHead(bytes, &status, &headers);
  };

  static constexpr char kSignificant[] = "\r\n: 0123456789+-HTtp/.";
  std::mt19937_64 rng(25);
  for (int i = 0; i < 1000; ++i) {
    const bool response = i % 4 == 3;
    const auto& corpus = response ? responses : requests;
    std::string bytes = corpus[rng() % corpus.size()];
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; ++e) {
      const size_t at = rng() % (bytes.size() + 1);
      switch (rng() % 4) {
        case 0:
          if (at < bytes.size()) bytes[at] = static_cast<char>(rng());
          break;
        case 1:
          bytes.insert(at, 1, kSignificant[rng() % (sizeof(kSignificant) - 1)]);
          break;
        case 2:
          bytes.erase(std::min(at, bytes.size()), 1 + rng() % 8);
          break;
        default:
          if (!bytes.empty()) {
            bytes.insert(at,
                         bytes.substr(rng() % bytes.size(), 1 + rng() % 16));
          }
          break;
      }
    }
    SCOPED_TRACE("mutant " + std::to_string(i));
    if (response) {
      ExpectPrefixStable(bytes, frame_response, 16, &rng);
    } else {
      ExpectPrefixStable(bytes, FrameCorpusRequest, 16, &rng);
    }
  }
}

}  // namespace
}  // namespace surf
