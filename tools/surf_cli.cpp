// surf_cli — command-line front end to the SuRF pipeline.
//
// Subcommands:
//   mine   load a CSV dataset, train (or load) a surrogate, mine regions
//   ecdf   print region-statistic quantiles (to help pick a threshold)
//   train  train a surrogate and save it for later `mine --model` runs
//   batch  serve many mining requests from a query file through the
//          MiningService (shared surrogate cache + worker pool)
//   serve  run surfd, the embedded HTTP/JSON front-end, until
//          SIGINT/SIGTERM triggers a graceful drain
//
// Examples:
//   surf_cli mine --data crimes.csv --cols x,y --stat count
//            --threshold 800 --direction above
//   surf_cli ecdf --data crimes.csv --cols x,y --stat count
//   surf_cli train --data crimes.csv --cols x,y --stat count
//            --queries 50000 --model crimes.surf
//   surf_cli mine --data crimes.csv --model crimes.surf --threshold 800
//   surf_cli batch --queryfile queries.txt --threads 8
//   surf_cli serve --port 8080 --threads 8 --max-inflight 64
// (flags may wrap across lines; each example is one invocation)
//
// Query-file format (one directive per line, '#' comments):
//   dataset NAME PATH.csv
//   mine dataset=NAME cols=x,y stat=count threshold=800 [direction=above]
//        [queries=10000] [c=4] [max-regions=16] [iterations=120] [topk=K]
//        [shards=N]
// Requests sharing (dataset, statistic, training recipe) share one cached
// surrogate — the first request trains it, the rest reuse it.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <thread>

#include "api/api.h"
#include "core/surf.h"
#include "net/http_server.h"
#include "net/metrics.h"
#include "net/surf_handler.h"
#include "serve/mining_service.h"
#include "util/cli.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace surf;

int Fail(const std::string& msg) {
  std::fprintf(stderr, "surf_cli: %s\n", msg.c_str());
  return 1;
}

void PrintUsage() {
  std::printf(
      "usage: surf_cli <mine|ecdf|train|batch|serve|version> [flags]\n"
      "  common:  --data FILE.csv      dataset (mine/ecdf/train)\n"
      "           --cols a,b[,c]       region columns\n"
      "           --stat count|avg|sum|median|var|ratio\n"
      "           --value-col NAME     (avg/sum/median/var/ratio)\n"
      "           --label VALUE        (ratio)\n"
      "           --queries N          past evaluations to learn from\n"
      "           --shards N           row-range shards for the exact\n"
      "                                back-end (1 = classic single\n"
      "                                evaluator; >=2 = shard-parallel\n"
      "                                scan with summary pruning)\n"
      "           --hypertune          GridSearchCV before the final fit\n"
      "  mine:    --threshold Y  --direction above|below  --c C\n"
      "           --model FILE         mine with a saved surrogate; the\n"
      "                                statistic/columns/solution space\n"
      "                                come from the model file, so\n"
      "                                --cols/--stat are not needed\n"
      "           --max-regions K  --iterations T\n"
      "  train:   --model FILE         output path\n"
      "  batch:   --queryfile FILE     query file (see header comment)\n"
      "           --threads N          service worker threads (0 = all\n"
      "                                cores); requests run concurrently\n"
      "                                against shared cached surrogates\n"
      "           --data FILE.csv      optional dataset registered as\n"
      "                                'default' for mine lines without\n"
      "                                dataset=\n"
      "  serve:   --port N             listen port (default 8080)\n"
      "           --bind ADDR          bind address (default 127.0.0.1)\n"
      "           --threads N          service worker threads (0 = all)\n"
      "           --http-workers N     interactive HTTP workers (0 = auto)\n"
      "           --batch-workers N    batch-class workers / batch\n"
      "                                concurrency cap (0 = workers/8)\n"
      "           --max-inflight N     concurrent requests before 429\n"
      "           --max-queue N        ready-queue depth before load\n"
      "                                shedding (503; 0 = never shed)\n"
      "           --tenant-default R:B:Q  default tenant limits as\n"
      "                                RATE:BURST:QUOTA (0 = unlimited)\n"
      "           --tenant-limit T=R:B:Q[,...]  per-tenant limits keyed\n"
      "                                by the x-surf-tenant header\n"
      "           --no-coalesce        disable single-flight coalescing\n"
      "                                of identical /v1/mine requests\n"
      "           --deadline SECONDS   per-request deadline (default 30)\n"
      "           --data FILE.csv      optional dataset registered as\n"
      "                                'default' at startup\n"
      "           --cache-max-age S    surrogate staleness horizon\n"
      "                                (default: never stale)\n"
      "           --train-retries N    extra training attempts on\n"
      "                                transient failure (default 0)\n"
      "           --breaker-threshold N consecutive training failures\n"
      "                                that open a key's circuit breaker\n"
      "                                (503 + Retry-After; 0 = off)\n"
      "           --breaker-open S     seconds an open breaker refuses\n"
      "                                retrains (default 5)\n"
      "           --negative-ttl S     seconds a training failure is\n"
      "                                replayed without retraining\n"
      "                                (default 0 = off)\n"
      "           --job-retention N    finished jobs kept for polling\n"
      "                                (default 256)\n"
      "           --job-max-age S      finished jobs older than this are\n"
      "                                evicted (default: never)\n"
      "           --workers H:P,...    remote surfd workers; enables\n"
      "                                distributed (cluster) execution\n"
      "           --trace-ring N       completed request traces kept for\n"
      "                                GET /v1/trace/{id} (default 64)\n"
      "           --enable-failpoints  expose the /v1/failpoints fault-\n"
      "                                injection admin API (chaos/debug\n"
      "                                deployments only)\n"
      "           SIGINT/SIGTERM drain in-flight requests, then exit\n"
      "           SURF_LOG_LEVEL=debug|info|warn|error filters the\n"
      "                                structured log (default info)\n"
      "  version: print API/library version and build info (also\n"
      "           --version anywhere), for v1-vs-v2 schema negotiation\n");
}

int RunVersion() {
  const BuildInfo info = GetBuildInfo();
  std::printf("%s\n", VersionString().c_str());
  std::printf("api_version: %d\napi_min_version: %d\nlibrary_version: %s\n"
              "compiler: %s\ncxx_standard: %s\n",
              info.api_version, info.api_min_version,
              info.library_version.c_str(), info.compiler.c_str(),
              info.cxx_standard.c_str());
  return 0;
}

StatusOr<Statistic> ParseStatisticTokens(const Dataset& data,
                                         const std::string& cols_csv,
                                         const std::string& kind,
                                         const std::string& value_name,
                                         double label) {
  std::vector<size_t> cols;
  for (const auto& name : SplitString(cols_csv, ',')) {
    if (name.empty()) continue;
    const int idx = data.ColumnIndex(TrimString(name));
    if (idx < 0) {
      return Status::InvalidArgument("unknown column '" + name + "'");
    }
    cols.push_back(static_cast<size_t>(idx));
  }
  if (cols.empty()) {
    return Status::InvalidArgument("cols is required (comma separated)");
  }
  if (kind == "count") return Statistic::Count(cols);

  const int value_idx = data.ColumnIndex(value_name);
  if (value_idx < 0) {
    return Status::InvalidArgument("value-col required for stat " + kind);
  }
  const size_t value_col = static_cast<size_t>(value_idx);
  if (kind == "avg") return Statistic::Average(cols, value_col);
  if (kind == "sum") return Statistic::Sum(cols, value_col);
  if (kind == "median") return Statistic::MedianOf(cols, value_col);
  if (kind == "var") return Statistic::VarianceOf(cols, value_col);
  if (kind == "ratio") return Statistic::LabelRatio(cols, value_col, label);
  return Status::InvalidArgument("unknown stat '" + kind + "'");
}

StatusOr<Statistic> ParseStatistic(const CliFlags& flags,
                                   const Dataset& data) {
  return ParseStatisticTokens(data, flags.GetString("cols", ""),
                              flags.GetString("stat", "count"),
                              flags.GetString("value-col", ""),
                              flags.GetDouble("label", 1.0));
}

SurfOptions ParseOptions(const CliFlags& flags) {
  SurfOptions options;
  options.workload.num_queries =
      static_cast<size_t>(flags.GetInt("queries", 10000));
  options.surrogate.hypertune = flags.GetBool("hypertune", false);
  options.finder.c = flags.GetDouble("c", 4.0);
  options.finder.max_regions =
      static_cast<size_t>(flags.GetInt("max-regions", 16));
  options.finder.gso.max_iterations =
      static_cast<size_t>(flags.GetInt("iterations", 120));
  options.shards = static_cast<size_t>(flags.GetInt("shards", 1));
  return options;
}

FindResult MineWithLoadedModel(const CliFlags& flags, const Dataset& data,
                               const Surrogate& surrogate, double threshold,
                               ThresholdDirection direction) {
  FinderConfig config;
  config.c = flags.GetDouble("c", 4.0);
  config.max_regions =
      static_cast<size_t>(flags.GetInt("max-regions", 16));
  config.gso.max_iterations =
      static_cast<size_t>(flags.GetInt("iterations", 120));

  // Validate reported regions against the true statistic, and give the
  // swarm the KDE data prior Surf::Build fits (seed 6: the default
  // workload seed 5, plus 1).
  const auto evaluator = MakeEvaluator(BackendKind::kGridIndex, &data,
                                       surrogate.statistic());
  const Kde kde = FitDataKde(data, surrogate.statistic().region_cols,
                             kKdeMaxSamples, 6);
  SearchSpec spec;
  spec.finder = &config;
  spec.threshold = threshold;
  spec.direction = direction;
  spec.kde = &kde;
  spec.validator = evaluator.get();
  FindResult result;
  RunSearch(surrogate, spec, &result, nullptr);
  return result;
}

void PrintFindResult(const FindResult& result) {
  TablePrinter table({"region", "box", "estimate", "true", "complies"});
  for (size_t i = 0; i < result.regions.size(); ++i) {
    const auto& r = result.regions[i];
    std::vector<std::string> box;
    for (size_t j = 0; j < r.region.dims(); ++j) {
      box.push_back("[" + FormatDouble(r.region.lo(j), 3) + "," +
                    FormatDouble(r.region.hi(j), 3) + "]");
    }
    table.AddRow({"#" + std::to_string(i + 1), JoinStrings(box, "x"),
                  FormatDouble(r.estimate, 2),
                  FormatDouble(r.true_value, 2),
                  r.complies_true ? "yes" : "no"});
  }
  std::printf("%s", table.ToString().c_str());
}

int RunMine(const CliFlags& flags, const Dataset& data) {
  if (!flags.Has("threshold")) return Fail("--threshold is required");
  const double threshold = flags.GetDouble("threshold", 0.0);
  if (Status valid = CheckThreshold(threshold); !valid.ok()) {
    return Fail(valid.ToString());
  }
  const ThresholdDirection direction =
      flags.GetString("direction", "above") == "below"
          ? ThresholdDirection::kBelow
          : ThresholdDirection::kAbove;

  FindResult result;
  const std::string model_path = flags.GetString("model", "");
  if (!model_path.empty()) {
    // The saved surrogate embeds the statistic, columns, and solution
    // space — --cols/--stat are not consulted. The embedded column
    // indices must still exist in the supplied CSV.
    auto surrogate = Surrogate::Load(model_path);
    if (!surrogate.ok()) return Fail(surrogate.status().ToString());
    if (Status columns = CheckStatisticColumns(data, surrogate->statistic());
        !columns.ok()) {
      return Fail(columns.ToString());
    }
    std::printf("loaded surrogate from %s\n", model_path.c_str());
    result =
        MineWithLoadedModel(flags, data, *surrogate, threshold, direction);
  } else {
    auto statistic = ParseStatistic(flags, data);
    if (!statistic.ok()) return Fail(statistic.status().ToString());
    auto surf = Surf::Build(&data, *statistic, ParseOptions(flags));
    if (!surf.ok()) return Fail(surf.status().ToString());
    std::printf(
        "surrogate: test RMSE %s (%zu training evaluations, "
        "%.2fs)\n",
        FormatDouble(surf->surrogate().metrics().test_rmse, 2).c_str(),
        surf->surrogate().metrics().num_train_examples,
        surf->surrogate().metrics().train_seconds);
    auto found = surf->FindRegions(threshold, direction);
    if (!found.ok()) return Fail(found.status().ToString());
    result = std::move(found).value();
  }

  PrintFindResult(result);
  std::printf("%zu regions in %.2fs (%.0f%% of swarm in valid space, "
              "%.0f%% true compliance)\n",
              result.regions.size(), result.report.seconds,
              100.0 * result.report.particle_valid_fraction,
              100.0 * result.report.true_compliance);
  return 0;
}

int RunEcdf(const CliFlags& flags, const Dataset& data) {
  auto statistic = ParseStatistic(flags, data);
  if (!statistic.ok()) return Fail(statistic.status().ToString());
  SurfOptions options = ParseOptions(flags);
  options.workload.num_queries = 2000;  // light: ECDF only
  options.fit_kde = false;
  auto surf = Surf::Build(&data, *statistic, options);
  if (!surf.ok()) return Fail(surf.status().ToString());
  const Ecdf ecdf = surf->SampleStatisticEcdf(
      static_cast<size_t>(flags.GetInt("samples", 4000)), 7);
  TablePrinter table({"quantile", "statistic"});
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    table.AddRow({FormatDouble(q, 2), FormatDouble(ecdf.Quantile(q), 3)});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

int RunTrain(const CliFlags& flags, const Dataset& data) {
  auto statistic = ParseStatistic(flags, data);
  if (!statistic.ok()) return Fail(statistic.status().ToString());
  const std::string model_path = flags.GetString("model", "");
  if (model_path.empty()) return Fail("--model output path is required");
  auto surf = Surf::Build(&data, *statistic, ParseOptions(flags));
  if (!surf.ok()) return Fail(surf.status().ToString());
  if (auto st = surf->surrogate().Save(model_path); !st.ok()) {
    return Fail(st.ToString());
  }
  std::printf("trained on %zu evaluations (test RMSE %s) -> %s\n",
              surf->surrogate().metrics().num_train_examples,
              FormatDouble(surf->surrogate().metrics().test_rmse, 2).c_str(),
              model_path.c_str());
  return 0;
}

/// key=value lookup over one query-file line's tokens.
class LineArgs {
 public:
  explicit LineArgs(const std::vector<std::string>& tokens) {
    for (const auto& token : tokens) {
      const size_t eq = token.find('=');
      if (eq == std::string::npos) continue;
      kv_[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  std::string Get(const std::string& key, const std::string& def) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? def : it->second;
  }
  double GetDouble(const std::string& key, double def) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? def : std::atof(it->second.c_str());
  }
  int64_t GetInt(const std::string& key, int64_t def) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? def : std::atoll(it->second.c_str());
  }
  bool Has(const std::string& key) const { return kv_.count(key) > 0; }

 private:
  std::map<std::string, std::string> kv_;
};

StatusOr<v2::MineRequest> ParseMineLine(const MiningService& service,
                                        const LineArgs& args) {
  v2::MineRequest request;
  request.dataset = args.Get("dataset", "default");
  const Dataset* data = service.dataset(request.dataset);
  if (data == nullptr) {
    return Status::NotFound("dataset '" + request.dataset +
                            "' not declared (use a 'dataset NAME PATH' "
                            "line or --data)");
  }
  auto statistic = ParseStatisticTokens(
      *data, args.Get("cols", ""), args.Get("stat", "count"),
      args.Get("value-col", ""), args.GetDouble("label", 1.0));
  if (!statistic.ok()) return statistic.status();
  request.query.statistic = *statistic;

  if (args.Has("topk")) {
    request.query.kind = v2::QueryKind::kTopK;
    TopKConfig& topk = request.search.topk;
    topk.k = static_cast<size_t>(args.GetInt("topk", 3));
    topk.c = args.GetDouble("c", 0.8);
    topk.gso.max_iterations =
        static_cast<size_t>(args.GetInt("iterations", 120));
  } else {
    if (!args.Has("threshold")) {
      return Status::InvalidArgument(
          "mine line needs threshold= (or topk=)");
    }
    request.query.threshold = args.GetDouble("threshold", 0.0);
    request.query.direction = args.Get("direction", "above") == "below"
                                  ? ThresholdDirection::kBelow
                                  : ThresholdDirection::kAbove;
    FinderConfig& finder = request.search.finder;
    finder.c = args.GetDouble("c", 4.0);
    finder.max_regions = static_cast<size_t>(args.GetInt("max-regions", 16));
    finder.gso.max_iterations =
        static_cast<size_t>(args.GetInt("iterations", 120));
  }
  request.training.workload.num_queries =
      static_cast<size_t>(args.GetInt("queries", 10000));
  request.execution.shards = static_cast<size_t>(args.GetInt("shards", 1));
  return request;
}

int RunBatch(const CliFlags& flags) {
  const std::string query_path = flags.GetString("queryfile", "");
  if (query_path.empty()) return Fail("--queryfile FILE is required");

  MiningService::Options options;
  options.num_threads =
      static_cast<size_t>(flags.GetInt("threads", 0));
  MiningService service(options);
  std::printf("service: %zu worker threads\n", service.num_threads());

  const std::string data_path = flags.GetString("data", "");
  if (!data_path.empty()) {
    if (auto st = service.RegisterCsvDataset("default", data_path);
        !st.ok()) {
      return Fail(st.ToString());
    }
  }

  std::ifstream in(query_path);
  if (!in) return Fail("cannot open " + query_path);
  std::vector<v2::MineRequest> requests;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string trimmed = TrimString(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::vector<std::string> tokens;
    for (const auto& t : SplitString(trimmed, ' ')) {
      if (!t.empty()) tokens.push_back(t);
    }
    const std::string lead = tokens.empty() ? "" : tokens[0];
    if (lead == "dataset") {
      if (tokens.size() != 3) {
        return Fail(query_path + ":" + std::to_string(line_no) +
                    ": expected 'dataset NAME PATH'");
      }
      if (auto st = service.RegisterCsvDataset(tokens[1], tokens[2]);
          !st.ok()) {
        return Fail(query_path + ":" + std::to_string(line_no) + ": " +
                    st.ToString());
      }
      const Dataset* data = service.dataset(tokens[1]);
      std::printf("dataset %s: %zu rows x %zu columns from %s\n",
                  tokens[1].c_str(), data->num_rows(), data->num_cols(),
                  tokens[2].c_str());
    } else if (lead == "mine") {
      auto request = ParseMineLine(service, LineArgs(tokens));
      if (!request.ok()) {
        return Fail(query_path + ":" + std::to_string(line_no) + ": " +
                    request.status().ToString());
      }
      requests.push_back(std::move(request).value());
    } else {
      return Fail(query_path + ":" + std::to_string(line_no) +
                  ": unknown directive '" + lead + "'");
    }
  }
  if (requests.empty()) return Fail("query file has no mine lines");

  Stopwatch timer;
  const std::vector<v2::MineResponse> responses = service.MineBatch(requests);
  const double seconds = timer.ElapsedSeconds();

  int failures = 0;
  for (size_t i = 0; i < responses.size(); ++i) {
    const v2::MineResponse& response = responses[i];
    std::printf("-- request %zu/%zu [%s, %s]\n", i + 1, responses.size(),
                responses[i].cache_hit ? "cache hit" : "trained",
                requests[i].dataset.c_str());
    if (!response.status.ok()) {
      std::printf("   %s\n", response.status.ToString().c_str());
      ++failures;
      continue;
    }
    if (requests[i].query.kind == v2::QueryKind::kTopK) {
      TablePrinter table({"rank", "box", "estimate"});
      for (size_t r = 0; r < response.topk.regions.size(); ++r) {
        const auto& scored = response.topk.regions[r];
        std::vector<std::string> box;
        for (size_t j = 0; j < scored.region.dims(); ++j) {
          box.push_back("[" + FormatDouble(scored.region.lo(j), 3) + "," +
                        FormatDouble(scored.region.hi(j), 3) + "]");
        }
        table.AddRow({"#" + std::to_string(r + 1), JoinStrings(box, "x"),
                      FormatDouble(scored.statistic, 2)});
      }
      std::printf("%s", table.ToString().c_str());
    } else {
      PrintFindResult(response.result);
    }
  }

  const SurrogateCache::Stats stats = service.cache().stats();
  std::printf(
      "%zu requests in %.2fs (%.1f req/s) | surrogate cache: %llu hits, "
      "%llu misses, %llu evictions\n",
      responses.size(), seconds, responses.size() / seconds,
      static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.misses),
      static_cast<unsigned long long>(stats.evictions));
  // Per-request failures must reach the process exit code, so scripted
  // batch runs cannot silently half-succeed.
  std::printf("batch summary: %d/%zu requests failed\n", failures,
              responses.size());
  if (failures > 0) {
    std::fprintf(stderr, "surf_cli: %d of %zu batch requests failed\n",
                 failures, responses.size());
    return 1;
  }
  return 0;
}

/// SIGINT/SIGTERM flip this; the serve loop polls it and then drains.
volatile std::sig_atomic_t g_shutdown_requested = 0;

void HandleStopSignal(int) { g_shutdown_requested = 1; }

int RunServe(const CliFlags& flags) {
  // A server wants its lifecycle in the log; the library default (warn)
  // suits embedders and tests. SURF_LOG_LEVEL still wins when set.
  if (std::getenv("SURF_LOG_LEVEL") == nullptr) {
    SetLogLevel(LogLevel::kInfo);
  }
  MiningService::Options service_options;
  service_options.num_threads =
      static_cast<size_t>(flags.GetInt("threads", 0));
  service_options.cache.max_age_seconds =
      flags.GetDouble("cache-max-age",
                      std::numeric_limits<double>::infinity());
  service_options.cache.breaker_failure_threshold =
      static_cast<size_t>(flags.GetInt("breaker-threshold", 0));
  service_options.cache.breaker_open_seconds =
      flags.GetDouble("breaker-open", 5.0);
  service_options.cache.negative_ttl_seconds =
      flags.GetDouble("negative-ttl", 0.0);
  // --train-retries counts *extra* attempts; the policy counts total.
  service_options.training_retry.max_attempts =
      flags.GetInt("train-retries", 0) + 1;
  service_options.trace_ring_capacity =
      static_cast<size_t>(flags.GetInt("trace-ring", 64));
  // --workers turns this instance into a cluster coordinator: requests
  // with execution.cluster scatter shard groups to these endpoints.
  const std::string workers = flags.GetString("workers", "");
  for (const std::string& endpoint : SplitString(workers, ',')) {
    const std::string trimmed = TrimString(endpoint);
    if (!trimmed.empty()) {
      service_options.cluster_workers.push_back(trimmed);
    }
  }
  MiningService service(service_options);

  const std::string data_path = flags.GetString("data", "");
  if (!data_path.empty()) {
    if (auto st = service.RegisterCsvDataset("default", data_path);
        !st.ok()) {
      return Fail(st.ToString());
    }
    const Dataset* data = service.dataset("default");
    std::printf("dataset default: %zu rows x %zu columns from %s\n",
                data->num_rows(), data->num_cols(), data_path.c_str());
  }

  ServerMetrics metrics;
  SurfHandler::Options handler_options;
  handler_options.enable_failpoint_admin =
      flags.GetBool("enable-failpoints", false);
  handler_options.job_retention.max_finished =
      static_cast<size_t>(flags.GetInt("job-retention", 256));
  handler_options.job_retention.max_age_seconds =
      flags.GetDouble("job-max-age",
                      std::numeric_limits<double>::infinity());
  handler_options.coalesce_identical_mines =
      !flags.GetBool("no-coalesce", false);
  SurfHandler handler(&service, &metrics, handler_options);

  HttpServer::Options options;
  options.bind_address = flags.GetString("bind", "127.0.0.1");
  options.port = static_cast<uint16_t>(flags.GetInt("port", 8080));
  options.num_workers =
      static_cast<size_t>(flags.GetInt("http-workers", 0));
  options.batch_workers =
      static_cast<size_t>(flags.GetInt("batch-workers", 0));
  options.max_inflight =
      static_cast<size_t>(flags.GetInt("max-inflight", 64));
  options.max_queue_depth =
      static_cast<size_t>(flags.GetInt("max-queue", 0));
  options.request_deadline_seconds = flags.GetDouble("deadline", 30.0);
  // Per-tenant QoS: --tenant-default caps tenants without an explicit
  // entry; --tenant-limit names specific tenants.
  const std::string tenant_default = flags.GetString("tenant-default", "");
  if (!tenant_default.empty()) {
    if (auto st = sched::TenantGovernor::ParseLimits(
            tenant_default, &options.qos.default_limits);
        !st.ok()) {
      return Fail(st.ToString());
    }
  }
  const std::string tenant_limits = flags.GetString("tenant-limit", "");
  if (!tenant_limits.empty()) {
    if (auto st =
            sched::TenantGovernor::ParseTenantSpec(tenant_limits, &options.qos);
        !st.ok()) {
      return Fail(st.ToString());
    }
  }
  HttpServer server(options, handler.AsHttpHandler());
  handler.set_transport_stats_provider(
      [&server] { return server.stats(); });
  if (auto st = server.Start(); !st.ok()) return Fail(st.ToString());

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  std::printf("surfd listening on http://%s:%u (workers=%zu+%zu batch, "
              "max-inflight=%zu, deadline=%.1fs)\n",
              options.bind_address.c_str(), server.port(), server.workers(),
              server.batch_workers(), options.max_inflight,
              options.request_deadline_seconds);
  std::fflush(stdout);

  while (g_shutdown_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("signal received: draining in-flight requests...\n");
  std::fflush(stdout);
  server.Shutdown();
  const HttpServer::Stats stats = server.stats();
  std::printf("drained. served %llu requests (%llu connections, %llu "
              "rejected with 429, %llu timeouts)\n",
              static_cast<unsigned long long>(stats.requests_served),
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.connections_rejected),
              static_cast<unsigned long long>(stats.request_timeouts));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace surf;
  CliFlags flags(argc, argv);
  if (flags.GetBool("version", false)) return RunVersion();
  if (flags.positional().empty()) {
    PrintUsage();
    return 1;
  }
  const std::string command = flags.positional()[0];

  if (command == "version") return RunVersion();
  if (command == "batch") return RunBatch(flags);
  if (command == "serve") return RunServe(flags);

  if (command == "mine" || command == "ecdf" || command == "train") {
    const std::string data_path = flags.GetString("data", "");
    if (data_path.empty()) return Fail("--data FILE.csv is required");
    auto data = Dataset::LoadCsv(data_path);
    if (!data.ok()) return Fail(data.status().ToString());
    std::printf("loaded %zu rows x %zu columns from %s\n",
                data->num_rows(), data->num_cols(), data_path.c_str());
    if (command == "mine") return RunMine(flags, *data);
    if (command == "ecdf") return RunEcdf(flags, *data);
    return RunTrain(flags, *data);
  }

  PrintUsage();
  return 1;
}
