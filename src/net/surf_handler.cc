#include "net/surf_handler.h"

#include <cmath>

#include "accel/accel.h"
#include "api/api.h"
#include "core/workload.h"
#include "dist/worker_pool.h"
#include "serve/fingerprint.h"
#include "stats/sharded_evaluator.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"

namespace surf {

namespace {

HttpResponse JsonResponse(int status_code, const JsonValue& body) {
  HttpResponse response;
  response.status_code = status_code;
  response.body = WriteJson(body) + "\n";
  return response;
}

HttpResponse StatusResponse(const Status& status) {
  return JsonErrorResponse(HttpStatusFromStatus(status),
                           StatusCodeName(status.code()), status.message());
}

const char* JobPhaseName(MineJob::Phase phase) {
  switch (phase) {
    case MineJob::Phase::kQueued: return "queued";
    case MineJob::Phase::kTraining: return "training";
    case MineJob::Phase::kSearching: return "searching";
    case MineJob::Phase::kDone: return "done";
  }
  return "unknown";
}

JsonValue JobProgressToJson(const MineJob::Progress& progress) {
  JsonValue obj = JsonValue::Object();
  obj.Set("phase", JsonValue(JobPhaseName(progress.phase)));
  obj.Set("cancel_requested", JsonValue(progress.cancel_requested));
  obj.Set("iterations",
          JsonValue(static_cast<double>(progress.iterations)));
  obj.Set("max_iterations",
          JsonValue(static_cast<double>(progress.max_iterations)));
  obj.Set("valid_particles",
          JsonValue(static_cast<double>(progress.valid_particles)));
  // Per-phase wall time (always recorded, tracing or not): a running
  // phase reads its elapsed-so-far, so pollers watch the split move.
  obj.Set("queued_seconds", JsonValue(progress.queued_seconds));
  obj.Set("training_seconds", JsonValue(progress.training_seconds));
  obj.Set("searching_seconds", JsonValue(progress.searching_seconds));
  return obj;
}

}  // namespace

SurfHandler::SurfHandler(MiningService* service, ServerMetrics* metrics,
                         Options options)
    : service_(service),
      metrics_(metrics),
      options_(options),
      jobs_(options.job_retention) {
  routes_ = {
      {"GET", "/healthz", false, &SurfHandler::HandleHealthz},
      {"GET", "/metrics", false, &SurfHandler::HandleMetrics},
      {"GET", "/v1/version", false, &SurfHandler::HandleVersion},
      {"GET", "/v1/cache/stats", false, &SurfHandler::HandleCacheStats},
      {"GET", "/v1/trace/", true, &SurfHandler::HandleGetTrace},
      {"POST", "/v1/datasets", false, &SurfHandler::HandleRegisterDataset},
      {"POST", "/v1/mine", false, &SurfHandler::HandleMine},
      {"POST", "/v1/mine:batch", false, &SurfHandler::HandleMineBatch},
      {"POST", "/v1/evaluations", false, &SurfHandler::HandleEvaluations},
      {"POST", "/v1/shards:evaluate", false,
       &SurfHandler::HandleShardEvaluate},
      {"POST", "/v1/jobs", false, &SurfHandler::HandleSubmitJob},
      {"GET", "/v1/jobs/", true, &SurfHandler::HandleGetJob},
      {"DELETE", "/v1/jobs/", true, &SurfHandler::HandleCancelJob},
  };
  // The admin surface exists only when explicitly enabled; a production
  // handler answers 404 on these paths like any other unknown route.
  if (options_.enable_failpoint_admin) {
    routes_.push_back(
        {"GET", "/v1/failpoints", false, &SurfHandler::HandleListFailpoints});
    routes_.push_back(
        {"POST", "/v1/failpoints", false, &SurfHandler::HandleArmFailpoints});
    routes_.push_back({"DELETE", "/v1/failpoints", false,
                       &SurfHandler::HandleClearFailpoints});
    routes_.push_back({"DELETE", "/v1/failpoints/", true,
                       &SurfHandler::HandleClearOneFailpoint});
  }
}

HttpResponse SurfHandler::Handle(const HttpRequest& request) {
  // Strip any query string before matching; the API carries every
  // parameter in JSON bodies.
  std::string path = request.target;
  const size_t query = path.find('?');
  if (query != std::string::npos) path = path.substr(0, query);

  const Route* match = nullptr;
  std::string param;
  bool path_known = false;
  for (const Route& route : routes_) {
    std::string candidate_param;
    if (route.prefix) {
      if (path.size() <= route.path.size() ||
          path.compare(0, route.path.size(), route.path) != 0) {
        continue;
      }
      candidate_param = path.substr(route.path.size());
    } else if (route.path != path) {
      continue;
    }
    path_known = true;
    if (route.method == request.method) {
      match = &route;
      param = std::move(candidate_param);
      break;
    }
  }

  Stopwatch timer;
  metrics_->BeginRequest();
  HttpResponse response;
  if (match != nullptr) {
    response = (this->*(match->fn))(request, param);
  } else if (path_known) {
    response = JsonErrorResponse(405, "method_not_allowed",
                                 request.method + " not supported on " + path);
  } else {
    response = JsonErrorResponse(404, "unknown_route",
                                 "no handler for " + path);
  }
  metrics_->EndRequest();
  metrics_->RecordRequest(match != nullptr ? match->path : "unmatched",
                          response.status_code, timer.ElapsedSeconds());
  return response;
}

ColumnResolver SurfHandler::MakeResolver() const {
  MiningService* service = service_;
  return [service](const std::string& dataset, const std::string& column) {
    const Dataset* data = service->dataset(dataset);
    return data == nullptr ? -1 : data->ColumnIndex(column);
  };
}

HttpResponse SurfHandler::HandleHealthz(const HttpRequest&,
                                        const std::string&) {
  JsonValue body = JsonValue::Object();
  body.Set("status", JsonValue("ok"));
  body.Set("datasets",
           JsonValue(static_cast<double>(service_->dataset_names().size())));
  return JsonResponse(200, body);
}

HttpResponse SurfHandler::HandleMetrics(const HttpRequest&,
                                        const std::string&) {
  const SurrogateCache::Stats stats = service_->cache().stats();
  ServerMetrics::CacheFigures cache;
  cache.hits = stats.hits;
  cache.misses = stats.misses;
  cache.evictions = stats.evictions;
  cache.stale_evictions = stats.stale_evictions;
  cache.entries = service_->cache().size();
  cache.degraded_serves = stats.degraded_serves;
  cache.negative_hits = stats.negative_hits;
  cache.breaker_rejections = stats.breaker_rejections;
  cache.training_failures = stats.training_failures;

  // Scraping /metrics also runs the job table's age sweep, so evictions
  // advance even on an otherwise idle server.
  jobs_.Sweep();
  ServerMetrics::ServiceFigures service;
  service.jobs_tracked = jobs_.size();
  service.jobs_evicted = jobs_.evictions();
  const ShardedScanEvaluator::GlobalTelemetry shard_telemetry =
      ShardedScanEvaluator::global_telemetry();
  service.shard_evals_pruned = shard_telemetry.pruned;
  service.shard_evals_block_merged = shard_telemetry.block_merged;
  service.shard_evals_scanned = shard_telemetry.scanned;
  service.accel_backend = AccelBackendName(ActiveAccelBackend());
  if (const dist::WorkerPool* pool = service_->cluster_pool()) {
    dist::WorkerPool::Figures figures = pool->Snapshot();
    service.has_dist = true;
    service.dist_shard_retries = figures.shard_retries;
    service.dist_workers = std::move(figures.workers);
  }
  if (transport_stats_) {
    const HttpServer::Stats transport = transport_stats_();
    service.has_transport = true;
    service.worker_exceptions = transport.worker_exceptions;
    service.write_failures = transport.write_failures;
    service.requests_shed = transport.requests_shed;
    service.tenant_throttled = transport.tenant_throttled;
    service.tenant_over_quota = transport.tenant_over_quota;
    service.batch_served = transport.batch_served;
    service.mine_coalesced =
        mine_coalesced_.load(std::memory_order_relaxed);
  }

  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4";
  response.body = metrics_->RenderPrometheus(cache, service);
  return response;
}

HttpResponse SurfHandler::HandleCacheStats(const HttpRequest&,
                                           const std::string&) {
  const SurrogateCache::Stats stats = service_->cache().stats();
  const uint64_t lookups = stats.hits + stats.misses;
  JsonValue body = JsonValue::Object();
  body.Set("hits", JsonValue(static_cast<double>(stats.hits)));
  body.Set("misses", JsonValue(static_cast<double>(stats.misses)));
  body.Set("evictions", JsonValue(static_cast<double>(stats.evictions)));
  body.Set("stale_evictions",
           JsonValue(static_cast<double>(stats.stale_evictions)));
  body.Set("entries", JsonValue(static_cast<double>(service_->cache().size())));
  body.Set("capacity",
           JsonValue(static_cast<double>(service_->cache().options().capacity)));
  body.Set("degraded_serves",
           JsonValue(static_cast<double>(stats.degraded_serves)));
  body.Set("negative_hits",
           JsonValue(static_cast<double>(stats.negative_hits)));
  body.Set("breaker_rejections",
           JsonValue(static_cast<double>(stats.breaker_rejections)));
  body.Set("training_failures",
           JsonValue(static_cast<double>(stats.training_failures)));
  body.Set("hit_ratio",
           JsonValue(lookups == 0 ? 0.0
                                  : static_cast<double>(stats.hits) /
                                        static_cast<double>(lookups)));
  // Evaluator/backend telemetry rides along so one endpoint answers
  // "why was labelling slow" without a Prometheus scrape.
  const ShardedScanEvaluator::GlobalTelemetry shard_telemetry =
      ShardedScanEvaluator::global_telemetry();
  JsonValue shards = JsonValue::Object();
  shards.Set("pruned",
             JsonValue(static_cast<double>(shard_telemetry.pruned)));
  shards.Set("block_merged",
             JsonValue(static_cast<double>(shard_telemetry.block_merged)));
  shards.Set("scanned",
             JsonValue(static_cast<double>(shard_telemetry.scanned)));
  body.Set("shard_evals", std::move(shards));
  body.Set("accel_backend", JsonValue(AccelBackendName(ActiveAccelBackend())));
  return JsonResponse(200, body);
}

HttpResponse SurfHandler::HandleGetTrace(const HttpRequest&,
                                         const std::string& id) {
  const std::shared_ptr<const TraceContext> trace =
      service_->traces().Find(id);
  if (trace == nullptr) {
    return StatusResponse(Status::NotFound(
        "no retained trace '" + id +
        "' (traces come from requests with execution.trace "
        "set, and only the most recent are kept)"));
  }
  return JsonResponse(200, TraceToChromeJson(*trace));
}

HttpResponse SurfHandler::HandleRegisterDataset(const HttpRequest& request,
                                                const std::string&) {
  auto json = ParseJson(request.body);
  if (!json.ok()) return StatusResponse(json.status());
  if (!json->is_object()) {
    return StatusResponse(
        Status::InvalidArgument("dataset registration must be a JSON object"));
  }
  const JsonValue* name = json->Find("name");
  if (name == nullptr || !name->is_string() ||
      name->string_value().empty()) {
    return StatusResponse(
        Status::InvalidArgument("field 'name' (non-empty string) is required"));
  }
  const JsonValue* path = json->Find("path");
  const JsonValue* rows = json->Find("rows");
  if ((path != nullptr) == (rows != nullptr)) {
    return StatusResponse(Status::InvalidArgument(
        "provide exactly one of 'path' (CSV file) or 'rows' (inline data)"));
  }

  Status registered = Status::OK();
  if (path != nullptr) {
    if (!path->is_string()) {
      return StatusResponse(
          Status::InvalidArgument("field 'path' must be a string"));
    }
    registered =
        service_->RegisterCsvDataset(name->string_value(), path->string_value());
  } else {
    const JsonValue* columns = json->Find("columns");
    if (columns == nullptr || !columns->is_array() || columns->size() == 0) {
      return StatusResponse(Status::InvalidArgument(
          "inline registration needs 'columns' (array of names)"));
    }
    std::vector<std::string> column_names;
    for (const JsonValue& c : columns->array()) {
      if (!c.is_string()) {
        return StatusResponse(
            Status::InvalidArgument("'columns' entries must be strings"));
      }
      column_names.push_back(c.string_value());
    }
    if (!rows->is_array()) {
      return StatusResponse(
          Status::InvalidArgument("field 'rows' must be an array of rows"));
    }
    Dataset data(column_names);
    data.Reserve(rows->size());
    std::vector<double> row(column_names.size());
    for (const JsonValue& r : rows->array()) {
      if (!r.is_array() || r.size() != column_names.size()) {
        return StatusResponse(Status::InvalidArgument(
            "every row must be an array of " +
            std::to_string(column_names.size()) + " numbers"));
      }
      for (size_t j = 0; j < row.size(); ++j) {
        const JsonValue& cell = r.array()[j];
        if (!cell.is_number()) {
          return StatusResponse(
              Status::InvalidArgument("row cells must be numbers"));
        }
        row[j] = cell.number_value();
      }
      data.AddRow(row);
    }
    registered = service_->RegisterDataset(name->string_value(), std::move(data));
  }
  if (!registered.ok()) return StatusResponse(registered);

  const Dataset* data = service_->dataset(name->string_value());
  JsonValue body = JsonValue::Object();
  body.Set("name", *name);
  body.Set("rows", JsonValue(static_cast<double>(data->num_rows())));
  body.Set("columns", JsonValue(static_cast<double>(data->num_cols())));
  return JsonResponse(201, body);
}

HttpResponse SurfHandler::HandleMine(const HttpRequest& request,
                                     const std::string&) {
  auto json = ParseJson(request.body);
  if (!json.ok()) return StatusResponse(json.status());
  const ColumnResolver resolver = MakeResolver();
  auto decoded = MineRequestV2FromJson(*json, &resolver);
  if (!decoded.ok()) return StatusResponse(decoded.status());

  // Single-flight coalescing: concurrent requests with byte-identical
  // bodies share one computation. The engine is deterministic, so the
  // shared response is bit-identical to what each request would have
  // computed alone; sequential identical requests are untouched (the
  // flight is erased before its response is returned), so cache-stat
  // expectations and warm/cold behavior stay exactly as before.
  // Requests with per-request side effects (trace capture, evaluation
  // recording) must each run for real and never join a flight.
  const bool coalescable = options_.coalesce_identical_mines &&
                           !decoded->execution.trace &&
                           !decoded->execution.record_evaluations;
  if (!coalescable) return ExecuteMine(request, std::move(decoded).value());

  std::shared_ptr<MineFlight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(mine_flights_mu_);
    auto it = mine_flights_.find(request.body);
    if (it == mine_flights_.end()) {
      flight = std::make_shared<MineFlight>();
      mine_flights_.emplace(request.body, flight);
      leader = true;
    } else {
      flight = it->second;
    }
  }
  if (!leader) {
    // Follower: block until the leader publishes, then share its answer.
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&] { return flight->done; });
    mine_coalesced_.fetch_add(1, std::memory_order_relaxed);
    return flight->response;
  }

  HttpResponse response;
  try {
    response = ExecuteMine(request, std::move(decoded).value());
  } catch (...) {
    // Publish *something* before rethrowing so followers never hang.
    {
      std::lock_guard<std::mutex> lock(flight->mu);
      flight->response = StatusResponse(Status::Internal("handler threw"));
      flight->done = true;
    }
    flight->cv.notify_all();
    {
      std::lock_guard<std::mutex> lock(mine_flights_mu_);
      mine_flights_.erase(request.body);
    }
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->response = response;
    flight->done = true;
  }
  flight->cv.notify_all();
  {
    std::lock_guard<std::mutex> lock(mine_flights_mu_);
    mine_flights_.erase(request.body);
  }
  return response;
}

HttpResponse SurfHandler::ExecuteMine(const HttpRequest& request,
                                      v2::MineRequest decoded_value) {
  auto* decoded = &decoded_value;
  // Wire the transport's remaining per-request budget into the job's
  // cancel token (keeping a client-requested tighter deadline): when it
  // expires, the search stops within one iteration and the 408 below
  // carries the partial results — the worker's CPU is reclaimed rather
  // than burned on an answer nobody is waiting for.
  const double remaining = request.RemainingSeconds();
  if (std::isfinite(remaining) &&
      (decoded->execution.deadline_seconds == 0.0 ||
       remaining < decoded->execution.deadline_seconds)) {
    // An already-expired budget must cancel immediately — never collapse
    // onto the 0.0 = "no deadline" sentinel (which would erase a
    // client-supplied deadline and run the search unbounded).
    decoded->execution.deadline_seconds =
        remaining > 0.0 ? remaining : 1e-9;
  }

  const v2::MineResponse response = service_->Mine(*decoded);
  if (!response.status.ok() &&
      response.status.code() != StatusCode::kCancelled) {
    HttpResponse error = StatusResponse(response.status);
    if (response.status.code() == StatusCode::kUnavailable) {
      // Circuit-breaker refusals carry a Retry-After hint so well-behaved
      // clients back off for (at least) the remaining open window.
      auto key = service_->KeyFor(*decoded);
      if (key.ok()) {
        const int retry_after =
            service_->cache().RetryAfterSeconds(*key);
        if (retry_after > 0) {
          error.headers.emplace_back("Retry-After",
                                     std::to_string(retry_after));
        }
      }
    }
    return error;
  }
  // Cancelled responses keep the full envelope (partial regions +
  // provenance) under the 408 status.
  const int http_status = HttpStatusFromStatus(response.status);
  return JsonResponse(http_status,
                      MineResponseV2ToJson(response, decoded->query.kind));
}

HttpResponse SurfHandler::HandleMineBatch(const HttpRequest& request,
                                          const std::string&) {
  auto json = ParseJson(request.body);
  if (!json.ok()) return StatusResponse(json.status());
  if (!json->is_object()) {
    return StatusResponse(
        Status::InvalidArgument("batch body must be a JSON object"));
  }
  const JsonValue* list = json->Find("requests");
  if (list == nullptr || !list->is_array() || list->size() == 0) {
    return StatusResponse(Status::InvalidArgument(
        "field 'requests' (non-empty array) is required"));
  }
  const ColumnResolver resolver = MakeResolver();
  std::vector<v2::MineRequest> requests;
  requests.reserve(list->size());
  for (size_t i = 0; i < list->array().size(); ++i) {
    // Batch entries accept either schema version, like /v1/mine.
    auto decoded = MineRequestV2FromJson(list->array()[i], &resolver);
    if (!decoded.ok()) {
      return StatusResponse(Status::InvalidArgument(
          "requests[" + std::to_string(i) +
          "]: " + decoded.status().message()));
    }
    requests.push_back(std::move(decoded).value());
  }

  // The v2 batch path honours each entry's execution.deadline_seconds.
  const std::vector<v2::MineResponse> responses =
      service_->MineBatch(requests);
  size_t failed = 0;
  JsonValue encoded = JsonValue::Array();
  for (size_t i = 0; i < responses.size(); ++i) {
    if (!responses[i].status.ok()) ++failed;
    encoded.Append(MineResponseV2ToJson(responses[i], requests[i].query.kind));
  }
  JsonValue body = JsonValue::Object();
  body.Set("responses", std::move(encoded));
  body.Set("total", JsonValue(static_cast<double>(responses.size())));
  body.Set("failed", JsonValue(static_cast<double>(failed)));
  return JsonResponse(200, body);
}

HttpResponse SurfHandler::HandleEvaluations(const HttpRequest& request,
                                            const std::string&) {
  auto json = ParseJson(request.body);
  if (!json.ok()) return StatusResponse(json.status());
  if (!json->is_object()) {
    return StatusResponse(
        Status::InvalidArgument("evaluations body must be a JSON object"));
  }
  const JsonValue* keyed = json->Find("request");
  if (keyed == nullptr) {
    return StatusResponse(Status::InvalidArgument(
        "field 'request' (cache-keying MineRequest) is required"));
  }
  const ColumnResolver resolver = MakeResolver();
  auto decoded = MineRequestV2FromJson(*keyed, &resolver);
  if (!decoded.ok()) return StatusResponse(decoded.status());

  const JsonValue* evaluations = json->Find("evaluations");
  if (evaluations == nullptr || !evaluations->is_array() ||
      evaluations->size() == 0) {
    return StatusResponse(Status::InvalidArgument(
        "field 'evaluations' (non-empty array of {region, value}) is "
        "required"));
  }

  const size_t dims = decoded->query.statistic.region_cols.size();
  RegionWorkload fresh;
  fresh.features = FeatureMatrix(2 * dims);
  fresh.statistic = decoded->query.statistic;
  for (size_t i = 0; i < evaluations->array().size(); ++i) {
    const JsonValue& entry = evaluations->array()[i];
    const std::string at = "evaluations[" + std::to_string(i) + "]";
    if (!entry.is_object()) {
      return StatusResponse(Status::InvalidArgument(at + " must be an object"));
    }
    const JsonValue* region_json = entry.Find("region");
    const JsonValue* value = entry.Find("value");
    if (region_json == nullptr || value == nullptr || !value->is_number()) {
      return StatusResponse(Status::InvalidArgument(
          at + " needs 'region' and a numeric 'value'"));
    }
    auto region = RegionFromJson(*region_json);
    if (!region.ok()) {
      return StatusResponse(
          Status::InvalidArgument(at + ": " + region.status().message()));
    }
    if (region->dims() != dims) {
      return StatusResponse(Status::InvalidArgument(
          at + ": region has " + std::to_string(region->dims()) +
          " dims but the statistic spans " + std::to_string(dims)));
    }
    fresh.features.AddRow(RegionFeatures(*region));
    fresh.targets.push_back(value->number_value());
  }

  const Status appended = service_->AppendEvaluations(*decoded, fresh);
  if (!appended.ok()) return StatusResponse(appended);

  JsonValue body = JsonValue::Object();
  body.Set("appended", JsonValue(static_cast<double>(fresh.size())));
  // Report the entry's declared pedigree after the append, so clients
  // see pending counts and warm-start folds move.
  auto key = service_->KeyFor(*decoded);
  if (key.ok()) {
    if (auto entry = service_->cache().Peek(*key)) {
      body.Set("provenance", ProvenanceToJson(entry->provenance()));
    }
  }
  return JsonResponse(200, body);
}

HttpResponse SurfHandler::HandleShardEvaluate(const HttpRequest& request,
                                              const std::string&) {
  auto json = ParseJson(request.body);
  if (!json.ok()) return StatusResponse(json.status());
  const ColumnResolver resolver = MakeResolver();
  auto decoded = ShardEvaluateRequestFromJson(*json, &resolver);
  if (!decoded.ok()) return StatusResponse(decoded.status());

  const Dataset* data = service_->dataset(decoded->dataset);
  if (data == nullptr) {
    return StatusResponse(Status::NotFound(
        "dataset '" + decoded->dataset + "' not registered on this worker"));
  }
  // The coordinator's fingerprint pins the exact data the partials must
  // come from: a worker holding anything else must refuse, not answer
  // with bits from a different dataset.
  if (decoded->has_fingerprint &&
      service_->dataset_fingerprint(decoded->dataset) !=
          decoded->fingerprint) {
    return StatusResponse(Status::FailedPrecondition(
        "dataset '" + decoded->dataset +
        "' fingerprint mismatch: this worker holds different data "
        "than the coordinator expects"));
  }
  if (decoded->num_shards > ShardingOptions::kMaxShards) {
    return StatusResponse(Status::InvalidArgument(
        "num_shards must be <= " +
        std::to_string(ShardingOptions::kMaxShards)));
  }
  // order_by -1 keeps natural row order; anything else must name a
  // column.
  if (decoded->order_by < -1 ||
      (decoded->order_by >= 0 &&
       static_cast<size_t>(decoded->order_by) >= data->num_cols())) {
    return StatusResponse(
        Status::InvalidArgument("order_by column out of range"));
  }
  for (size_t c : decoded->columns) {
    if (c >= data->num_cols()) {
      return StatusResponse(
          Status::InvalidArgument("partition column out of range"));
    }
  }
  if (Status columns = CheckStatisticColumns(*data, decoded->statistic);
      !columns.ok()) {
    return StatusResponse(columns);
  }
  const size_t dims = decoded->statistic.region_cols.size();
  for (const Region& q : decoded->queries) {
    if (q.dims() != dims) {
      return StatusResponse(Status::InvalidArgument(
          "query region dims do not match statistic.region_cols"));
    }
  }

  // One partition per (dataset, statistic, partition spec) — repeated
  // scatter batches of a workload reuse it instead of re-sharding.
  std::string key = decoded->dataset + "|" +
                    FormatHexU64(FingerprintStatistic(decoded->statistic)) +
                    "|" + std::to_string(decoded->num_shards) + "|" +
                    std::to_string(decoded->order_by) + "|";
  for (size_t c : decoded->columns) key += std::to_string(c) + ",";
  std::shared_ptr<const ShardedScanEvaluator> evaluator;
  {
    std::lock_guard<std::mutex> lock(shard_evaluators_mu_);
    auto it = shard_evaluators_.find(key);
    if (it != shard_evaluators_.end()) evaluator = it->second;
  }
  if (evaluator == nullptr) {
    ShardingOptions options;
    options.num_shards = decoded->num_shards;
    options.order_by = decoded->order_by;
    options.columns = decoded->columns;
    auto built = std::make_shared<const ShardedScanEvaluator>(
        ShardedDataset::Partition(*data, options), decoded->statistic,
        /*num_threads=*/1);
    std::lock_guard<std::mutex> lock(shard_evaluators_mu_);
    auto [it, inserted] = shard_evaluators_.emplace(key, std::move(built));
    evaluator = it->second;  // a concurrent loser shares the winner's
    (void)inserted;
  }
  // Partition may clamp the shard count (tiny datasets); assignments
  // beyond what actually exists are a spec mismatch, not retriable.
  if (decoded->shards.back() >= evaluator->num_shards()) {
    return StatusResponse(Status::InvalidArgument(
        "shard index " + std::to_string(decoded->shards.back()) +
        " out of range: partition has " +
        std::to_string(evaluator->num_shards()) + " shards"));
  }

  // Deadline: the tighter of the transport budget and the wire field,
  // polled between every (query, shard) cell so an expired coordinator
  // deadline releases this worker within one shard evaluation.
  CancelSource cancel_source;
  double budget = decoded->deadline_seconds;
  const double remaining = request.RemainingSeconds();
  if (std::isfinite(remaining) && (budget == 0.0 || remaining < budget)) {
    budget = remaining > 0.0 ? remaining : 1e-9;
  }
  if (budget > 0.0) cancel_source.SetDeadline(budget);
  const CancelToken cancel = cancel_source.token();

  dist::ShardEvaluateResponse partials;
  partials.partials.resize(decoded->queries.size());
  for (size_t q = 0; q < decoded->queries.size(); ++q) {
    partials.partials[q].reserve(decoded->shards.size());
    for (size_t s : decoded->shards) {
      if (cancel.cancelled()) {
        return StatusResponse(
            Status::TimedOut("shard evaluation deadline exceeded"));
      }
      StatisticAccumulator acc(decoded->statistic);
      evaluator->EvalShardPartial(s, decoded->queries[q], &acc);
      partials.partials[q].push_back(std::move(acc));
    }
  }
  return JsonResponse(200, ShardEvaluateResponseToJson(partials));
}

HttpResponse SurfHandler::HandleVersion(const HttpRequest&,
                                        const std::string&) {
  const BuildInfo info = GetBuildInfo();
  JsonValue build = JsonValue::Object();
  build.Set("compiler", JsonValue(info.compiler));
  build.Set("cxx_standard", JsonValue(info.cxx_standard));
  JsonValue body = JsonValue::Object();
  body.Set("api_version", JsonValue(static_cast<double>(info.api_version)));
  body.Set("api_min_version",
           JsonValue(static_cast<double>(info.api_min_version)));
  body.Set("library_version", JsonValue(info.library_version));
  body.Set("build", std::move(build));
  return JsonResponse(200, body);
}

HttpResponse SurfHandler::HandleSubmitJob(const HttpRequest& request,
                                          const std::string&) {
  auto json = ParseJson(request.body);
  if (!json.ok()) return StatusResponse(json.status());
  const ColumnResolver resolver = MakeResolver();
  auto decoded = MineRequestV2FromJson(*json, &resolver);
  if (!decoded.ok()) return StatusResponse(decoded.status());

  // Async jobs deliberately ignore the transport deadline: the request
  // is acknowledged immediately and the mining outlives this HTTP
  // exchange. Only the client's execution.deadline_seconds applies.
  auto job = service_->Submit(*decoded);
  const std::string id = jobs_.Add(job);

  JsonValue body = JsonValue::Object();
  body.Set("job_id", JsonValue(id));
  body.Set("progress", JobProgressToJson(job->progress()));
  body.Set("poll", JsonValue("/v1/jobs/" + id));
  return JsonResponse(202, body);
}

HttpResponse SurfHandler::HandleGetJob(const HttpRequest&,
                                       const std::string& id) {
  auto job = jobs_.Find(id);
  if (job == nullptr) {
    return StatusResponse(Status::NotFound("no job '" + id + "'"));
  }
  JsonValue body = JsonValue::Object();
  body.Set("job_id", JsonValue(id));
  body.Set("progress", JobProgressToJson(job->progress()));
  v2::MineResponse response;
  if (job->TryGet(&response)) {
    body.Set("response",
             MineResponseV2ToJson(response, job->request().query.kind));
  }
  return JsonResponse(200, body);
}

HttpResponse SurfHandler::HandleListFailpoints(const HttpRequest&,
                                               const std::string&) {
  FailpointRegistry& registry = FailpointRegistry::Global();
  JsonValue armed = JsonValue::Array();
  for (const FailpointRegistry::Info& info : registry.List()) {
    JsonValue entry = JsonValue::Object();
    entry.Set("site", JsonValue(info.site));
    entry.Set("action", JsonValue(info.action));
    entry.Set("hits", JsonValue(static_cast<double>(info.hits)));
    entry.Set("fires", JsonValue(static_cast<double>(info.fires)));
    armed.Append(std::move(entry));
  }
  JsonValue known = JsonValue::Array();
  for (const std::string& site : FailpointRegistry::KnownSites()) {
    known.Append(JsonValue(site));
  }
  JsonValue body = JsonValue::Object();
  body.Set("failpoints", std::move(armed));
  body.Set("seed", JsonValue(static_cast<double>(registry.seed())));
  body.Set("known_sites", std::move(known));
  return JsonResponse(200, body);
}

HttpResponse SurfHandler::HandleArmFailpoints(const HttpRequest& request,
                                              const std::string&) {
  auto json = ParseJson(request.body);
  if (!json.ok()) return StatusResponse(json.status());
  if (!json->is_object()) {
    return StatusResponse(
        Status::InvalidArgument("failpoint body must be a JSON object"));
  }
  const JsonValue* spec = json->Find("spec");
  const JsonValue* seed = json->Find("seed");
  if (spec == nullptr && seed == nullptr) {
    return StatusResponse(Status::InvalidArgument(
        "provide 'spec' (\"site=action,...\") and/or 'seed' (integer)"));
  }
  FailpointRegistry& registry = FailpointRegistry::Global();
  if (seed != nullptr) {
    if (!seed->is_number() || seed->number_value() < 0) {
      return StatusResponse(Status::InvalidArgument(
          "field 'seed' must be a non-negative number"));
    }
    registry.SetSeed(static_cast<uint64_t>(seed->number_value()));
  }
  if (spec != nullptr) {
    if (!spec->is_string()) {
      return StatusResponse(
          Status::InvalidArgument("field 'spec' must be a string"));
    }
    const Status configured = registry.Configure(spec->string_value());
    if (!configured.ok()) return StatusResponse(configured);
  }
  // Echo the post-change state so the caller sees what is armed.
  return HandleListFailpoints(request, "");
}

HttpResponse SurfHandler::HandleClearFailpoints(const HttpRequest&,
                                                const std::string&) {
  FailpointRegistry::Global().ClearAll();
  JsonValue body = JsonValue::Object();
  body.Set("cleared", JsonValue(true));
  return JsonResponse(200, body);
}

HttpResponse SurfHandler::HandleClearOneFailpoint(const HttpRequest&,
                                                  const std::string& site) {
  const bool was_armed = FailpointRegistry::Global().Clear(site);
  if (!was_armed) {
    return StatusResponse(
        Status::NotFound("failpoint '" + site + "' is not armed"));
  }
  JsonValue body = JsonValue::Object();
  body.Set("site", JsonValue(site));
  body.Set("cleared", JsonValue(true));
  return JsonResponse(200, body);
}

HttpResponse SurfHandler::HandleCancelJob(const HttpRequest&,
                                          const std::string& id) {
  auto job = jobs_.Find(id);
  if (job == nullptr) {
    return StatusResponse(Status::NotFound("no job '" + id + "'"));
  }
  const bool was_done = job->done();
  job->Cancel();  // harmless no-op when already terminal
  JsonValue body = JsonValue::Object();
  body.Set("job_id", JsonValue(id));
  body.Set("cancelled", JsonValue(!was_done));
  body.Set("already_done", JsonValue(was_done));
  body.Set("progress", JobProgressToJson(job->progress()));
  return JsonResponse(200, body);
}

}  // namespace surf
