#include "serve/mining_service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dist/cluster_evaluator.h"
#include "dist/worker_pool.h"
#include "ml/grid_search.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"

namespace surf {

MiningService::MiningService(Options options)
    : options_(options),
      pool_(options.num_threads == 0 ? ThreadPool::DefaultThreadCount()
                                     : options.num_threads),
      cache_(options.cache),
      traces_(options.trace_ring_capacity) {
  if (!options_.cluster_workers.empty()) {
    cluster_pool_ =
        std::make_unique<dist::WorkerPool>(options_.cluster_workers);
  }
}

MiningService::~MiningService() {
  // Submitted jobs reference the cache and dataset registry; those
  // members are destroyed before pool_, so the queue must drain first —
  // and abandoned jobs are cancelled so the drain takes one iteration
  // per running search, not their full remaining runtime.
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    for (const auto& weak : live_jobs_) {
      if (auto job = weak.lock()) job->Cancel();
    }
  }
  pool_.Wait();
}

Status MiningService::RegisterDataset(const std::string& name, Dataset data) {
  if (name.empty()) return Status::InvalidArgument("empty dataset name");
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("empty dataset '" + name + "'");
  }
  NamedDataset named;
  named.fingerprint = FingerprintDataset(data);
  named.data = std::make_unique<Dataset>(std::move(data));
  std::lock_guard<std::mutex> lock(datasets_mu_);
  auto [it, inserted] = datasets_.emplace(name, std::move(named));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("dataset '" + name + "' already registered");
  }
  return Status::OK();
}

Status MiningService::RegisterCsvDataset(const std::string& name,
                                         const std::string& path) {
  auto data = Dataset::LoadCsv(path);
  if (!data.ok()) return data.status();
  return RegisterDataset(name, std::move(data).value());
}

const Dataset* MiningService::dataset(const std::string& name) const {
  std::lock_guard<std::mutex> lock(datasets_mu_);
  auto it = datasets_.find(name);
  return it == datasets_.end() ? nullptr : it->second.data.get();
}

uint64_t MiningService::dataset_fingerprint(const std::string& name) const {
  std::lock_guard<std::mutex> lock(datasets_mu_);
  auto it = datasets_.find(name);
  return it == datasets_.end() ? 0 : it->second.fingerprint;
}

std::vector<std::string> MiningService::dataset_names() const {
  std::lock_guard<std::mutex> lock(datasets_mu_);
  std::vector<std::string> names;
  names.reserve(datasets_.size());
  for (const auto& [name, named] : datasets_) names.push_back(name);
  return names;
}

StatusOr<const MiningService::NamedDataset*> MiningService::ResolveRequest(
    const v2::MineRequest& request) const {
  const NamedDataset* named = nullptr;
  {
    std::lock_guard<std::mutex> lock(datasets_mu_);
    auto it = datasets_.find(request.dataset);
    if (it != datasets_.end()) named = &it->second;
  }
  if (named == nullptr) {
    return Status::NotFound("dataset '" + request.dataset +
                            "' not registered");
  }
  SURF_RETURN_IF_ERROR(
      CheckStatisticColumns(*named->data, request.query.statistic));
  return named;
}

SurrogateKey MiningService::MakeKey(const v2::MineRequest& request,
                                    const NamedDataset& named) {
  SurrogateKey key;
  key.dataset = named.fingerprint;  // cached at registration
  key.statistic = FingerprintStatistic(request.query.statistic);
  key.workload = FingerprintWorkloadParams(request.training.workload);
  key.model = FingerprintTrainOptions(request.training.surrogate);
  return key;
}

StatusOr<SurrogateKey> MiningService::KeyFor(
    const v2::MineRequest& request) const {
  auto named = ResolveRequest(request);
  if (!named.ok()) return named.status();
  return MakeKey(request, **named);
}

size_t MiningService::shared_evaluator_slots() const {
  std::lock_guard<std::mutex> lock(evaluators_mu_);
  return evaluators_.size();
}

std::shared_ptr<const RegionEvaluator> MiningService::SharedEvaluator(
    const v2::MineRequest& request, const NamedDataset& named) {
  const v2::ExecutionPolicy& execution = request.execution;
  const EvaluatorKey key{named.fingerprint, execution.backend,
                         std::max<size_t>(execution.shards, 1),
                         FingerprintStatistic(request.query.statistic)};
  std::lock_guard<std::mutex> lock(evaluators_mu_);
  auto it = evaluators_.find(key);
  if (it != evaluators_.end()) {
    if (auto live = it->second.lock()) return live;
  }
  std::erase_if(evaluators_,
                [](const auto& slot) { return slot.second.expired(); });
  std::shared_ptr<const RegionEvaluator> built =
      MakeEvaluator(execution.backend, named.data.get(),
                    request.query.statistic, execution.shards);
  evaluators_[key] = built;
  return built;
}

StatusOr<TrainedSurrogate> MiningService::TrainEntry(
    const v2::MineRequest& request, const NamedDataset& named,
    CancelToken cancel, TraceContext* trace) {
  SURF_FAILPOINT("serve.train");
  const Statistic& statistic = request.query.statistic;
  std::shared_ptr<const RegionEvaluator> evaluator;
  if (request.execution.cluster) {
    // Cluster mode swaps only the exact back-end: labelling and
    // validation scatter to the remote workers, everything downstream
    // (training, cache, search) is byte-for-byte the in-process path.
    if (cluster_pool_ == nullptr) {
      return Status::FailedPrecondition(
          "cluster execution requested but no workers configured");
    }
    dist::ClusterEvaluator::Options cluster_options;
    cluster_options.dataset = request.dataset;
    cluster_options.fingerprint = named.fingerprint;
    const size_t shards = request.execution.shards;
    cluster_options.num_shards = shards >= 2 ? shards : 0;
    evaluator = std::make_shared<const dist::ClusterEvaluator>(
        cluster_pool_.get(), statistic, std::move(cluster_options));
  } else {
    evaluator = SharedEvaluator(request, named);
  }
  RegionWorkload workload;
  auto trained = TrainSurrogate(std::move(evaluator), *named.data, statistic,
                                request.training.workload,
                                request.training.surrogate, cancel, trace,
                                &workload);
  if (trained.ok() && options_.provenance_cv_folds >= 2) {
    TraceSpan span(trace, "cross_validation", TraceStage::kTraining);
    trained->cv_rmse = CrossValidatedRmse(
        workload.features, workload.targets,
        trained->surrogate.metrics().chosen_params,
        options_.provenance_cv_folds, request.training.surrogate.seed);
  }
  return trained;
}

StatusOr<std::shared_ptr<CachedSurrogate>> MiningService::EntryFor(
    const v2::MineRequest& request, CancelToken cancel, bool* was_hit,
    TraceContext* trace) {
  auto named = ResolveRequest(request);
  if (!named.ok()) return named.status();
  return cache_.GetOrTrain(
      MakeKey(request, **named),
      [&]() -> StatusOr<TrainedSurrogate> {
        // The single-flight leader absorbs transient training failures
        // under the configured retry policy (off by default); waiters
        // keep waiting on the in-flight entry across retries.
        StatusOr<TrainedSurrogate> trained =
            Status::Internal("training not attempted");
        const Status status = RunWithRetry(
            options_.training_retry,
            [&] {
              trained = TrainEntry(request, **named, cancel, trace);
              return trained.status();
            },
            cancel);
        if (!status.ok()) return status;
        return trained;
      },
      was_hit, cancel);
}

void MiningService::RunJob(const std::shared_ptr<MineJob>& job) {
  v2::MineResponse response;
  TraceContext* trace = job->trace_.get();
  {
    // The root span must close on every return path before the trace is
    // published, so the body lives in ExecuteJob.
    TraceSpan root(trace, "request");
    ExecuteJob(job, trace, &response);
  }
  if (job->trace_ != nullptr) {
    response.trace = job->trace_;
    traces_.Add(job->trace_);
  }
  job->Complete(std::move(response));
}

void MiningService::ExecuteJob(const std::shared_ptr<MineJob>& job,
                               TraceContext* trace, v2::MineResponse* out) {
  Stopwatch timer;
  const CancelToken cancel = job->cancel_token();
  v2::MineResponse& response = *out;

  // Validated once, in place, on the job's own copy of the request.
  if (Status valid = v2::ValidateAndNormalize(job->request_.get());
      !valid.ok()) {
    response.status = std::move(valid);
    return;
  }
  const v2::MineRequest& request = *job->request_;
  const v2::ExecutionPolicy& execution = request.execution;

  job->SetPhase(MineJob::Phase::kTraining);
  bool hit = false;
  auto entry = EntryFor(request, cancel, &hit, trace);
  if (!entry.ok()) {
    response.status = entry.status();
    return;
  }
  response.cache_hit = hit;
  const SurrogateSnapshot snap = (*entry)->Snapshot();
  response.provenance = snap.provenance;
  job->SetPhase(MineJob::Phase::kSearching);

  const bool topk = request.query.kind == v2::QueryKind::kTopK;
  const SearchSpec spec{
      .finder = &request.search.finder,
      .topk = topk ? &request.search.topk : nullptr,
      .threshold = request.query.threshold,
      .direction = request.query.direction,
      .kde = execution.use_kde ? snap.kde.get() : nullptr,
      .validator = execution.validate ? snap.evaluator.get() : nullptr,
      .cancel = cancel,
      .progress = &job->search_progress_,
      .trace = trace};
  if (RunSearch(*snap.surrogate, spec, &response.result, &response.topk)) {
    // Partial results and provenance ride along with the Cancelled
    // status; feedback recording is skipped for cancelled searches.
    response.status = Status::Cancelled("mining cancelled mid-search");
  } else if (!topk && execution.record_evaluations && execution.validate) {
    RegionWorkload fresh;
    fresh.space = snap.surrogate->space();
    fresh.statistic = snap.surrogate->statistic();
    fresh.features = FeatureMatrix(2 * snap.surrogate->dims());
    for (const auto& found : response.result.regions) {
      if (std::isnan(found.true_value)) continue;
      fresh.features.AddRow(RegionFeatures(found.region));
      fresh.targets.push_back(found.true_value);
    }
    if (fresh.size() > 0) {
      // Best-effort: a failed warm start must not fail the mining
      // response that triggered it.
      (void)(*entry)->Append(fresh);
      response.provenance = (*entry)->provenance();
    }
  }
  // Cluster-mode degradation (a shard group re-homed after a worker
  // failure, or a batch abandoned) is declared pedigree: overlay it on
  // whatever provenance the paths above settled on.
  if (const auto* cluster = dynamic_cast<const dist::ClusterEvaluator*>(
          snap.evaluator.get());
      cluster != nullptr && cluster->degraded()) {
    response.provenance.degraded = true;
    response.provenance.degraded_reason = cluster->degraded_reason();
  }
  response.total_seconds = timer.ElapsedSeconds();
}

v2::MineResponse MiningService::Mine(const v2::MineRequest& request) {
  // The job core runs inline on the calling thread, never re-queued onto
  // the pool: a pool worker blocking on a job queued behind itself would
  // deadlock.
  auto job = std::shared_ptr<MineJob>(new MineJob(request));
  RunJob(job);
  return job->TakeResponse();
}

std::shared_ptr<MineJob> MiningService::Submit(const v2::MineRequest& request) {
  auto job = std::shared_ptr<MineJob>(new MineJob(request));
  {
    // Registered for shutdown cancellation; handles whose jobs finished
    // and were dropped everywhere are pruned.
    std::lock_guard<std::mutex> lock(jobs_mu_);
    std::erase_if(live_jobs_, [](const std::weak_ptr<MineJob>& weak) {
      return weak.expired();
    });
    live_jobs_.push_back(job);
  }
  pool_.Submit([this, job] { RunJob(job); });
  return job;
}

std::vector<v2::MineResponse> MiningService::MineBatch(
    const std::vector<v2::MineRequest>& requests) {
  std::vector<std::shared_ptr<MineJob>> jobs;
  jobs.reserve(requests.size());
  for (const v2::MineRequest& request : requests) {
    jobs.push_back(Submit(request));
  }
  std::vector<v2::MineResponse> responses;
  responses.reserve(jobs.size());
  for (auto& job : jobs) {
    job->Wait();
    responses.push_back(job->TakeResponse());
  }
  return responses;
}

Status MiningService::AppendEvaluations(v2::MineRequest request,
                                        const RegionWorkload& fresh) {
  // Same validation the job core runs: this path can train a cache
  // entry too, so an unvalidated request (bad shard count, empty
  // workload recipe, ...) must be rejected here as well.
  SURF_RETURN_IF_ERROR(v2::ValidateAndNormalize(&request));
  bool hit = false;
  auto entry = EntryFor(request, CancelToken(), &hit, /*trace=*/nullptr);
  if (!entry.ok()) return entry.status();
  return (*entry)->Append(fresh);
}

}  // namespace surf
