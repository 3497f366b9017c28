#include "serve/mining_service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dist/cluster_evaluator.h"
#include "dist/worker_pool.h"
#include "ml/grid_search.h"
#include "util/failpoint.h"
#include "util/retry.h"
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
  const Dataset* data = named->data.get();
  const Statistic& statistic = request.query.statistic;
  if (statistic.region_cols.empty()) {
    return Status::InvalidArgument("statistic has no region columns");
  }
  for (size_t c : statistic.region_cols) {
    if (c >= data->num_cols()) {
      return Status::InvalidArgument("region column out of range");
    }
  }
  if (statistic.needs_value_column() &&
      (statistic.value_col < 0 ||
       static_cast<size_t>(statistic.value_col) >= data->num_cols())) {
    return Status::InvalidArgument("value column out of range");
  }
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
  const Dataset* data = named.data.get();
  const Statistic& statistic = request.query.statistic;
  const WorkloadParams& workload_params = request.training.workload;
  const SurrogateTrainOptions& surrogate_options = request.training.surrogate;
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
  const Bounds domain = data->ComputeBounds(statistic.region_cols);
  const RegionWorkload workload =
      GenerateWorkload(*evaluator, domain, workload_params, cancel, trace);
  if (cancel.cancelled()) return cancel.ToStatus();
  if (workload.size() == 0) {
    return Status::FailedPrecondition(
        "workload generation produced no defined statistics");
  }

  // No shared-pool parallelism here: TrainEntry may itself be running on a
  // pool worker (MineBatch), and ThreadPool::Wait drains the *whole* pool
  // — nesting would deadlock. GBRT-internal threading (params.num_threads)
  // is independent of the service pool and stays available.
  // Surrogate::Train records its own kTraining stage span, so the
  // service adds none here (nesting two would double-count the stage).
  auto surrogate =
      Surrogate::Train(workload, surrogate_options, nullptr, cancel, trace);
  if (!surrogate.ok()) return surrogate.status();

  TrainedSurrogate trained;
  trained.surrogate = std::move(surrogate).value();
  trained.evaluator = std::move(evaluator);

  // The KDE prior is always fitted with the entry (cheap — a bounded
  // subsample) so every later request can opt into Eq. 8 guidance
  // regardless of what the entry-creating request asked for.
  trained.kde = [&] {
    TraceSpan span(trace, "kde_fit", TraceStage::kTraining);
    return std::make_shared<const Kde>(FitDataKde(
        *data, statistic.region_cols, options_.kde_max_samples,
        workload_params.seed + 1, cancel));
  }();
  if (cancel.cancelled()) return cancel.ToStatus();

  if (options_.provenance_cv_folds >= 2) {
    TraceSpan span(trace, "cross_validation", TraceStage::kTraining);
    trained.cv_rmse = CrossValidatedRmse(
        workload.features, workload.targets,
        trained.surrogate.metrics().chosen_params,
        options_.provenance_cv_folds, surrogate_options.seed);
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

std::shared_ptr<MineJob> MiningService::MakeJob(
    const v2::MineRequest& request) {
  return std::shared_ptr<MineJob>(new MineJob(request));
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
  const size_t dims = snap.surrogate->dims();
  job->SetPhase(MineJob::Phase::kSearching);

  if (request.query.kind == v2::QueryKind::kTopK) {
    TopKConfig config = request.search.topk;
    // Same §V-G swarm-size floor as the threshold path, gated by the
    // same opt-out (search.finder.auto_scale_gso).
    if (request.search.finder.auto_scale_gso) {
      config.gso.num_glowworms =
          std::max(config.gso.num_glowworms,
                   GsoParams::PaperScaled(dims).num_glowworms);
    }
    TopKFinder finder(snap.surrogate->AsStatisticFn(), snap.space, config);
    finder.SetBatchEstimate(snap.surrogate->AsBatchStatisticFn());
    if (execution.use_kde && snap.kde != nullptr) {
      finder.SetKde(snap.kde.get());
    }
    finder.SetCancelToken(cancel);
    finder.SetProgress(&job->search_progress_);
    finder.SetTrace(trace);
    response.topk = finder.Find();
    if (response.topk.cancelled) {
      response.status = Status::Cancelled("mining cancelled mid-search");
    }
  } else {
    FinderConfig config = request.search.finder;
    if (config.auto_scale_gso) {
      config.gso.num_glowworms =
          std::max(config.gso.num_glowworms,
                   GsoParams::PaperScaled(dims).num_glowworms);
    }
    SurfFinder finder(snap.surrogate->AsStatisticFn(), snap.space, config);
    finder.SetBatchEstimate(snap.surrogate->AsBatchStatisticFn());
    if (execution.use_kde && snap.kde != nullptr) {
      finder.SetKde(snap.kde.get());
    }
    if (execution.validate && snap.evaluator != nullptr) {
      finder.SetValidator(snap.evaluator.get());
    }
    finder.SetCancelToken(cancel);
    finder.SetProgress(&job->search_progress_);
    finder.SetTrace(trace);
    response.result =
        finder.Find(request.query.threshold, request.query.direction);
    if (response.result.report.cancelled) {
      // Partial results and provenance ride along with the Cancelled
      // status; feedback recording is skipped for cancelled searches.
      response.status = Status::Cancelled("mining cancelled mid-search");
    } else if (execution.record_evaluations && execution.validate) {
      RegionWorkload fresh;
      fresh.space = snap.space;
      fresh.statistic = snap.surrogate->statistic();
      fresh.features = FeatureMatrix(2 * dims);
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
  auto job = MakeJob(request);
  RunJob(job);
  return job->TakeResponse();
}

std::shared_ptr<MineJob> MiningService::Submit(const v2::MineRequest& request) {
  return Schedule(MakeJob(request));
}

std::shared_ptr<MineJob> MiningService::Schedule(
    std::shared_ptr<MineJob> job) {
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    // Prune handles whose jobs finished and were dropped everywhere.
    live_jobs_.erase(
        std::remove_if(live_jobs_.begin(), live_jobs_.end(),
                       [](const std::weak_ptr<MineJob>& weak) {
                         return weak.expired();
                       }),
        live_jobs_.end());
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
