#ifndef SURF_SERVE_MINING_SERVICE_H_
#define SURF_SERVE_MINING_SERVICE_H_

/// \file
/// \brief The persistent multi-query mining service.

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "api/api_v2.h"
#include "core/surf.h"
#include "serve/mine_job.h"
#include "serve/surrogate_cache.h"
#include "util/cancel.h"
#include "util/retry.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace surf {

namespace dist {
class WorkerPool;
}  // namespace dist

/// \brief Persistent multi-query region-mining service (the deployment
/// story of paper §V-D: "models will be trained once and successively
/// used to answer queries").
///
/// Owns named datasets, a keyed surrogate cache, and a worker pool.
/// Concurrent requests for the same (dataset, statistic, workload recipe,
/// model recipe) share one trained surrogate — the first request trains,
/// the rest block on the in-flight fit, and later ones hit the cache
/// outright. Training and search are the library pipeline's own
/// TrainSurrogate and RunSearch (core/surf.h), the two functions Surf
/// runs too; search runs per request against read-only model snapshots,
/// so any number of requests can be in flight at once.
///
/// Requests are served through one asynchronous job core: Submit returns
/// a MineJob handle (Wait/TryGet/Cancel/progress) whose cancel token is
/// threaded cooperatively through surrogate training, KDE fitting, and
/// the GSO iteration loops — a cancelled or deadline-exceeded request
/// stops computing within one iteration and completes with
/// Status::Cancelled plus partial results. The blocking Mine runs the
/// same job core inline; MineBatch fans out through Submit. Requests and
/// responses are the api/api_v2.h structs throughout, and the job core
/// validates each request once, on the job's own copy.
class MiningService {
 public:
  /// \brief Service configuration.
  struct Options {
    /// Worker threads for MineBatch (0 = hardware concurrency).
    size_t num_threads = 0;
    /// Surrogate-cache sizing/eviction/warm-start policy.
    SurrogateCache::Options cache;
    /// When >= 2, declare a k-fold cross-validated RMSE in each entry's
    /// provenance (costs `provenance_cv_folds` extra fits per training).
    /// 0 skips CV; provenance then carries only the holdout RMSE.
    size_t provenance_cv_folds = 0;
    /// Sample cap of every entry's KDE prior (kKdeMaxSamples; fixed).
    static constexpr size_t kde_max_samples = kKdeMaxSamples;
    /// Retry policy for failed surrogate trainings (transient failures
    /// only; cancellation and invalid requests are never retried). The
    /// single-flight leader retries while its waiters keep waiting. The
    /// default policy makes exactly one attempt (retry disabled).
    RetryPolicy training_retry;
    /// Completed traces retained for `GET /v1/trace/{id}` (oldest fall
    /// off past the cap).
    size_t trace_ring_capacity = 64;
    /// Remote worker endpoints ("host:port") for the distributed
    /// scatter-gather execution mode. Empty (the default) disables the
    /// cluster path: requests with `execution.cluster` then fail with
    /// FailedPrecondition instead of silently running locally.
    std::vector<std::string> cluster_workers;
  };

  /// Service with default options (all-core pool, default cache policy).
  MiningService() : MiningService(Options{}) {}
  /// Service with an explicit configuration.
  explicit MiningService(Options options);
  /// Cancels every outstanding submitted job, then drains the worker
  /// pool, so shutdown completes within one search iteration per
  /// running job rather than their full remaining runtime — and no job
  /// touches the cache or registry after they die.
  ~MiningService();

  /// Registers a dataset under `name`. Fails with AlreadyExists on reuse.
  Status RegisterDataset(const std::string& name, Dataset data);

  /// Convenience: LoadCsv + RegisterDataset.
  Status RegisterCsvDataset(const std::string& name, const std::string& path);

  /// The registered dataset, or null.
  const Dataset* dataset(const std::string& name) const;

  /// Content fingerprint of a registered dataset (0 when unknown) —
  /// computed once at registration. The distributed shard-evaluate
  /// endpoint uses it to verify a worker holds the coordinator's data.
  uint64_t dataset_fingerprint(const std::string& name) const;

  /// The distributed worker pool (null unless Options::cluster_workers
  /// was non-empty). Exposed for /metrics export.
  const dist::WorkerPool* cluster_pool() const {
    return cluster_pool_.get();
  }

  /// Registered dataset names, sorted.
  std::vector<std::string> dataset_names() const;

  /// Serves one request synchronously on the calling thread (the job
  /// core runs inline rather than on the pool), honouring
  /// `execution.deadline_seconds` (Cancelled with partial results when it
  /// expires mid-request). Thread-safe; any number of Mine calls may run
  /// concurrently.
  v2::MineResponse Mine(const v2::MineRequest& request);

  /// Submits a request for asynchronous execution on the worker pool and
  /// returns its job handle (Wait/TryGet/Cancel/progress). The request's
  /// deadline arms the job's cancel token at submission time (queue wait
  /// counts against it). The handle may be dropped; the job still runs
  /// to completion (or cancellation).
  std::shared_ptr<MineJob> Submit(const v2::MineRequest& request);

  /// Fans the requests out as deadline-armed jobs (each entry's
  /// `execution.deadline_seconds` is honoured) and waits for all;
  /// responses are in request order. Must not be called from a pool
  /// worker (it blocks on pool-scheduled jobs).
  std::vector<v2::MineResponse> MineBatch(
      const std::vector<v2::MineRequest>& requests);

  /// Appends externally observed region evaluations to the cache entry
  /// `request` keys to (training it first if absent). Past the configured
  /// retrain threshold this triggers the warm-start swap. The request
  /// runs through ValidateAndNormalize first, like every mining request.
  Status AppendEvaluations(v2::MineRequest request,
                           const RegionWorkload& fresh);

  /// Cache-key derivation for a request (exposed for tests/tools).
  StatusOr<SurrogateKey> KeyFor(const v2::MineRequest& request) const;

  /// The surrogate cache (for stats, Peek and Retry-After hints).
  SurrogateCache& cache() { return cache_; }
  /// Read-only view of the surrogate cache.
  const SurrogateCache& cache() const { return cache_; }
  /// Worker-thread count of the pool.
  size_t num_threads() const { return pool_.num_threads(); }
  /// Completed traces of recent traced requests (backs `/v1/trace/{id}`).
  const TraceRing& traces() const { return traces_; }
  /// Slots in the shared in-process evaluator map, live or expired
  /// (expired ones are pruned whenever a new evaluator is built).
  size_t shared_evaluator_slots() const;

 private:
  /// A registered dataset plus its content fingerprint, computed once at
  /// registration (datasets are immutable after RegisterDataset).
  struct NamedDataset {
    std::unique_ptr<Dataset> data;
    uint64_t fingerprint = 0;
  };

  /// Looks up the request's dataset and range-checks its statistic's
  /// columns; returns the registry entry (stable address).
  StatusOr<const NamedDataset*> ResolveRequest(
      const v2::MineRequest& request) const;

  /// The cache key of `request` over its already-resolved dataset (no
  /// second registry lookup).
  static SurrogateKey MakeKey(const v2::MineRequest& request,
                              const NamedDataset& named);

  /// The in-process exact back-end for `request`. Cache entries over the
  /// same (dataset, backend, shards, statistic) share one instance — the
  /// workload seed and model recipe do not change it — so a dataset
  /// holds one grid per statistic, not one per entry. The map keeps
  /// weak references: the evaluator dies with the last entry using it.
  std::shared_ptr<const RegionEvaluator> SharedEvaluator(
      const v2::MineRequest& request, const NamedDataset& named);

  /// Trains a cache entry for `request` on a miss, outside the cache
  /// lock: TrainSurrogate over the shared (or cluster) evaluator, plus
  /// the CV provenance. `cancel` and `trace` (nullable) pass through.
  StatusOr<TrainedSurrogate> TrainEntry(const v2::MineRequest& request,
                                        const NamedDataset& named,
                                        CancelToken cancel,
                                        TraceContext* trace);

  /// Fetches (or trains) the cache entry for `request`. A fired `cancel`
  /// aborts an owned training; waiters whose own token is live take over
  /// a leader's cancelled training instead of being stranded. Training
  /// spans land in `trace` only when this call becomes the single-flight
  /// leader (waiters' traces simply lack them).
  StatusOr<std::shared_ptr<CachedSurrogate>> EntryFor(
      const v2::MineRequest& request, CancelToken cancel, bool* was_hit,
      TraceContext* trace);

  /// The one mining core every entry point funnels into: validation of
  /// the job's request, surrogate resolution, cancellable search,
  /// terminal response publication on the job.
  void RunJob(const std::shared_ptr<MineJob>& job);

  /// RunJob's body under the root trace span: fills `*response`
  /// (without completing the job) so every return path closes the span
  /// before the trace is published.
  void ExecuteJob(const std::shared_ptr<MineJob>& job, TraceContext* trace,
                  v2::MineResponse* response);

  Options options_;
  ThreadPool pool_;
  SurrogateCache cache_;
  TraceRing traces_;
  /// Remote workers for cluster-mode requests; null when
  /// Options::cluster_workers is empty (incomplete type here — the
  /// out-of-line destructor sees the full definition).
  std::unique_ptr<dist::WorkerPool> cluster_pool_;

  /// Outstanding Submit handles, so the destructor can cancel
  /// abandoned jobs. Expired entries are pruned on each Submit.
  mutable std::mutex jobs_mu_;
  std::vector<std::weak_ptr<MineJob>> live_jobs_;

  /// (dataset fingerprint, backend, shards, statistic fingerprint).
  using EvaluatorKey = std::tuple<uint64_t, BackendKind, size_t, uint64_t>;
  /// Guards evaluators_; held while an evaluator is built, so
  /// concurrent misses on one key build it once.
  mutable std::mutex evaluators_mu_;
  std::map<EvaluatorKey, std::weak_ptr<const RegionEvaluator>> evaluators_;

  mutable std::mutex datasets_mu_;
  /// std::map keeps entry addresses stable across inserts and names
  /// sorted for dataset_names().
  std::map<std::string, NamedDataset> datasets_;
};

}  // namespace surf

#endif  // SURF_SERVE_MINING_SERVICE_H_
