#ifndef SURF_DIST_CLUSTER_EVALUATOR_H_
#define SURF_DIST_CLUSTER_EVALUATOR_H_

/// \file
/// \brief Distributed scatter-gather exact evaluator: the coordinator
/// side of the cluster execution mode.
///
/// A ClusterEvaluator is a drop-in RegionEvaluator backend: workload
/// labelling and result validation call it exactly like the in-process
/// backends, so MiningService, the surrogate cache, jobs, cancellation,
/// and tracing all compose unchanged. Per batch of regions it
///
///  1. gives unhealthy workers a /healthz chance to rejoin, then splits
///     the `num_shards`-way partition into contiguous ascending shard
///     groups, one per healthy worker;
///  2. scatters one `POST /v1/shards:evaluate` per group concurrently —
///     each worker evaluates its assigned shards over the whole query
///     batch and ships the raw per-(query, shard) accumulators back
///     UNMERGED;
///  3. gathers and merges in ascending shard order — seed with shard
///     0's partial, Merge(1), Merge(2), ... — replaying the exact left
///     fold ShardedScanEvaluator performs in process, so the cluster
///     result is bit-identical to single-node `shards = N` evaluation
///     for every statistic kind (median included, via the exact-state
///     sketch wire form).
///
/// Fault tolerance: a retriable RPC failure (connection refused/reset,
/// timeout, worker 5xx, or the `dist.shard_rpc` failpoint) marks the
/// worker unhealthy and re-homes the whole shard group onto the next
/// healthy worker under the configured RetryPolicy, with cancel-aware
/// backoff. A successful re-home degrades the evaluation (flag +
/// reason, surfaced through response provenance) but changes no bits of
/// the result — the shards are re-evaluated against the same partition
/// spec. A group whose retries exhaust (or a scatter with no healthy
/// workers) yields NaN labels for the batch: the evaluator's native
/// "could not compute" value, which drop_undefined filters out of
/// training workloads and validation reports as non-compliant.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "dist/worker_pool.h"
#include "stats/evaluator.h"
#include "util/retry.h"

namespace surf {
namespace dist {

/// \brief Coordinator-side scatter-gather evaluator; see file comment.
class ClusterEvaluator : public RegionEvaluator {
 public:
  /// \brief Cluster execution configuration.
  struct Options {
    /// Dataset name the workers hold (registered under the same name).
    std::string dataset;
    /// Expected content fingerprint; workers answer 412 on mismatch.
    /// 0 = skip the check.
    uint64_t fingerprint = 0;
    /// Total shard count of the partition. 0 defaults to the worker
    /// count — one contiguous slab per worker.
    size_t num_shards = 0;
    /// Per-RPC transport budget, seconds.
    double rpc_timeout_seconds = 300.0;
    /// Re-home policy for failed shard groups. The default makes three
    /// attempts with short backoff — with the pool's health marking,
    /// attempt k lands on the k-th next healthy worker.
    RetryPolicy retry = MakeDefaultRetry();
  };

  /// Non-owning `pool`; it must outlive the evaluator. The partition
  /// spec (order_by / columns) is derived from the statistic exactly
  /// like MakeEvaluator derives it for the in-process sharded backend.
  ClusterEvaluator(WorkerPool* pool, Statistic stat, Options options);

  const Statistic& statistic() const override { return stat_; }

  /// Total shard count of the cluster partition (after the worker-count
  /// default is applied).
  size_t num_shards() const { return num_shards_; }

  /// Whether any evaluation so far was served degraded (a shard group
  /// was re-homed after a worker failure, or a batch was abandoned).
  bool degraded() const {
    return degraded_.load(std::memory_order_acquire);
  }
  /// First degradation cause observed ("" while !degraded()).
  std::string degraded_reason() const;

 protected:
  double EvaluateImpl(const Region& region,
                      const CancelToken& cancel) const override;
  std::vector<double> EvaluateBatchImpl(
      std::span<const Region> regions,
      const CancelToken& cancel) const override;

 private:
  static RetryPolicy MakeDefaultRetry() {
    RetryPolicy policy;
    policy.max_attempts = 3;
    policy.initial_backoff_seconds = 0.05;
    policy.max_backoff_seconds = 1.0;
    return policy;
  }

  /// One shard group's scatter: evaluate `shards` over `regions`,
  /// re-homing across healthy workers on retriable failure. Fills
  /// `partials[q][s]` (query-major, group shard order) on success.
  Status EvaluateGroup(const std::vector<size_t>& shards,
                       std::span<const Region> regions,
                       size_t first_worker, const CancelToken& cancel,
                       std::vector<std::vector<StatisticAccumulator>>*
                           partials) const;

  void MarkDegraded(const std::string& reason) const;

  WorkerPool* pool_;
  Statistic stat_;
  Options options_;
  size_t num_shards_;
  /// Partition spec shipped with every request (derived once).
  int order_by_;
  std::vector<size_t> columns_;

  mutable std::atomic<bool> degraded_{false};
  mutable std::mutex reason_mu_;
  mutable std::string degraded_reason_;
};

}  // namespace dist
}  // namespace surf

#endif  // SURF_DIST_CLUSTER_EVALUATOR_H_
