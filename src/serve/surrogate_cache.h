#ifndef SURF_SERVE_SURROGATE_CACHE_H_
#define SURF_SERVE_SURROGATE_CACHE_H_

/// \file
/// \brief The keyed surrogate cache: single-flight training, LRU/staleness eviction, warm-start swaps, provenance.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/surf.h"
#include "serve/fingerprint.h"
#include "util/cancel.h"
#include "util/status.h"

namespace surf {

/// \brief Declared provenance/fidelity metadata carried by every cache
/// entry (the SMRS argument: a surrogate must ship with its pedigree, not
/// just its weights).
struct SurrogateProvenance {
  /// Content fingerprint of the dataset the surrogate was trained on.
  uint64_t dataset_fingerprint = 0;
  /// Number of labelled region evaluations the model has seen (initial
  /// training plus every folded-in warm-start batch).
  size_t training_set_size = 0;
  /// Cross-validated RMSE of the training recipe (NaN when the service
  /// was configured to skip CV; see MiningService::Options).
  double cv_rmse = std::numeric_limits<double>::quiet_NaN();
  /// Out-of-sample RMSE on the held-out test fraction.
  double holdout_rmse = 0.0;
  /// Cumulative training wall-time (initial fit + warm starts), seconds.
  double train_seconds = 0.0;
  /// How many warm-start refreshes have been folded into the model.
  size_t warm_starts = 0;
  /// Evaluations appended but not yet folded in by a warm start.
  size_t pending_examples = 0;
  /// True when this model was served in a degraded mode — a stale entry
  /// kept alive because its retrain failed, or served while a
  /// revalidation was still in flight. Degraded answers are labelled,
  /// never silently substituted (the SMRS argument).
  bool degraded = false;
  /// Why the entry is degraded (e.g. "training failed: ..."), empty
  /// when `degraded` is false.
  std::string degraded_reason;
};

/// \brief Immutable view of a cached surrogate taken at request time.
///
/// Holding a snapshot pins the model: a concurrent warm-start swap or
/// cache eviction never invalidates it, so one mining request observes
/// one consistent model from start to finish.
struct SurrogateSnapshot {
  /// The trained model serving this snapshot.
  std::shared_ptr<const Surrogate> surrogate;
  /// KDE data prior for Eq. 8 guidance (null when disabled).
  std::shared_ptr<const Kde> kde;
  /// Exact back-end for result validation and fresh labelling (never
  /// null for service-built entries).
  std::shared_ptr<const RegionEvaluator> evaluator;
  /// Declared pedigree of the model at snapshot time.
  SurrogateProvenance provenance;
};

/// \brief One cache slot: a swappable surrogate plus the pending
/// incremental workload feeding its next warm start.
///
/// Thread-safe. Readers call Snapshot(); writers call Append(). A warm
/// start triggered by Append retrains on a deep copy while the old model
/// keeps serving, then swaps atomically under the entry lock.
class CachedSurrogate {
 public:
  /// Current model + provenance, atomically consistent.
  SurrogateSnapshot Snapshot() const;

  /// Accumulates freshly observed region evaluations. Once the pending
  /// pool reaches `retrain_threshold` (and no other thread is already
  /// retraining), this call performs the warm start inline: the pending
  /// batch is folded into a copy of the model via `warm_start_trees`
  /// extra boosting rounds, and the refreshed model is swapped in.
  /// Concurrent Snapshot() callers are never blocked by the retrain
  /// itself — only by the microsecond swap.
  Status Append(const RegionWorkload& fresh);

  /// Entry provenance without taking a full snapshot.
  SurrogateProvenance provenance() const;

 private:
  friend class SurrogateCache;

  enum class State { kTraining, kReady, kFailed };

  CachedSurrogate(size_t retrain_threshold, size_t warm_start_trees)
      : retrain_threshold_(retrain_threshold),
        warm_start_trees_(warm_start_trees) {}

  /// Publishes the factory result and wakes waiters (single-flight).
  void Publish(TrainedSurrogate trained, uint64_t dataset_fingerprint);
  /// Fails the entry and wakes waiters, attaching the degraded stale
  /// entry they should be served instead of the error
  /// (stale-while-revalidate fallback). `fallback` may be null.
  void FailWithFallback(Status status, std::shared_ptr<CachedSurrogate> fallback);
  /// The degraded entry attached by FailWithFallback (null for plain
  /// failures).
  std::shared_ptr<CachedSurrogate> fallback() const;
  /// Labels the entry degraded in its provenance. Idempotent; the most
  /// recent reason wins (a later training failure overwrites an earlier
  /// "stale-while-revalidate").
  void MarkDegraded(const std::string& reason);
  /// Blocks until the entry leaves kTraining; returns the entry status.
  Status WaitReady() const;

  const size_t retrain_threshold_;
  const size_t warm_start_trees_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  State state_ = State::kTraining;
  Status status_ = Status::OK();

  std::shared_ptr<const Surrogate> model_;
  std::shared_ptr<const Kde> kde_;
  std::shared_ptr<const RegionEvaluator> evaluator_;
  SurrogateProvenance provenance_;

  RegionWorkload pending_;
  bool has_pending_ = false;
  bool retraining_ = false;
  /// Degraded entry waiters are served instead of this entry's failure
  /// status (set by FailWithFallback; null otherwise).
  std::shared_ptr<CachedSurrogate> fallback_;
  std::chrono::steady_clock::time_point created_ =
      std::chrono::steady_clock::now();
};

/// \brief Keyed store of trained surrogates with single-flight training,
/// LRU capacity eviction, and age-based staleness eviction.
///
/// Concurrent GetOrTrain calls for the same key share one training run:
/// the first caller trains, the rest block until the entry is published
/// (so 32 identical requests cost one fit, not 32). Entries are handed
/// out as shared_ptrs — eviction drops the cache's reference, never a
/// request's.
class SurrogateCache {
 public:
  /// \brief Cache sizing, eviction, and warm-start policy.
  struct Options {
    /// Maximum resident entries; least-recently-used ready entries are
    /// evicted first. In-flight (training) entries are never evicted.
    size_t capacity = 8;
    /// Entries older than this are treated as stale on access and
    /// retrained from scratch (infinite = never stale).
    double max_age_seconds = std::numeric_limits<double>::infinity();
    /// Pending incremental evaluations that trigger a warm start.
    size_t retrain_threshold = 512;
    /// Boosting rounds added per warm start.
    size_t warm_start_trees = 25;

    // --- graceful degradation ---------------------------------------

    /// When a stale entry is being revalidated (retrained in a fresh
    /// slot), serve the previous model — flagged degraded — to callers
    /// arriving mid-retrain instead of blocking them on the fit. Should
    /// revalidation fail, the stale model also becomes the fallback
    /// answer (again flagged) rather than surfacing the error.
    bool stale_while_revalidate = true;
    /// Remember a key's training failure for this long and fail fast
    /// (with the remembered status) on re-requests inside the window,
    /// so a poisoned key cannot stampede retrains. 0 disables.
    double negative_ttl_seconds = 0.0;
    /// Consecutive training failures of one key that trip its circuit
    /// breaker; further requests fail fast with Unavailable (HTTP 503 +
    /// Retry-After) until the breaker closes. 0 disables the breaker.
    size_t breaker_failure_threshold = 0;
    /// How long a tripped breaker stays open before the next request is
    /// allowed to try training again (half-open probe).
    double breaker_open_seconds = 5.0;
  };

  /// \brief Monotonic counters for observability/tests.
  struct Stats {
    /// GetOrTrain calls served by an existing entry (including joins of
    /// an in-flight training).
    uint64_t hits = 0;
    /// GetOrTrain calls that created (and paid for) a new entry.
    uint64_t misses = 0;
    /// Entries dropped by LRU capacity enforcement.
    uint64_t evictions = 0;
    /// Entries dropped because they exceeded max_age_seconds.
    uint64_t stale_evictions = 0;
    /// Requests answered by a degraded (stale) model instead of a fresh
    /// fit or an error.
    uint64_t degraded_serves = 0;
    /// Requests failed fast by the negative cache (fresh remembered
    /// failure, no stale model to degrade to).
    uint64_t negative_hits = 0;
    /// Requests rejected Unavailable by an open circuit breaker (no
    /// stale model to degrade to).
    uint64_t breaker_rejections = 0;
    /// Training attempts (leader fits) that failed.
    uint64_t training_failures = 0;
  };

  /// Builds an entry on a miss. Runs outside the cache lock.
  using Factory = std::function<StatusOr<TrainedSurrogate>()>;

  /// Builds an empty cache with the given policy.
  explicit SurrogateCache(Options options) : options_(options) {}

  /// Returns the entry for `key`, training it via `factory` if absent or
  /// stale. `was_hit`, when non-null, reports whether an existing entry
  /// served the call (joining an in-flight training counts as a hit: the
  /// caller did not pay for a fit of its own).
  ///
  /// `caller` is the caller's own cancellation token. When an in-flight
  /// training leader is cancelled, its waiters are not stranded: every
  /// waiter whose own token is still live retries and one of them takes
  /// over as the new leader (training with its own factory/token), while
  /// waiters whose token has fired observe Cancelled.
  StatusOr<std::shared_ptr<CachedSurrogate>> GetOrTrain(
      const SurrogateKey& key, const Factory& factory,
      bool* was_hit = nullptr, CancelToken caller = {});

  /// Entry lookup without training or LRU touch; null when absent.
  std::shared_ptr<CachedSurrogate> Peek(const SurrogateKey& key) const;

  /// Suggested Retry-After (whole seconds, >= 1) for a key that was
  /// just refused: the remaining breaker-open time, else the remaining
  /// negative-cache TTL, else 1.
  int RetryAfterSeconds(const SurrogateKey& key) const;

  /// Resident entry count (including in-flight trainings).
  size_t size() const;
  /// Counter snapshot.
  Stats stats() const;
  /// The configured policy.
  const Options& options() const { return options_; }

 private:
  struct Slot {
    std::shared_ptr<CachedSurrogate> entry;
    std::list<SurrogateKey>::iterator lru_pos;
    /// The previous (stale) model while `entry` is being revalidated:
    /// served degraded to mid-retrain callers, reinstated as the
    /// fallback when the revalidation fails, dropped when it succeeds.
    std::shared_ptr<CachedSurrogate> stale;
  };

  /// Per-key training-failure bookkeeping (negative cache + breaker).
  struct FailureState {
    /// Consecutive failed leader fits since the last success.
    size_t consecutive = 0;
    /// When the most recent failure happened (negative-cache clock).
    std::chrono::steady_clock::time_point last_failure{};
    /// Breaker-open horizon (epoch = closed).
    std::chrono::steady_clock::time_point open_until{};
    /// The remembered failure the negative cache replays.
    Status last_status = Status::OK();
  };

  /// Moves `key` to the front of the LRU list. Requires mu_ held.
  void Touch(const SurrogateKey& key, Slot* slot);
  /// Evicts LRU ready entries until size() <= capacity. Requires mu_ held.
  void EnforceCapacity();
  /// Records a failed leader fit (negative cache + breaker trip).
  /// Requires mu_ held.
  void RecordFailureLocked(const SurrogateKey& key, const Status& status);

  const Options options_;
  mutable std::mutex mu_;
  std::unordered_map<SurrogateKey, Slot, SurrogateKeyHash> map_;
  std::unordered_map<SurrogateKey, FailureState, SurrogateKeyHash> failures_;
  /// Front = most recently used.
  std::list<SurrogateKey> lru_;
  Stats stats_;
};

}  // namespace surf

#endif  // SURF_SERVE_SURROGATE_CACHE_H_
