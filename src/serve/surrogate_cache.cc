#include "serve/surrogate_cache.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "util/failpoint.h"

namespace surf {

// ---------------------------------------------------------------- entry

SurrogateSnapshot CachedSurrogate::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  SurrogateSnapshot snap;
  snap.surrogate = model_;
  snap.kde = kde_;
  snap.evaluator = evaluator_;
  snap.provenance = provenance_;
  return snap;
}

SurrogateProvenance CachedSurrogate::provenance() const {
  std::lock_guard<std::mutex> lock(mu_);
  return provenance_;
}

void CachedSurrogate::Publish(TrainedSurrogate trained,
                              uint64_t dataset_fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  provenance_.dataset_fingerprint = dataset_fingerprint;
  provenance_.training_set_size =
      trained.surrogate.metrics().num_train_examples;
  provenance_.holdout_rmse = trained.surrogate.metrics().test_rmse;
  provenance_.train_seconds = trained.surrogate.metrics().train_seconds;
  provenance_.cv_rmse = trained.cv_rmse;
  model_ = std::make_shared<const Surrogate>(std::move(trained.surrogate));
  kde_ = std::move(trained.kde);
  evaluator_ = std::move(trained.evaluator);
  state_ = State::kReady;
  cv_.notify_all();
}

void CachedSurrogate::FailWithFallback(
    Status status, std::shared_ptr<CachedSurrogate> fallback) {
  std::lock_guard<std::mutex> lock(mu_);
  status_ = std::move(status);
  fallback_ = std::move(fallback);
  state_ = State::kFailed;
  cv_.notify_all();
}

std::shared_ptr<CachedSurrogate> CachedSurrogate::fallback() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fallback_;
}

void CachedSurrogate::MarkDegraded(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  provenance_.degraded = true;
  provenance_.degraded_reason = reason;
}

Status CachedSurrogate::WaitReady() const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return state_ != State::kTraining; });
  return state_ == State::kReady ? Status::OK() : status_;
}

Status CachedSurrogate::Append(const RegionWorkload& fresh) {
  if (fresh.size() == 0) {
    return Status::InvalidArgument("empty incremental workload");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ != State::kReady) {
      return Status::FailedPrecondition("cache entry not ready");
    }
    // Reject shape mismatches up front: once a mismatched batch sat in
    // pending_, every later (correct) append would fail MergeWorkloads
    // and the entry could never warm-start again.
    if (fresh.features.num_features() != 2 * model_->dims()) {
      return Status::InvalidArgument(
          "incremental workload feature width mismatch");
    }
    if (!has_pending_) {
      pending_ = fresh;
      has_pending_ = true;
    } else {
      SURF_RETURN_IF_ERROR(MergeWorkloads(&pending_, fresh));
    }
    provenance_.pending_examples = pending_.size();
  }

  // Retrain loop: claim a batch whenever the threshold is crossed and no
  // other thread is already retraining. Looping (rather than a single
  // pass) covers appends that crossed the threshold again while this
  // thread's warm start was in flight — without it those evaluations
  // would sit pending until the *next* append arrived.
  for (;;) {
    std::shared_ptr<const Surrogate> base;
    RegionWorkload batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.size() < retrain_threshold_ || retraining_) {
        return Status::OK();
      }
      retraining_ = true;
      batch = std::move(pending_);
      pending_ = RegionWorkload{};
      has_pending_ = false;
      provenance_.pending_examples = 0;
      base = model_;
    }

    // Warm start outside the lock — Snapshot() keeps serving `base`.
    auto warmed = base->WarmStarted(batch, warm_start_trees_);

    std::lock_guard<std::mutex> lock(mu_);
    retraining_ = false;
    if (!warmed.ok()) {
      // Put the batch back so the evaluations are not lost; the next
      // append past the threshold retries.
      if (!has_pending_) {
        pending_ = std::move(batch);
        has_pending_ = true;
      } else {
        (void)MergeWorkloads(&pending_, batch);
      }
      provenance_.pending_examples = pending_.size();
      return warmed.status();
    }
    model_ = std::make_shared<const Surrogate>(std::move(warmed).value());
    provenance_.warm_starts += 1;
    provenance_.training_set_size = model_->metrics().num_train_examples;
    provenance_.train_seconds = model_->metrics().train_seconds;
    provenance_.holdout_rmse = model_->metrics().test_rmse;
  }
}

// ---------------------------------------------------------------- cache

void SurrogateCache::Touch(const SurrogateKey& key, Slot* slot) {
  lru_.erase(slot->lru_pos);
  lru_.push_front(key);
  slot->lru_pos = lru_.begin();
}

void SurrogateCache::EnforceCapacity() {
  // Walk from the LRU tail, skipping in-flight entries.
  auto it = lru_.end();
  while (map_.size() > options_.capacity && it != lru_.begin()) {
    --it;
    auto found = map_.find(*it);
    if (found == map_.end()) {
      it = lru_.erase(it);
      continue;
    }
    {
      std::lock_guard<std::mutex> entry_lock(found->second.entry->mu_);
      if (found->second.entry->state_ == CachedSurrogate::State::kTraining) {
        continue;
      }
    }
    map_.erase(found);
    it = lru_.erase(it);
    ++stats_.evictions;
  }
}

StatusOr<std::shared_ptr<CachedSurrogate>> SurrogateCache::GetOrTrain(
    const SurrogateKey& key, const Factory& factory, bool* was_hit,
    CancelToken caller) {
  for (;;) {
    std::shared_ptr<CachedSurrogate> entry;
    bool train_here = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto now = std::chrono::steady_clock::now();
      auto it = map_.find(key);
      if (it != map_.end()) {
        Slot& slot = it->second;
        bool training = false;
        bool failed = false;
        bool stale = false;
        {
          std::lock_guard<std::mutex> entry_lock(slot.entry->mu_);
          failed = slot.entry->state_ == CachedSurrogate::State::kFailed;
          training = slot.entry->state_ == CachedSurrogate::State::kTraining;
          if (!failed && !training &&
              std::isfinite(options_.max_age_seconds)) {
            const double age =
                std::chrono::duration<double>(now - slot.entry->created_)
                    .count();
            stale = age > options_.max_age_seconds;
          }
        }
        if (failed) {
          // Defensive: leaders resolve their slot under mu_ *before*
          // failing the entry, so a failed entry should never be
          // resident. Drop it if one ever is.
          lru_.erase(slot.lru_pos);
          map_.erase(it);
        } else if (training && slot.stale != nullptr &&
                   options_.stale_while_revalidate) {
          // Stale-while-revalidate: a retrain for this key is in
          // flight — answer from the previous model, labelled
          // degraded, instead of blocking this caller on the fit.
          slot.stale->MarkDegraded(
              "stale-while-revalidate: retrain in flight");
          Touch(key, &slot);
          ++stats_.hits;
          ++stats_.degraded_serves;
          if (was_hit != nullptr) *was_hit = true;
          return slot.stale;
        } else if (!stale) {
          Touch(key, &slot);
          ++stats_.hits;
          if (was_hit != nullptr) *was_hit = true;
          entry = slot.entry;
        } else {
          ++stats_.stale_evictions;
          if (options_.stale_while_revalidate) {
            // Keep the outgoing model: served degraded while the
            // revalidation runs, reinstated should it fail.
            slot.stale = std::move(slot.entry);
            slot.entry = nullptr;
          } else {
            lru_.erase(slot.lru_pos);
            map_.erase(it);
          }
        }
      }
      if (entry == nullptr) {
        // About to train. Fail-fast gates first: an open breaker or a
        // fresh remembered failure refuses the fit — degrading to the
        // stale model when one survived the stash above.
        auto slot_it = map_.find(key);
        auto fs = failures_.find(key);
        if (fs != failures_.end()) {
          const bool breaker_open = fs->second.open_until > now;
          const bool negative_fresh =
              options_.negative_ttl_seconds > 0.0 &&
              std::chrono::duration<double>(now - fs->second.last_failure)
                      .count() < options_.negative_ttl_seconds;
          if (breaker_open || negative_fresh) {
            if (slot_it != map_.end() && slot_it->second.stale != nullptr) {
              auto stale = std::move(slot_it->second.stale);
              slot_it->second.stale = nullptr;
              stale->MarkDegraded((breaker_open ? "circuit breaker open: "
                                                : "negative cache: ") +
                                  fs->second.last_status.message());
              slot_it->second.entry = stale;
              Touch(key, &slot_it->second);
              ++stats_.hits;
              ++stats_.degraded_serves;
              if (was_hit != nullptr) *was_hit = true;
              return stale;
            }
            if (breaker_open) {
              ++stats_.breaker_rejections;
              const double remain =
                  std::chrono::duration<double>(fs->second.open_until - now)
                      .count();
              return Status::Unavailable(
                  "circuit breaker open after " +
                  std::to_string(fs->second.consecutive) +
                  " consecutive training failures (retry in ~" +
                  std::to_string(static_cast<int>(remain) + 1) +
                  "s): " + fs->second.last_status.message());
            }
            ++stats_.negative_hits;
            return fs->second.last_status;
          }
        }
        // Become the training leader for this key.
        entry = std::shared_ptr<CachedSurrogate>(new CachedSurrogate(
            options_.retrain_threshold, options_.warm_start_trees));
        if (slot_it != map_.end()) {
          slot_it->second.entry = entry;
          Touch(key, &slot_it->second);
        } else {
          lru_.push_front(key);
          map_.emplace(key, Slot{entry, lru_.begin(), nullptr});
        }
        ++stats_.misses;
        if (was_hit != nullptr) *was_hit = false;
        train_here = true;
        EnforceCapacity();
      }
    }

    if (train_here) {
      auto trained = factory();
      Status failure = Status::OK();
      if (trained.ok()) {
        // The insert itself can be failed deterministically in chaos
        // runs; treat that exactly like a failed fit.
        failure = MaybeFailpoint("cache.insert");
      } else {
        failure = trained.status();
      }
      if (failure.ok()) {
        entry->Publish(std::move(trained).value(), key.dataset);
        std::lock_guard<std::mutex> lock(mu_);
        failures_.erase(key);
        auto it = map_.find(key);
        if (it != map_.end() && it->second.entry == entry) {
          it->second.stale = nullptr;  // fresh model supersedes the stale one
        }
      } else {
        // Resolve the slot *before* waking waiters, so a failed entry
        // is never observable in the map. Cancellation is the caller's
        // choice, not a service fault: it neither counts against the
        // breaker nor degrades the stale model (a live waiter takes
        // over and retrains instead).
        const bool cancelled = failure.code() == StatusCode::kCancelled;
        std::shared_ptr<CachedSurrogate> fallback;
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (!cancelled) RecordFailureLocked(key, failure);
          auto it = map_.find(key);
          if (it != map_.end() && it->second.entry == entry) {
            if (it->second.stale != nullptr) {
              auto stale = std::move(it->second.stale);
              it->second.stale = nullptr;
              if (!cancelled) {
                stale->MarkDegraded("training failed: " + failure.message());
                fallback = stale;
                ++stats_.degraded_serves;
              }
              it->second.entry = std::move(stale);
            } else {
              lru_.erase(it->second.lru_pos);
              map_.erase(it);
            }
          }
        }
        entry->FailWithFallback(failure, fallback);
        // Stale-while-revalidate fallback: the leader answers from the
        // degraded stale model rather than surfacing the error.
        if (fallback != nullptr) return fallback;
        return failure;
      }
    }

    const Status ready = entry->WaitReady();
    if (ready.ok()) return entry;
    // Degraded fallback attached by the leader: waiters answer from the
    // stale model instead of the error too.
    if (auto fallback = entry->fallback(); fallback != nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.degraded_serves;
      return fallback;
    }
    // A cancelled *leader* must not strand its waiters: the failed entry
    // is no longer resident (the leader resolved the slot), so a waiter
    // whose own token is still live loops and retrains — one retry wins
    // the new slot and becomes leader, the rest join its in-flight fit.
    // Waiters that were themselves cancelled (and leaders, whose own
    // factory produced the status) propagate Cancelled.
    if (!train_here && ready.code() == StatusCode::kCancelled &&
        !caller.cancelled()) {
      continue;
    }
    return ready;
  }  // for (;;)
}

void SurrogateCache::RecordFailureLocked(const SurrogateKey& key,
                                         const Status& status) {
  ++stats_.training_failures;
  const auto now = std::chrono::steady_clock::now();
  FailureState& fs = failures_[key];
  ++fs.consecutive;
  fs.last_failure = now;
  fs.last_status = status;
  if (options_.breaker_failure_threshold > 0 &&
      fs.consecutive >= options_.breaker_failure_threshold) {
    fs.open_until =
        now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(options_.breaker_open_seconds));
  }
  // Bound the bookkeeping: forget long-quiet keys (nothing refreshed
  // their failure in minutes and their breaker is closed).
  if (failures_.size() > 4 * options_.capacity + 16) {
    for (auto it = failures_.begin(); it != failures_.end();) {
      const double age =
          std::chrono::duration<double>(now - it->second.last_failure).count();
      if (age > 300.0 && it->second.open_until <= now && it->first != key) {
        it = failures_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

int SurrogateCache::RetryAfterSeconds(const SurrogateKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = failures_.find(key);
  if (it == failures_.end()) return 1;
  const auto now = std::chrono::steady_clock::now();
  double remain = 0.0;
  if (it->second.open_until > now) {
    remain =
        std::chrono::duration<double>(it->second.open_until - now).count();
  } else if (options_.negative_ttl_seconds > 0.0) {
    remain = options_.negative_ttl_seconds -
             std::chrono::duration<double>(now - it->second.last_failure)
                 .count();
  }
  return std::max(1, static_cast<int>(std::ceil(remain)));
}

std::shared_ptr<CachedSurrogate> SurrogateCache::Peek(
    const SurrogateKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : it->second.entry;
}

size_t SurrogateCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

SurrogateCache::Stats SurrogateCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace surf
