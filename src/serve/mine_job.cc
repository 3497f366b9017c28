#include "serve/mine_job.h"

#include <cmath>

#include "api/api_v2.h"

namespace surf {

// ----------------------------------------------------------------- MineJob

MineJob::MineJob(const v2::MineRequest& request)
    : request_(std::make_unique<v2::MineRequest>(request)) {
  const double deadline_seconds = request_->execution.deadline_seconds;
  if (deadline_seconds > 0.0) cancel_.SetDeadline(deadline_seconds);
  if (request_->execution.trace) trace_ = std::make_shared<TraceContext>();
}

int64_t MineJob::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - created_at_)
      .count();
}

MineJob::~MineJob() = default;

void MineJob::Cancel() { cancel_.Cancel(); }

const v2::MineResponse& MineJob::Wait() const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return response_ != nullptr; });
  return *response_;
}

bool MineJob::TryGet(v2::MineResponse* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (response_ == nullptr) return false;
  if (out != nullptr) *out = *response_;
  return true;
}

bool MineJob::done() const {
  return phase_.load(std::memory_order_acquire) == Phase::kDone;
}

MineJob::Progress MineJob::progress() const {
  Progress p;
  p.phase = phase_.load(std::memory_order_acquire);
  p.cancel_requested = cancel_.cancelled();
  p.iterations = search_progress_.iterations.load(std::memory_order_relaxed);
  p.max_iterations =
      search_progress_.max_iterations.load(std::memory_order_relaxed);
  p.valid_particles =
      search_progress_.valid_particles.load(std::memory_order_relaxed);
  // Per-phase elapsed times from the stamped offsets: a phase not yet
  // entered reads 0, the running phase reads elapsed-so-far, a finished
  // job reads final durations.
  const int64_t finished = finished_ns_.load(std::memory_order_relaxed);
  const int64_t now = finished >= 0 ? finished : NowNs();
  const int64_t training = training_started_ns_.load(std::memory_order_relaxed);
  const int64_t searching =
      searching_started_ns_.load(std::memory_order_relaxed);
  p.queued_seconds = (training >= 0 ? training : now) * 1e-9;
  if (training >= 0) {
    p.training_seconds = ((searching >= 0 ? searching : now) - training) * 1e-9;
  }
  if (searching >= 0) p.searching_seconds = (now - searching) * 1e-9;
  return p;
}

const v2::MineRequest& MineJob::request() const { return *request_; }

std::chrono::steady_clock::time_point MineJob::completed_at() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_at_;
}

void MineJob::SetPhase(Phase phase) {
  const int64_t ns = NowNs();
  if (phase == Phase::kTraining) {
    training_started_ns_.store(ns, std::memory_order_relaxed);
  } else if (phase == Phase::kSearching) {
    searching_started_ns_.store(ns, std::memory_order_relaxed);
  }
  phase_.store(phase, std::memory_order_release);
}

void MineJob::Complete(v2::MineResponse response) {
  finished_ns_.store(NowNs(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    response_ = std::make_unique<v2::MineResponse>(std::move(response));
    completed_at_ = std::chrono::steady_clock::now();
  }
  // Publish the terminal phase only after the response is readable, so
  // done() == true implies TryGet succeeds.
  phase_.store(Phase::kDone, std::memory_order_release);
  cv_.notify_all();
}

v2::MineResponse MineJob::TakeResponse() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(*response_);
}

// ---------------------------------------------------------------- JobTable

std::string JobTable::Add(std::shared_ptr<MineJob> job) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string id = "job-" + std::to_string(next_id_++);
  order_.push_back(id);
  jobs_.emplace(id, std::make_pair(std::move(job), std::prev(order_.end())));
  EnforceRetention();
  return id;
}

std::shared_ptr<MineJob> JobTable::Find(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.first;
}

size_t JobTable::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return jobs_.size();
}

uint64_t JobTable::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

size_t JobTable::Sweep() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t before = evictions_;
  EnforceRetention();
  return static_cast<size_t>(evictions_ - before);
}

void JobTable::EnforceRetention() {
  // Age pass first: a finished job older than the age cap is evicted no
  // matter how full the table is. Completion times are monotone only
  // per job (insertion order is not completion order), so the whole
  // list is walked; the pass is skipped entirely when no age cap is
  // configured.
  if (std::isfinite(options_.max_age_seconds) && !jobs_.empty()) {
    const auto now = std::chrono::steady_clock::now();
    const auto max_age = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(options_.max_age_seconds));
    for (auto it = order_.begin(); it != order_.end();) {
      auto found = jobs_.find(*it);
      if (found != jobs_.end() && found->second.first->done() &&
          now - found->second.first->completed_at() > max_age) {
        jobs_.erase(found);
        it = order_.erase(it);
        ++evictions_;
      } else {
        ++it;
      }
    }
  }

  // Count pass, size-guarded: a table within the cap costs nothing per
  // Add. Past the cap, walk from the oldest entry evicting finished
  // jobs until back under it (live jobs are never evicted, so a table
  // dominated by live jobs simply stays over the cap until they
  // finish).
  if (jobs_.size() <= options_.max_finished) return;
  auto it = order_.begin();
  while (jobs_.size() > options_.max_finished && it != order_.end()) {
    auto found = jobs_.find(*it);
    if (found != jobs_.end() && found->second.first->done()) {
      jobs_.erase(found);
      it = order_.erase(it);
      ++evictions_;
    } else {
      ++it;
    }
  }
}

}  // namespace surf
