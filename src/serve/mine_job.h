#ifndef SURF_SERVE_MINE_JOB_H_
#define SURF_SERVE_MINE_JOB_H_

/// \file
/// \brief Asynchronous mining jobs: future-style handles with progress,
/// cooperative cancellation, and the id-keyed table surfd serves them
/// from.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "util/cancel.h"
#include "util/trace.h"

namespace surf {

class MiningService;

namespace v2 {
struct MineRequest;
struct MineResponse;
}  // namespace v2

/// \brief Handle to one in-flight (or finished) mining request.
///
/// Returned by MiningService::Submit. Future-style: `Wait` blocks until
/// the terminal response, `TryGet` polls, `progress` snapshots the live
/// search state, and `Cancel` requests cooperative cancellation — the
/// search stops within one GSO iteration (or one boosting round while
/// training) and completes with Status::Cancelled plus whatever partial
/// regions and provenance the search had. Cancel after completion is a
/// harmless no-op. Handles are shared_ptrs; the job object outlives both
/// the worker that runs it and any table entry that names it.
class MineJob {
 public:
  /// \brief Lifecycle phase of the job.
  enum class Phase {
    /// Accepted, not yet picked up by a worker.
    kQueued,
    /// Resolving the surrogate (training on a miss, joining an in-flight
    /// fit, or hitting the cache).
    kTraining,
    /// Running the GSO search against the resolved model.
    kSearching,
    /// Terminal: the response (success, cancelled, or failed) is ready.
    kDone,
  };

  /// \brief Snapshot of an in-flight job, safe to read concurrently.
  struct Progress {
    /// Current lifecycle phase.
    Phase phase = Phase::kQueued;
    /// Whether Cancel() has been requested (the job may still be
    /// unwinding toward kDone).
    bool cancel_requested = false;
    /// GSO iterations completed so far (0 while training).
    uint64_t iterations = 0;
    /// Iteration budget of the search (0 until the search starts).
    uint64_t max_iterations = 0;
    /// Particles currently holding a valid objective — the live proxy
    /// for regions found so far, before distinct-region extraction.
    uint64_t valid_particles = 0;
    /// Live per-phase elapsed times (seconds): time spent queued before
    /// a worker picked the job up, resolving/training the surrogate, and
    /// searching. A phase not yet entered reads 0; the phase currently
    /// running reads its elapsed-so-far; once the job is done all three
    /// are final. Always recorded (independent of request tracing).
    double queued_seconds = 0.0;
    double training_seconds = 0.0;
    double searching_seconds = 0.0;
  };

  /// Out-of-line so the unique_ptr members see complete types.
  ~MineJob();

  MineJob(const MineJob&) = delete;
  MineJob& operator=(const MineJob&) = delete;

  /// Requests cooperative cancellation. Idempotent; a no-op once the job
  /// is done.
  void Cancel();

  /// Blocks until the job is terminal; returns the response (valid for
  /// the life of the handle).
  const v2::MineResponse& Wait() const;

  /// Non-blocking poll: copies the response into `*out` and returns true
  /// when terminal, returns false (leaving `*out` untouched) otherwise.
  bool TryGet(v2::MineResponse* out) const;

  /// Whether the job reached its terminal state.
  bool done() const;

  /// Live progress snapshot.
  Progress progress() const;

  /// The request this job serves (normalized once the job has run
  /// ValidateAndNormalize on it).
  const v2::MineRequest& request() const;

  /// The token the mining core polls; exposed so tests can assert on it.
  CancelToken cancel_token() const { return cancel_.token(); }

  /// When the job completed (steady clock); the epoch default while it
  /// is still running. Drives the job table's age-based retention.
  std::chrono::steady_clock::time_point completed_at() const;

 private:
  friend class MiningService;

  /// Jobs are created by MiningService::Submit/Mine only. A positive
  /// `execution.deadline_seconds` arms the cancel token here.
  explicit MineJob(const v2::MineRequest& request);

  /// Marks the transition into training/searching (worker-side).
  void SetPhase(Phase phase);
  /// Publishes the terminal response and wakes waiters.
  void Complete(v2::MineResponse response);
  /// Moves the response out (single-owner fast path for blocking Mine).
  v2::MineResponse TakeResponse();

  /// Nanoseconds since created_at_ (monotonic offset for the phase
  /// timestamps below).
  int64_t NowNs() const;

  /// The job's own copy of the request; the worker validates and
  /// normalizes it in place.
  std::unique_ptr<v2::MineRequest> request_;
  CancelSource cancel_;
  SearchProgress search_progress_;
  std::atomic<Phase> phase_{Phase::kQueued};
  /// Span trace for this request; null unless the request asked for
  /// tracing. The worker records into it, RunJob publishes it.
  std::shared_ptr<TraceContext> trace_;
  /// Phase-transition timestamps as nanosecond offsets from creation
  /// (-1 = phase not entered yet). Always stamped — they back the live
  /// per-phase elapsed times in progress() whether or not the request
  /// is traced.
  const std::chrono::steady_clock::time_point created_at_{
      std::chrono::steady_clock::now()};
  std::atomic<int64_t> training_started_ns_{-1};
  std::atomic<int64_t> searching_started_ns_{-1};
  std::atomic<int64_t> finished_ns_{-1};

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::unique_ptr<v2::MineResponse> response_;  // set exactly once, at kDone
  /// Completion timestamp (epoch default = not yet done).
  std::chrono::steady_clock::time_point completed_at_{};
};

/// \brief Thread-safe id-keyed registry of jobs (surfd's job table).
///
/// Ids are monotonic ("job-1", "job-2", ...). Finished jobs are retained
/// for polling, bounded by BOTH a count cap and an age cap: past
/// `max_finished` registered jobs the oldest finished jobs are evicted,
/// and any finished job older than `max_age_seconds` is evicted on the
/// next table mutation (or an explicit Sweep()). Live jobs are never
/// evicted (a table dominated by live jobs may therefore exceed the
/// count cap until they finish).
class JobTable {
 public:
  /// \brief Retention configuration.
  struct Options {
    /// Count cap: past this many registered jobs the oldest finished
    /// jobs are evicted.
    size_t max_finished = 256;
    /// Age cap: finished jobs older than this are evicted on the next
    /// mutation or Sweep() regardless of the count cap (infinity =
    /// count-only retention, the pre-existing behaviour).
    double max_age_seconds = std::numeric_limits<double>::infinity();
  };

  explicit JobTable(Options options) : options_(options) {}

  /// Count-cap-only convenience ctor (legacy signature).
  explicit JobTable(size_t max_finished = 256)
      : JobTable(Options{max_finished,
                         std::numeric_limits<double>::infinity()}) {}

  /// Registers a job and returns its new id.
  std::string Add(std::shared_ptr<MineJob> job);

  /// The job registered under `id`, or null.
  std::shared_ptr<MineJob> Find(const std::string& id) const;

  /// Registered jobs (live + retained finished).
  size_t size() const;

  /// Jobs evicted by retention (count cap or age cap) so far.
  uint64_t evictions() const;

  /// Runs one retention pass now (age evictions otherwise wait for the
  /// next mutation). Returns the number of jobs evicted by this call.
  size_t Sweep();

 private:
  /// Evicts finished jobs past the age cap, then oldest finished jobs
  /// past the count cap. Requires mu_ held.
  void EnforceRetention();

  const Options options_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  uint64_t evictions_ = 0;
  /// Insertion order, oldest first (for retention eviction).
  std::list<std::string> order_;
  std::unordered_map<std::string,
                     std::pair<std::shared_ptr<MineJob>,
                               std::list<std::string>::iterator>>
      jobs_;
};

}  // namespace surf

#endif  // SURF_SERVE_MINE_JOB_H_
