// Tests for the asynchronous job core (ISSUE 4): Submit/Wait parity with
// the blocking Mine, cooperative cancellation mid-search and
// mid-training, deadlines, cancel-after-completion, the single-flight
// leader-cancellation takeover, and the JobTable.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>
#include <vector>

#include "api/api_v2.h"
#include "data/synthetic.h"
#include "serve/mine_job.h"
#include "serve/mining_service.h"
#include "util/cancel.h"
#include "util/stopwatch.h"

namespace surf {
namespace {

SyntheticDataset DensityData(size_t dims, size_t k, uint64_t seed = 42) {
  SyntheticSpec spec;
  spec.dims = dims;
  spec.num_gt_regions = k;
  spec.statistic = SyntheticStatistic::kDensity;
  spec.num_background = 6000;
  spec.seed = seed;
  return SyntheticGenerator::Generate(spec);
}

/// A request with a small (fast) training recipe and quick search.
v2::MineRequest SmallRequest(const std::string& dataset_name,
                             double threshold) {
  v2::MineRequest request;
  request.dataset = dataset_name;
  request.query.statistic = Statistic::Count({0, 1});
  request.query.threshold = threshold;
  request.training.workload.num_queries = 800;
  request.training.surrogate.gbrt.n_estimators = 30;
  request.training.surrogate.gbrt.max_depth = 4;
  request.search.finder.gso.max_iterations = 25;
  request.search.finder.gso.num_glowworms = 60;
  request.search.finder.auto_scale_gso = false;
  return request;
}

/// Same cache key as SmallRequest, but a search long enough to cancel:
/// convergence disabled and a huge iteration budget.
v2::MineRequest LongSearchRequest(const std::string& dataset_name,
                                  double threshold) {
  v2::MineRequest request = SmallRequest(dataset_name, threshold);
  request.search.finder.gso.max_iterations = 200000;
  request.search.finder.gso.convergence_tol_frac = 0.0;
  return request;
}

class JobsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = DensityData(2, 1);
    MiningService::Options options;
    options.num_threads = 4;
    service_.emplace(options);
    ASSERT_TRUE(service_->RegisterDataset("d", data_.data).ok());
  }

  MiningService& service() { return *service_; }

  SyntheticDataset data_;
  std::optional<MiningService> service_;
};

// ------------------------------------------------------------ Submit/Wait

TEST_F(JobsTest, SubmitWaitMatchesBlockingMineBitIdentically) {
  const v2::MineRequest request = SmallRequest("d", 400.0);
  const v2::MineResponse blocking = service().Mine(request);
  ASSERT_TRUE(blocking.status.ok()) << blocking.status.ToString();

  auto job = service().Submit(request);
  const v2::MineResponse& async = job->Wait();
  ASSERT_TRUE(async.status.ok()) << async.status.ToString();
  EXPECT_TRUE(async.cache_hit);  // the blocking call trained the entry

  ASSERT_EQ(async.result.regions.size(), blocking.result.regions.size());
  for (size_t i = 0; i < async.result.regions.size(); ++i) {
    for (size_t j = 0; j < async.result.regions[i].region.dims(); ++j) {
      EXPECT_EQ(async.result.regions[i].region.center(j),
                blocking.result.regions[i].region.center(j));
      EXPECT_EQ(async.result.regions[i].region.half_length(j),
                blocking.result.regions[i].region.half_length(j));
    }
    EXPECT_EQ(async.result.regions[i].estimate,
              blocking.result.regions[i].estimate);
  }
  EXPECT_TRUE(job->done());
  EXPECT_EQ(job->progress().phase, MineJob::Phase::kDone);

  v2::MineResponse polled;
  EXPECT_TRUE(job->TryGet(&polled));
  EXPECT_TRUE(polled.status.ok());
}

TEST_F(JobsTest, ValidationRunsOnEveryEntryPoint) {
  v2::MineRequest request = SmallRequest("d", 400.0);
  request.execution.record_evaluations = true;
  request.execution.validate = false;
  const v2::MineResponse blocking = service().Mine(request);
  EXPECT_EQ(blocking.status.code(), StatusCode::kInvalidArgument);

  auto job = service().Submit(request);
  EXPECT_EQ(job->Wait().status.code(), StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------- cancellation

TEST_F(JobsTest, CancelMidSearchStopsWithinAnIterationWithPartials) {
  // Warm the cache so the long job goes straight to searching.
  ASSERT_TRUE(service().Mine(SmallRequest("d", 400.0)).status.ok());

  auto job = service().Submit(LongSearchRequest("d", 400.0));
  // Wait until the search is demonstrably under way.
  for (int i = 0; i < 2000 && job->progress().iterations < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(job->progress().iterations, 3u) << "search never started";

  Stopwatch timer;
  job->Cancel();
  const v2::MineResponse& response = job->Wait();
  const double cancel_latency = timer.ElapsedSeconds();

  EXPECT_EQ(response.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(response.result.report.cancelled);
  // Stopped long before the 200k-iteration budget.
  EXPECT_LT(response.result.report.iterations, 100000u);
  // ... and promptly in wall-clock terms (one iteration is ~sub-ms; the
  // bound is generous for loaded CI machines).
  EXPECT_LT(cancel_latency, 5.0);
  // Partial provenance rides along with the Cancelled status.
  EXPECT_TRUE(response.cache_hit);
  EXPECT_GT(response.provenance.training_set_size, 0u);
}

TEST_F(JobsTest, CancelAfterCompletionIsHarmlessNoOp) {
  auto job = service().Submit(SmallRequest("d", 400.0));
  const v2::MineResponse& response = job->Wait();
  ASSERT_TRUE(response.status.ok());
  const size_t regions = response.result.regions.size();

  job->Cancel();  // must not disturb the published response
  EXPECT_TRUE(job->done());
  v2::MineResponse after;
  ASSERT_TRUE(job->TryGet(&after));
  EXPECT_TRUE(after.status.ok());
  EXPECT_EQ(after.result.regions.size(), regions);
  EXPECT_EQ(job->progress().phase, MineJob::Phase::kDone);
}

TEST_F(JobsTest, DeadlineExceededReturnsCancelled) {
  // Warm the cache; the deadline should then bite mid-search.
  ASSERT_TRUE(service().Mine(SmallRequest("d", 400.0)).status.ok());

  v2::MineRequest request = LongSearchRequest("d", 400.0);
  request.execution.deadline_seconds = 0.15;
  Stopwatch timer;
  const v2::MineResponse response = service().Mine(request);
  EXPECT_EQ(response.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(response.result.report.cancelled);
  EXPECT_LT(timer.ElapsedSeconds(), 10.0);
}

TEST_F(JobsTest, CancelDuringTrainingAbortsPromptly) {
  // A fresh key with an expensive fit: cancellation must land between
  // boosting rounds, well before the full training completes.
  v2::MineRequest request = SmallRequest("d", 400.0);
  request.training.workload.num_queries = 4000;
  request.training.surrogate.gbrt.n_estimators = 4000;
  request.training.surrogate.gbrt.max_depth = 6;

  auto job = service().Submit(request);
  for (int i = 0; i < 2000 &&
                  job->progress().phase == MineJob::Phase::kQueued;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  job->Cancel();
  const v2::MineResponse& response = job->Wait();
  EXPECT_EQ(response.status.code(), StatusCode::kCancelled);
}

// -------------------------------------------- single-flight leader cancel

TEST_F(JobsTest, CancelledTrainingLeaderDoesNotStrandWaiters) {
  // A slow-to-train key: the leader is cancelled mid-fit while several
  // blocking waiters share its in-flight training. The waiters (whose
  // own tokens never fire) must not be stranded: one takes over as the
  // new leader and every waiter ends OK.
  v2::MineRequest request = SmallRequest("d", 400.0);
  request.training.workload.num_queries = 4000;
  request.training.surrogate.gbrt.n_estimators = 1500;
  request.training.surrogate.gbrt.max_depth = 6;

  auto leader = service().Submit(request);
  for (int i = 0; i < 2000 &&
                  leader->progress().phase == MineJob::Phase::kQueued;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  constexpr size_t kWaiters = 3;
  std::vector<std::thread> threads;
  std::vector<v2::MineResponse> responses(kWaiters);
  for (size_t i = 0; i < kWaiters; ++i) {
    threads.emplace_back([this, &request, &responses, i] {
      responses[i] = service().Mine(request);
    });
  }
  // Give the waiters time to join the in-flight training, then cancel
  // the leader.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  leader->Cancel();

  const v2::MineResponse& leader_response = leader->Wait();
  for (auto& t : threads) t.join();

  // The leader may have been cancelled mid-training (Cancelled) or may
  // have finished the fit before the token was observed (OK): both are
  // legal; what is not legal is a stranded or Cancelled *waiter*.
  EXPECT_TRUE(leader_response.status.ok() ||
              leader_response.status.code() == StatusCode::kCancelled)
      << leader_response.status.ToString();
  for (size_t i = 0; i < kWaiters; ++i) {
    EXPECT_TRUE(responses[i].status.ok())
        << "waiter " << i << ": " << responses[i].status.ToString();
    EXPECT_GT(responses[i].provenance.training_set_size, 0u);
  }
  // The entry is usable afterwards regardless of who trained it.
  const v2::MineResponse after = service().Mine(request);
  EXPECT_TRUE(after.status.ok());
  EXPECT_TRUE(after.cache_hit);
}

TEST_F(JobsTest, CancelledWaitersObserveCancelled) {
  // Waiters whose own token has fired must *not* take over: they
  // observe Cancelled.
  v2::MineRequest request = SmallRequest("d", 400.0);
  request.training.workload.num_queries = 4000;
  request.training.surrogate.gbrt.n_estimators = 1500;
  request.training.surrogate.gbrt.max_depth = 6;

  v2::MineRequest with_deadline = request;
  with_deadline.execution.deadline_seconds = 120.0;

  auto leader = service().Submit(with_deadline);
  for (int i = 0; i < 2000 &&
                  leader->progress().phase == MineJob::Phase::kQueued;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto waiter = service().Submit(with_deadline);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Cancel both: the waiter's own token fires, so it must not retrain.
  waiter->Cancel();
  leader->Cancel();
  // Neither job may hang, and the only legal non-OK outcome is
  // Cancelled (OK means the fit finished before the token was seen).
  const v2::MineResponse& leader_response = leader->Wait();
  EXPECT_TRUE(leader_response.status.ok() ||
              leader_response.status.code() == StatusCode::kCancelled)
      << leader_response.status.ToString();
  const v2::MineResponse& waiter_response = waiter->Wait();
  EXPECT_TRUE(waiter_response.status.ok() ||
              waiter_response.status.code() == StatusCode::kCancelled)
      << waiter_response.status.ToString();
}

// --------------------------------------------------------------- JobTable

TEST(JobTableTest, AddFindAndRetention) {
  SyntheticDataset ds = DensityData(2, 1);
  MiningService::Options options;
  options.num_threads = 2;
  MiningService service(options);
  ASSERT_TRUE(service.RegisterDataset("d", ds.data).ok());

  JobTable table(/*max_finished=*/2);
  std::vector<std::string> ids;
  std::vector<std::shared_ptr<MineJob>> jobs;
  for (int i = 0; i < 4; ++i) {
    auto job = service.Submit(SmallRequest("d", 400.0));
    job->Wait();
    ids.push_back(table.Add(job));
    jobs.push_back(std::move(job));
  }
  // Ids are unique and monotonic.
  EXPECT_EQ(ids[0], "job-1");
  EXPECT_NE(ids[0], ids[1]);
  // Retention keeps at most 2 finished jobs: the oldest were evicted.
  EXPECT_LE(table.size(), 2u);
  EXPECT_EQ(table.Find(ids[0]), nullptr);
  EXPECT_NE(table.Find(ids[3]), nullptr);
  // Eviction never invalidates an outstanding handle.
  EXPECT_TRUE(jobs[0]->done());
}

TEST(JobTableTest, AgeCapEvictsOldFinishedJobsAndCountsEvictions) {
  SyntheticDataset ds = DensityData(2, 1);
  MiningService::Options options;
  options.num_threads = 2;
  MiningService service(options);
  ASSERT_TRUE(service.RegisterDataset("d", ds.data).ok());

  JobTable::Options retention;
  retention.max_finished = 256;  // count cap never reached here
  retention.max_age_seconds = 0.2;
  JobTable table(retention);
  EXPECT_EQ(table.evictions(), 0u);

  std::vector<std::string> ids;
  for (int i = 0; i < 3; ++i) {
    auto job = service.Submit(SmallRequest("d", 400.0));
    job->Wait();
    ids.push_back(table.Add(job));
  }
  // Mining wall-time may already exceed the 0.2s horizon between Adds,
  // so some jobs can be age-evicted by the Add-time retention pass —
  // but never lost: evicted + resident always accounts for all three.
  EXPECT_EQ(table.evictions() + table.size(), 3u);

  // Past the horizon, a sweep drains every remaining finished job.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  table.Sweep();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.evictions(), 3u);
  for (const std::string& id : ids) {
    EXPECT_EQ(table.Find(id), nullptr);
  }
}

TEST(JobTableTest, CountCapEvictionAdvancesTheEvictionCounter) {
  SyntheticDataset ds = DensityData(2, 1);
  MiningService::Options options;
  options.num_threads = 2;
  MiningService service(options);
  ASSERT_TRUE(service.RegisterDataset("d", ds.data).ok());

  JobTable table(/*max_finished=*/2);
  for (int i = 0; i < 5; ++i) {
    auto job = service.Submit(SmallRequest("d", 400.0));
    job->Wait();
    table.Add(job);
  }
  // Bounded growth: the table never exceeds the cap (all jobs are
  // finished), and each eviction was counted.
  EXPECT_LE(table.size(), 2u);
  EXPECT_EQ(table.evictions(), 5u - table.size());
}

TEST(JobTableTest, LiveJobsAreNeverAgeEvicted) {
  JobTable::Options retention;
  retention.max_age_seconds = 0.0;  // everything finished is evictable
  JobTable table(retention);

  SyntheticDataset ds = DensityData(2, 1);
  MiningService::Options options;
  options.num_threads = 2;
  MiningService service(options);
  ASSERT_TRUE(service.RegisterDataset("d", ds.data).ok());

  v2::MineRequest slow = SmallRequest("d", 400.0);
  slow.execution.deadline_seconds = 30.0;
  auto job = service.Submit(slow);
  const std::string id = table.Add(job);
  // The job may or may not still be running at this instant, but a
  // sweep must never evict a live one; once it finishes, the age cap of
  // zero evicts it on the next sweep.
  if (!job->done()) {
    table.Sweep();
    EXPECT_NE(table.Find(id), nullptr);
  }
  job->Wait();
  table.Sweep();
  EXPECT_EQ(table.Find(id), nullptr);
}

// ------------------------------------------------------------ CancelToken

TEST(CancelTokenTest, InertDefaultAndSourceSemantics) {
  CancelToken inert;
  EXPECT_FALSE(inert.cancelled());
  EXPECT_FALSE(inert.can_cancel());
  EXPECT_TRUE(inert.ToStatus().ok());

  CancelSource source;
  CancelToken token = source.token();
  EXPECT_TRUE(token.can_cancel());
  EXPECT_FALSE(token.cancelled());
  source.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kCancelled);
  source.Cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
}

TEST(CancelTokenTest, DeadlineFiresAndImmediateDeadlineCancels) {
  CancelSource source;
  source.SetDeadline(0.05);
  CancelToken token = source.token();
  EXPECT_FALSE(token.cancelled());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_TRUE(token.cancelled());

  CancelSource immediate;
  immediate.SetDeadline(0.0);
  EXPECT_TRUE(immediate.cancelled());
}

}  // namespace
}  // namespace surf
