#include "dist/cluster_evaluator.h"

#include <algorithm>
#include <limits>
#include <thread>
#include <utility>

#include "dist/wire.h"
#include "net/json_codec.h"
#include "util/failpoint.h"
#include "util/json.h"

namespace surf {
namespace dist {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

ClusterEvaluator::ClusterEvaluator(WorkerPool* pool, Statistic stat,
                                   Options options)
    : pool_(pool), stat_(std::move(stat)), options_(std::move(options)) {
  num_shards_ = options_.num_shards != 0 ? options_.num_shards
                                         : std::max<size_t>(1, pool_->size());
  // Same partition derivation as MakeEvaluator's sharded branch: range-
  // partition on the first box dimension, materialize only the touched
  // columns. Workers construct their ShardedDataset from exactly this
  // spec, so shard boundaries — and therefore every partial — match the
  // single-node shards=N evaluator bit for bit.
  order_by_ = static_cast<int>(stat_.region_cols.front());
  columns_ = stat_.region_cols;
  if (stat_.needs_value_column()) {
    columns_.push_back(static_cast<size_t>(stat_.value_col));
  }
}

std::string ClusterEvaluator::degraded_reason() const {
  std::lock_guard<std::mutex> lock(reason_mu_);
  return degraded_reason_;
}

void ClusterEvaluator::MarkDegraded(const std::string& reason) const {
  {
    std::lock_guard<std::mutex> lock(reason_mu_);
    if (degraded_reason_.empty()) degraded_reason_ = reason;
  }
  degraded_.store(true, std::memory_order_release);
}

double ClusterEvaluator::EvaluateImpl(const Region& region,
                                      const CancelToken& cancel) const {
  const std::vector<double> labels =
      EvaluateBatchImpl(std::span<const Region>(&region, 1), cancel);
  return labels.empty() ? kNaN : labels[0];
}

Status ClusterEvaluator::EvaluateGroup(
    const std::vector<size_t>& shards, std::span<const Region> regions,
    size_t first_worker, const CancelToken& cancel,
    std::vector<std::vector<StatisticAccumulator>>* partials) const {
  ShardEvaluateRequest request;
  request.dataset = options_.dataset;
  request.has_fingerprint = options_.fingerprint != 0;
  request.fingerprint = options_.fingerprint;
  request.statistic = stat_;
  request.num_shards = num_shards_;
  request.order_by = order_by_;
  request.columns = columns_;
  request.shards = shards;
  request.queries.assign(regions.begin(), regions.end());
  request.deadline_seconds = options_.rpc_timeout_seconds;
  const std::string body = WriteJson(ShardEvaluateRequestToJson(request));

  size_t attempt = 0;
  size_t current = first_worker;
  const Status final_status = RunWithRetry(
      options_.retry,
      [&]() -> Status {
        if (attempt > 0) {
          // Re-home: the previous worker failed (and was marked
          // unhealthy by the pool on transport faults) — move the whole
          // group to the next healthy worker in pool order, giving
          // downed members one /healthz chance when none are left.
          pool_->RecordRetry();
          std::vector<size_t> healthy = pool_->HealthyWorkers();
          if (healthy.empty()) {
            pool_->ProbeUnhealthy(cancel);
            healthy = pool_->HealthyWorkers();
          }
          if (healthy.empty()) {
            return Status::Unavailable(
                "no healthy workers left for shard group");
          }
          size_t pick = healthy.front();
          for (size_t h : healthy) {
            if (h > current) {
              pick = h;
              break;
            }
          }
          current = pick;
        }
        ++attempt;
        // The injection point of the dist.shard_rpc failpoint: a fired
        // hit fails this attempt exactly like a transport fault, so the
        // chaos suite exercises the re-home path without real sockets
        // going down.
        if (Status injected = MaybeFailpoint("dist.shard_rpc");
            !injected.ok()) {
          return injected;
        }
        auto reply = pool_->Post(current, "/v1/shards:evaluate", body,
                                 cancel);
        if (!reply.ok()) return reply.status();
        auto doc = ParseJson(*reply);
        if (!doc.ok()) {
          return Status::Internal("unparseable worker response: " +
                                  doc.status().message());
        }
        auto response = ShardEvaluateResponseFromJson(*doc, stat_);
        if (!response.ok()) {
          return Status::Internal("bad worker response: " +
                                  response.status().message());
        }
        if (response->partials.size() != regions.size()) {
          return Status::Internal("worker answered wrong query count");
        }
        for (const auto& per_query : response->partials) {
          if (per_query.size() != shards.size()) {
            return Status::Internal("worker answered wrong shard count");
          }
        }
        *partials = std::move(response->partials);
        return Status::OK();
      },
      cancel);

  if (final_status.ok() && current != first_worker) {
    MarkDegraded("shard group [" + std::to_string(shards.front()) + ".." +
                 std::to_string(shards.back()) + "] re-homed from " +
                 pool_->endpoint(first_worker) + " to " +
                 pool_->endpoint(current));
  }
  return final_status;
}

std::vector<double> ClusterEvaluator::EvaluateBatchImpl(
    std::span<const Region> regions, const CancelToken& cancel) const {
  if (regions.empty() || cancel.cancelled()) return {};

  pool_->ProbeUnhealthy(cancel);
  const std::vector<size_t> healthy = pool_->HealthyWorkers();
  std::vector<double> labels(regions.size(), kNaN);
  if (healthy.empty()) {
    MarkDegraded("no healthy workers configured or reachable");
    return labels;
  }

  // Contiguous ascending shard groups, one per healthy worker (fewer
  // when there are more workers than shards). Contiguity matters for
  // the gather below: concatenating the groups in group order walks the
  // shards in ascending index.
  const size_t num_groups = std::min(healthy.size(), num_shards_);
  const size_t base = num_shards_ / num_groups;
  const size_t rem = num_shards_ % num_groups;
  struct Group {
    std::vector<size_t> shards;
    size_t worker = 0;
    Status status = Status::OK();
    std::vector<std::vector<StatisticAccumulator>> partials;
  };
  std::vector<Group> groups(num_groups);
  size_t next_shard = 0;
  for (size_t g = 0; g < num_groups; ++g) {
    const size_t group_size = base + (g < rem ? 1 : 0);
    groups[g].shards.reserve(group_size);
    for (size_t k = 0; k < group_size; ++k) {
      groups[g].shards.push_back(next_shard++);
    }
    groups[g].worker = healthy[g];
  }

  // Scatter: one thread per group, so every worker's RPC (and any
  // re-home retries) overlaps with the others. Each thread writes only
  // its own Group slot; the join below is the only synchronization
  // needed.
  std::vector<std::thread> threads;
  threads.reserve(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    threads.emplace_back([this, &groups, &regions, &cancel, g] {
      Group& group = groups[g];
      group.status = EvaluateGroup(group.shards, regions, group.worker,
                                   cancel, &group.partials);
    });
  }
  for (std::thread& t : threads) t.join();

  // A fired token yields the empty prefix — no label was completed from
  // the caller's perspective (partial gathers are discarded).
  if (cancel.cancelled()) return {};

  for (const Group& group : groups) {
    if (!group.status.ok()) {
      MarkDegraded("shard group [" + std::to_string(group.shards.front()) +
                   ".." + std::to_string(group.shards.back()) +
                   "] failed: " + group.status.message());
      return labels;  // all NaN — the statistic could not be computed
    }
  }

  // Gather: per query, replay the in-process fold — seed with shard 0's
  // partial (a bitwise copy), then Merge shards 1..N-1 in ascending
  // order. Group contiguity + within-group ascending order make the
  // concatenated walk exactly 0, 1, ..., N-1.
  for (size_t q = 0; q < regions.size(); ++q) {
    StatisticAccumulator result = groups[0].partials[q][0];
    for (size_t g = 0; g < num_groups; ++g) {
      for (size_t s = (g == 0 ? 1 : 0); s < groups[g].shards.size(); ++s) {
        result.Merge(groups[g].partials[q][s]);
      }
    }
    labels[q] = result.Finalize();
  }
  return labels;
}

}  // namespace dist
}  // namespace surf
