#ifndef SURF_STATS_EVALUATOR_H_
#define SURF_STATS_EVALUATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "geom/region.h"
#include "stats/statistic.h"
#include "util/cancel.h"

namespace surf {

/// \brief Interface of the "back-end data system" that computes the true
/// statistic f(x, l) for a region (paper Def. 3). Implementations trade
/// build cost for query cost.
///
/// Count, sum, average, variance and label ratio are exact on every
/// implementation (the summed ones up to floating-point reassociation).
/// The median is exact only while a region holds at most
/// QuantileSketch::kDefaultCapacity (4096) rows. Past that its sketch
/// compacts, the answer stays within the sketch's rank bound, and it
/// depends on the order rows are fed in — so the scan, the grid and the
/// sharded scan at different shard counts may return different medians
/// for the same large region.
///
/// Evaluators count how many region evaluations they served — the paper's
/// cost model is "number of f evaluations × cost per evaluation", and the
/// benches report both.
class RegionEvaluator {
 public:
  virtual ~RegionEvaluator() = default;

  /// Computes y = f(x, l). Returns NaN where f is undefined (mean-like
  /// statistics over empty regions).
  double Evaluate(const Region& region) const {
    return Evaluate(region, CancelToken());
  }

  /// Cancellable form: long scans poll `cancel` between batches (the
  /// sharded backend polls per shard, the reference scan every 64Ki
  /// rows) and unwind early when it fires. The value returned after a
  /// cancellation is a partial aggregate and must be discarded — callers
  /// check the token, exactly as GenerateWorkload does.
  double Evaluate(const Region& region, const CancelToken& cancel) const {
    evaluations_.fetch_add(1, std::memory_order_relaxed);
    return EvaluateImpl(region, cancel);
  }

  /// Labels a batch of regions. Returns one value per region in order;
  /// a fired `cancel` yields a *prefix* (possibly empty) — every
  /// returned label is complete, the rest were never computed. The
  /// default implementation loops Evaluate; backends that amortize
  /// per-call overhead across a batch (the distributed scatter-gather
  /// evaluator ships one RPC per batch) override EvaluateBatchImpl.
  std::vector<double> EvaluateBatch(std::span<const Region> regions,
                                    const CancelToken& cancel) const {
    std::vector<double> labels = EvaluateBatchImpl(regions, cancel);
    evaluations_.fetch_add(labels.size(), std::memory_order_relaxed);
    return labels;
  }

  /// The statistic this evaluator computes.
  virtual const Statistic& statistic() const = 0;

  /// Number of Evaluate() calls served so far.
  uint64_t evaluation_count() const {
    return evaluations_.load(std::memory_order_relaxed);
  }

  void ResetEvaluationCount() { evaluations_.store(0); }

 protected:
  virtual double EvaluateImpl(const Region& region,
                              const CancelToken& cancel) const = 0;

  /// Batch body behind EvaluateBatch (which does the evaluation-count
  /// bookkeeping — implementations must not touch the counter). The
  /// default loops EvaluateImpl with the same discard-partial-on-cancel
  /// contract as the scalar path: poll before each region, drop the
  /// in-flight label if the token fired during it.
  virtual std::vector<double> EvaluateBatchImpl(
      std::span<const Region> regions, const CancelToken& cancel) const {
    std::vector<double> labels;
    labels.reserve(regions.size());
    for (const Region& region : regions) {
      if (cancel.cancelled()) break;
      const double y = EvaluateImpl(region, cancel);
      if (cancel.cancelled()) break;
      labels.push_back(y);
    }
    return labels;
  }

 private:
  mutable std::atomic<uint64_t> evaluations_{0};
};

/// \brief Reference evaluator: one full pass over the dataset per query,
/// O(N · d). This is the paper's cost model for Naive and f+GlowWorm.
class ScanEvaluator : public RegionEvaluator {
 public:
  /// Does not take ownership of `data`; it must outlive the evaluator.
  ScanEvaluator(const Dataset* data, Statistic stat);

  const Statistic& statistic() const override { return stat_; }

 protected:
  double EvaluateImpl(const Region& region,
                      const CancelToken& cancel) const override;

 private:
  const Dataset* data_;
  Statistic stat_;
};

}  // namespace surf

#endif  // SURF_STATS_EVALUATOR_H_
