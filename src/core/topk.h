#ifndef SURF_CORE_TOPK_H_
#define SURF_CORE_TOPK_H_

/// \file
/// \brief The top-k (k-highest-statistic) query formulation.

#include <cstddef>
#include <vector>

#include "ml/kde.h"
#include "opt/gso.h"
#include "opt/naive_search.h"
#include "opt/objective.h"

namespace surf {

/// \brief Configuration of the top-k alternative formulation.
struct TopKConfig {
  /// Number of regions requested.
  size_t k = 3;
  /// Size regularizer. For count statistics note that J = log(ŷ) −
  /// c·Σ log lᵢ over a uniform-density pocket equals
  /// log(density·2^d) + (1 − c)·Σ log lᵢ: c > 1 collapses to minimal
  /// boxes, c < 1 rewards the largest box sustaining the density — the
  /// natural "densest region" reading — and c = 1 scores pure density.
  double c = 0.8;
  /// Distinctness: regions overlapping a better one by more than this
  /// IoU are not counted toward k.
  double nms_max_iou = 0.25;
  /// GSO engine parameters.
  GsoParams gso;
};

/// \brief Result of a top-k run.
struct TopKResult {
  /// At most k distinct regions, best first.
  std::vector<ScoredRegion> regions;
  /// GSO iterations run.
  size_t iterations = 0;
  /// Objective evaluations issued against the statistic source.
  uint64_t objective_evaluations = 0;
  /// Whether a CancelToken stopped the search early; `regions` then holds
  /// the best distinct regions of the partial swarm.
  bool cancelled = false;
};

/// \brief The top-k formulation the paper contrasts with in §VI: instead
/// of a threshold y_R, the analyst asks for the k highest-statistic
/// regions.
///
/// Implemented over the same GSO engine with the threshold-free fitness
/// J = log(ŷ) − c·Σ log l_i (undefined where ŷ ≤ 0 or f̂ is undefined),
/// then keeping the k best distinct particles. The paper's §VI argument —
/// that top-k concentrates on one region when a single mode dominates,
/// while a threshold query surfaces them all — is demonstrated by
/// `bench/ext_topk`.
class TopKFinder {
 public:
  /// `estimate` supplies f̂ (or f). `space` bounds the particle domain.
  TopKFinder(StatisticFn estimate, RegionSolutionSpace space,
             TopKConfig config);

  /// Attaches a batched estimate source, as in SurfFinder: each GSO
  /// iteration then costs one batched model call for the whole swarm.
  void SetBatchEstimate(BatchStatisticFn batch_estimate) {
    batch_estimate_ = std::move(batch_estimate);
  }

  /// Attaches a KDE prior (non-owning), as in SurfFinder.
  void SetKde(const Kde* kde) { kde_ = kde; }

  /// Attaches a cancellation token polled per GSO iteration, as in
  /// SurfFinder.
  void SetCancelToken(CancelToken cancel) { cancel_ = std::move(cancel); }

  /// Attaches a live progress observer (non-owning), as in SurfFinder.
  void SetProgress(SearchProgress* progress) { progress_ = progress; }

  /// Attaches a trace context (non-owning, nullable), as in SurfFinder:
  /// Find records "search" and "extraction" stage spans.
  void SetTrace(TraceContext* trace) { trace_ = trace; }

  /// Mines the k highest-statistic regions.
  TopKResult Find() const;

 private:
  StatisticFn estimate_;
  BatchStatisticFn batch_estimate_;  // may be null
  RegionSolutionSpace space_;
  TopKConfig config_;
  const Kde* kde_ = nullptr;
  CancelToken cancel_;
  SearchProgress* progress_ = nullptr;
  TraceContext* trace_ = nullptr;
};

}  // namespace surf

#endif  // SURF_CORE_TOPK_H_
