#ifndef SURF_CORE_FINDER_H_
#define SURF_CORE_FINDER_H_

/// \file
/// \brief The GSO-based region-mining engine and its configuration.

#include <cstdint>
#include <vector>

#include "ml/kde.h"
#include "opt/gso.h"
#include "opt/naive_search.h"
#include "opt/objective.h"
#include "stats/evaluator.h"

namespace surf {

/// \brief Region-finder configuration: the GSO engine plus the objective
/// and result-extraction knobs.
struct FinderConfig {
  /// GSO engine parameters (swarm size, iterations, radii, seeding).
  GsoParams gso;
  /// Floor the swarm at the paper's §V-G size for the data
  /// dimensionality (L = 50·d) in RunSearch, for threshold and top-k
  /// queries alike; a larger num_glowworms is kept. Radii stay at their
  /// configured fractions. Disable to drive the raw GsoParams untouched.
  bool auto_scale_gso = true;
  /// Size regularizer c (paper Eq. 2/4; §V uses 4).
  double c = 4.0;
  /// Log objective (Eq. 4) vs ratio objective (Eq. 2).
  bool use_log_objective = true;
  /// Result extraction: particles are reduced to distinct regions via
  /// greedy non-max suppression at this IoU ceiling.
  double nms_max_iou = 0.25;
  /// Maximum number of distinct regions reported.
  size_t max_regions = 16;
  /// Steer neighbour selection by the KDE data prior (Eq. 8) when a KDE
  /// is attached. This is the expensive KDE use: one region-mass
  /// integral per particle per iteration.
  bool use_kde_guidance = true;
  /// Seed a fraction of the initial swarm from the KDE data prior
  /// (§III-B guidance at t = 0; see GsoParams::kde_seeded_fraction).
  /// One-off cost — latency-sensitive serving recipes keep this on even
  /// with `use_kde_guidance` off.
  bool use_kde_seeding = true;
};

/// \brief One reported region.
struct FoundRegion {
  /// The mined hyper-rectangle.
  Region region;
  /// Objective value Ĵ at the particle.
  double fitness = 0.0;
  /// Surrogate estimate ŷ = f̂(x, l).
  double estimate = 0.0;
  /// True statistic y = f(x, l); NaN when no validator was attached.
  double true_value = 0.0;
  /// Whether the *true* statistic satisfies the threshold (the paper's
  /// Fig. 5 compliance check). False when unvalidated.
  bool complies_true = false;
};

/// \brief Run metadata for the performance tables.
struct FindReport {
  /// Mining wall-time in seconds.
  double seconds = 0.0;
  /// GSO iterations run.
  size_t iterations = 0;
  /// Objective evaluations issued against the statistic source.
  uint64_t objective_evaluations = 0;
  /// Fraction of final particles with a defined objective (Fig. 1's 84 %).
  double particle_valid_fraction = 0.0;
  /// Whether the swarm met the movement-convergence criterion early.
  bool converged = false;
  /// Whether a CancelToken (or deadline) stopped the search early; the
  /// reported regions are the partial extraction from the swarm so far.
  bool cancelled = false;
  /// Fraction of reported regions whose true statistic complies (only
  /// meaningful with a validator attached).
  double true_compliance = 0.0;
};

/// \brief Full mining outcome.
struct FindResult {
  /// Distinct reported regions, best fitness first.
  std::vector<FoundRegion> regions;
  /// Run metadata (timing, evaluations, compliance).
  FindReport report;
  /// Raw final swarm (for the particle-plot experiments).
  GsoResult gso;
};

/// \brief SuRF's mining engine (paper §III): multimodal GSO over a
/// statistic estimate, with KDE guidance and distinct-region extraction.
///
/// The statistic source is pluggable: pass a surrogate's estimate for the
/// SuRF configuration or a true-evaluator closure for the paper's
/// f+GlowWorm comparison arm — the engine is identical.
class SurfFinder {
 public:
  /// `estimate` supplies f̂ (or f). `space` bounds the particle domain.
  SurfFinder(StatisticFn estimate, RegionSolutionSpace space,
             FinderConfig config);

  /// Attaches a batched estimate source (e.g.
  /// Surrogate::AsBatchStatisticFn). When set, the optimizer scores each
  /// swarm iteration with one call instead of one estimate per particle.
  /// Must agree with the scalar `estimate` value-for-value.
  void SetBatchEstimate(BatchStatisticFn batch_estimate) {
    batch_estimate_ = std::move(batch_estimate);
  }

  /// Attaches a KDE prior over the data distribution (non-owning). Used
  /// for Eq. 8 neighbour guidance when config.use_kde_guidance is set
  /// and for seeded swarm initialization when config.use_kde_seeding is
  /// set; ignored when both are off.
  void SetKde(const Kde* kde) { kde_ = kde; }

  /// Attaches the true-statistic evaluator used to validate reported
  /// regions (non-owning). Optional.
  void SetValidator(const RegionEvaluator* validator) {
    validator_ = validator;
  }

  /// Attaches a cooperative-cancellation token polled once per GSO
  /// iteration. A fired token stops the search within one iteration;
  /// Find then extracts and returns the regions found so far with
  /// `report.cancelled` set.
  void SetCancelToken(CancelToken cancel) { cancel_ = std::move(cancel); }

  /// Attaches a live progress observer (non-owning) updated once per GSO
  /// iteration. Optional.
  void SetProgress(SearchProgress* progress) { progress_ = progress; }

  /// Attaches a trace context (non-owning, nullable): Find then records
  /// "search" and "extraction" stage spans plus per-block GSO iteration
  /// children. Tracing never changes the mined regions.
  void SetTrace(TraceContext* trace) { trace_ = trace; }

  /// Mines regions whose statistic is above/below `threshold`.
  FindResult Find(double threshold, ThresholdDirection direction) const;

 private:
  StatisticFn estimate_;
  BatchStatisticFn batch_estimate_;  // may be null
  RegionSolutionSpace space_;
  FinderConfig config_;
  const Kde* kde_ = nullptr;
  const RegionEvaluator* validator_ = nullptr;
  CancelToken cancel_;
  SearchProgress* progress_ = nullptr;
  TraceContext* trace_ = nullptr;
};

}  // namespace surf

#endif  // SURF_CORE_FINDER_H_
