#ifndef SURF_OPT_GSO_H_
#define SURF_OPT_GSO_H_

#include <cstdint>
#include <vector>

#include "ml/kde.h"
#include "opt/objective.h"
#include "opt/solution_space.h"
#include "util/cancel.h"
#include "util/trace.h"

namespace surf {

/// \brief Glowworm Swarm Optimization parameters.
///
/// Defaults follow Krishnanand & Ghose '09 as adopted by the paper
/// (§V-D: T = 100, L = 100, r0 = 3, γ = 0.6, ρ = 0.4). The paper's §V-G
/// dimension-aware tuning (L = 50·d, r0 = (1 − ½^{1/L})^{1/d}) is exposed
/// through `PaperScaled`.
struct GsoParams {
  /// Number of glowworms L.
  size_t num_glowworms = 100;
  /// Maximum iterations T.
  size_t max_iterations = 100;
  /// Luciferin decay ρ (Eq. 6).
  double luciferin_decay = 0.4;
  /// Luciferin enhancement γ (Eq. 6).
  double luciferin_gain = 0.6;
  /// Initial luciferin ℓ(0).
  double initial_luciferin = 5.0;
  /// Initial neighborhood radius r0, as a fraction of the flat-space
  /// diagonal (the classic absolute value 3 assumed unit-ish domains).
  double initial_radius_frac = 0.35;
  /// Maximum sensor radius r_s (fraction of the diagonal).
  double sensor_radius_frac = 0.45;
  /// Radius adaptation rate β.
  double radius_beta = 0.08;
  /// Desired neighbour count n_t for radius adaptation.
  size_t desired_neighbors = 5;
  /// Movement step s (fraction of the diagonal).
  double step_frac = 0.01;
  /// Early stop when the swarm's mean movement stays below this fraction
  /// of the diagonal for `convergence_window` iterations (0 disables).
  double convergence_tol_frac = 5e-4;
  size_t convergence_window = 10;
  /// Extension beyond the paper: per-iteration probability that an
  /// *invalid* particle with no brighter neighbour re-seeds at a fresh
  /// random position. The paper leaves such glowworms stationary; enable
  /// this when the threshold is so extreme that the initial spread may
  /// miss every valid pocket (e.g. ratio ≥ 0.9 requests). 0 = paper
  /// behaviour.
  double exploration_restart_prob = 0.0;
  /// When a KDE prior is supplied, this fraction of the swarm is
  /// initialized with centers drawn from the KDE (jittered data
  /// locations) instead of uniformly — §III-B's "use p_A(a) as a guide"
  /// applied at t = 0, which is what lets the swarm discover narrow valid
  /// basins (e.g. a single dense box occupying 2 % of the domain). 0
  /// restores fully uniform initialization.
  double kde_seeded_fraction = 0.5;
  /// Per-iteration Eq. 8 re-weighting of neighbour selection by KDE
  /// region mass. One RegionMass integral per particle per iteration —
  /// by far the most expensive KDE use; latency-sensitive serving
  /// configurations disable it and keep the (one-off) seeded
  /// initialization above.
  bool kde_mass_guidance = true;
  uint64_t seed = 99;

  /// The paper's §V-G scaling for data dimensionality d (region space is
  /// 2d-dimensional): L = 50·d, r0 = (1 − ½^{1/L})^{1/d}.
  static GsoParams PaperScaled(size_t data_dims);
};

/// \brief Per-iteration trace used by the convergence experiments (Fig. 9).
struct GsoHistory {
  /// Mean objective over valid particles, one entry per iteration.
  std::vector<double> mean_fitness;
  /// Mean particle movement (flat-space L2) per iteration.
  std::vector<double> mean_movement;
  /// Fraction of particles with a valid (defined) objective.
  std::vector<double> valid_fraction;
};

/// \brief Final swarm state.
struct GsoResult {
  std::vector<Region> particles;
  std::vector<double> fitness;
  std::vector<bool> valid;
  /// The raw statistic behind each particle's fitness
  /// (FitnessValue::statistic: NaN where the fitness computed none).
  std::vector<double> statistic;
  /// Luciferin levels at termination.
  std::vector<double> luciferin;
  size_t iterations_run = 0;
  /// True if the movement-based criterion fired before max_iterations.
  bool converged = false;
  /// True when a CancelToken stopped the swarm early. The partial swarm
  /// (positions, fitness, validity) is still fully populated and usable.
  bool cancelled = false;
  /// Regions actually sent to the fitness function. A particle is
  /// re-scored only after its region changes, so this is at most the
  /// paper's T · L plus the final L-particle refresh.
  uint64_t objective_evaluations = 0;
  GsoHistory history;

  /// Fraction of final particles with valid objective (the Fig. 1 "84 %
  /// of particles converged to satisfying regions" metric).
  double ValidFraction() const;
};

/// \brief Glowworm Swarm Optimization over the region solution space
/// (paper §III-A), with optional KDE-guided neighbour selection (§III-B,
/// Eq. 8).
///
/// Each glowworm is a candidate region [x, l] ∈ R^{2d}. Iterations run the
/// two GSO phases: the luciferin update (Eq. 6) and the probabilistic move
/// toward a brighter neighbour (Eq. 7 — or Eq. 8 when a KDE prior is
/// supplied), followed by the adaptive-radius update. Invalid particles
/// (undefined objective) receive no luciferin reinforcement, so swarms
/// starved of valid fitness dim out and stop attracting others — the
/// paper's mechanism for isolating glowworms stuck in undefined space.
class GlowwormSwarmOptimizer {
 public:
  explicit GlowwormSwarmOptimizer(GsoParams params) : params_(params) {}

  /// Runs the swarm against `fitness` within `space`. If `kde` is
  /// non-null the Eq. 8 region-mass weighting steers neighbour choice.
  /// `fitness` must be a pure function of the region: each iteration
  /// scores only the particles that moved since their last score.
  /// `cancel` is polled once per iteration: a fired token (flag or
  /// deadline) stops the swarm within one iteration, marking the result
  /// `cancelled` while keeping the partial swarm reportable. `progress`,
  /// when non-null, is updated every iteration for concurrent observers.
  /// A non-null `trace` records one "gso_iterations" span per block of
  /// iterations; tracing never changes the swarm trajectory.
  GsoResult Optimize(const FitnessFn& fitness,
                     const RegionSolutionSpace& space,
                     const Kde* kde = nullptr, CancelToken cancel = {},
                     SearchProgress* progress = nullptr,
                     TraceContext* trace = nullptr) const;

  /// Batched variant: the particles that moved are scored with one
  /// `fitness` call per iteration (one surrogate PredictBatch instead of
  /// a tree walk per particle). Identical trajectory to the scalar
  /// overload for the same seed.
  GsoResult Optimize(const BatchFitnessFn& fitness,
                     const RegionSolutionSpace& space,
                     const Kde* kde = nullptr, CancelToken cancel = {},
                     SearchProgress* progress = nullptr,
                     TraceContext* trace = nullptr) const;

  const GsoParams& params() const { return params_; }

 private:
  GsoParams params_;
};

}  // namespace surf

#endif  // SURF_OPT_GSO_H_
