#include "opt/gso.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace surf {

GsoParams GsoParams::PaperScaled(size_t data_dims) {
  GsoParams params;
  const size_t d = std::max<size_t>(1, data_dims);
  params.num_glowworms = 50 * d;
  // r0 = (1 − (1/2)^{1/L})^{1/d} — the paper's §V-G radius, derived from
  // the expected edge length needed to cover a 1/L fraction of unit
  // volume (Hastie et al. Eq. 2.24). The result is already a fraction of
  // the (unit) domain, so it maps onto initial_radius_frac.
  const double L = static_cast<double>(params.num_glowworms);
  params.initial_radius_frac = std::pow(
      1.0 - std::pow(0.5, 1.0 / L), 1.0 / static_cast<double>(d));
  params.sensor_radius_frac =
      std::min(1.0, 1.5 * params.initial_radius_frac);
  return params;
}

double GsoResult::ValidFraction() const {
  if (valid.empty()) return 0.0;
  size_t n = 0;
  for (bool v : valid) n += v ? 1 : 0;
  return static_cast<double>(n) / static_cast<double>(valid.size());
}

GsoResult GlowwormSwarmOptimizer::Optimize(const FitnessFn& fitness,
                                           const RegionSolutionSpace& space,
                                           const Kde* kde, CancelToken cancel,
                                           SearchProgress* progress,
                                           TraceContext* trace) const {
  assert(fitness != nullptr);
  return Optimize(ToBatchFitness(fitness), space, kde, std::move(cancel),
                  progress, trace);
}

GsoResult GlowwormSwarmOptimizer::Optimize(const BatchFitnessFn& fitness,
                                           const RegionSolutionSpace& space,
                                           const Kde* kde, CancelToken cancel,
                                           SearchProgress* progress,
                                           TraceContext* trace) const {
  assert(fitness != nullptr);
  const size_t L = std::max<size_t>(2, params_.num_glowworms);
  const double diagonal = space.FlatDiagonal();
  const double r0 = params_.initial_radius_frac * diagonal;
  const double rs = std::max(r0, params_.sensor_radius_frac * diagonal);
  const double step = params_.step_frac * diagonal;
  const double conv_tol = params_.convergence_tol_frac * diagonal;

  Rng rng(params_.seed);
  GsoResult result;
  result.particles.reserve(L);
  for (size_t i = 0; i < L; ++i) result.particles.push_back(space.Sample(&rng));

  // KDE-seeded initialization: move a fraction of the particle centers
  // onto (jittered) data locations so the swarm starts with members in
  // populated space. Half-lengths keep their uniform draw.
  if (kde != nullptr && params_.kde_seeded_fraction > 0.0 &&
      kde->dims() == space.dims()) {
    const size_t seeded = std::min(
        L, static_cast<size_t>(params_.kde_seeded_fraction *
                               static_cast<double>(L)));
    for (size_t i = 0; i < seeded; ++i) {
      const std::vector<double> p = kde->DrawPoint(&rng);
      Region& particle = result.particles[i];
      for (size_t j = 0; j < space.dims(); ++j) {
        particle.set_center(j, p[j]);
        // Seeded particles start with near-maximal boxes: a large box
        // anchored on data captures the surrounding mass, giving an
        // immediately-valid vantage point the swarm can shrink from.
        // Smaller-length seeding leaves most high-dimensional seeds too
        // small to catch their neighbourhood's statistic.
        particle.set_half_length(
            j, rng.Uniform(0.9 * space.max_half_length,
                           space.max_half_length));
      }
      space.Clamp(&particle);
    }
  }

  std::vector<double> luciferin(L, params_.initial_luciferin);
  std::vector<double> radius(L, r0);
  result.fitness.assign(L, 0.0);
  result.valid.assign(L, false);
  result.statistic.assign(L, std::numeric_limits<double>::quiet_NaN());

  // Particles whose region changed since their last score. The fitness is
  // a pure function of the region, so every other particle keeps its
  // fitness, validity and statistic; a swarm that moved whole is passed
  // without a copy.
  std::vector<uint8_t> moved(L, 1);
  std::vector<Region> movers;
  std::vector<size_t> mover_idx;
  auto rescore_moved = [&]() {
    movers.clear();
    mover_idx.clear();
    for (size_t i = 0; i < L; ++i) {
      if (!moved[i]) continue;
      moved[i] = 0;
      mover_idx.push_back(i);
    }
    if (mover_idx.empty()) return;
    const bool whole_swarm = mover_idx.size() == L;
    if (!whole_swarm) {
      for (const size_t i : mover_idx) movers.push_back(result.particles[i]);
    }
    const std::vector<FitnessValue> evals =
        fitness(whole_swarm ? result.particles : movers);
    assert(evals.size() == mover_idx.size());
    result.objective_evaluations += mover_idx.size();
    for (size_t k = 0; k < mover_idx.size(); ++k) {
      const size_t i = mover_idx[k];
      result.fitness[i] = evals[k].value;
      result.valid[i] = evals[k].valid;
      result.statistic[i] = evals[k].statistic;
    }
  };

  // Cached KDE region mass per particle, refreshed after each move. Only
  // maintained when Eq. 8 guidance is on — the per-particle RegionMass
  // integral dominates iteration cost otherwise.
  const bool kde_guided = kde != nullptr && params_.kde_mass_guidance;
  std::vector<double> kde_mass(L, 1.0);
  auto refresh_mass = [&](size_t i) {
    if (kde_guided) {
      kde_mass[i] = std::max(1e-12, kde->RegionMass(result.particles[i]));
    }
  };
  for (size_t i = 0; i < L; ++i) refresh_mass(i);

  std::vector<size_t> neighbors;
  std::vector<double> weights;
  size_t quiet_iters = 0;
  if (progress != nullptr) {
    progress->max_iterations.store(params_.max_iterations,
                                   std::memory_order_relaxed);
  }

  // One trace span per block of iterations (not per iteration — a long
  // swarm would flood the trace). Stage kNone: the finder's "search"
  // span already accounts this time in the stage histograms.
  constexpr size_t kItersPerSpan = 10;
  int32_t iters_span = -1;
  size_t iters_span_start = 0;
  auto close_iters_span = [&](size_t next_t) {
    if (iters_span < 0) return;
    trace->AddAttr(iters_span, "iterations",
                   std::to_string(iters_span_start) + ".." +
                       std::to_string(next_t == 0 ? 0 : next_t - 1));
    trace->EndSpan(iters_span);
    iters_span = -1;
  };

  for (size_t t = 0; t < params_.max_iterations; ++t) {
    if (cancel.cancelled()) {
      result.cancelled = true;
      break;
    }
    if (trace != nullptr && t % kItersPerSpan == 0) {
      close_iters_span(t);
      iters_span = trace->BeginSpan("gso_iterations", TraceStage::kNone);
      iters_span_start = t;
    }
    // Phase 1 — luciferin update (Eq. 6). Invalid particles decay only:
    // γ·Ĵ is withheld where the objective is undefined, so glowworms in
    // the white (constraint-violating) areas lose attraction.
    //
    // Deviation from the raw Eq. 6: the reinforcement is the particle's
    // margin over the iteration's *worst valid* fitness rather than Ĵ
    // itself. Raw Ĵ breaks down when the objective is negative (e.g. the
    // size-rewarding c < 0 regime): invalid particles, which only decay
    // from their initial luciferin, would then outshine valid ones and
    // attract the swarm into undefined space. The shift is scale-free and
    // preserves the within-iteration ordering Eq. 7 depends on.
    double fitness_sum = 0.0;
    size_t valid_count = 0;
    double worst_valid = std::numeric_limits<double>::infinity();
    rescore_moved();
    for (size_t i = 0; i < L; ++i) {
      if (result.valid[i]) {
        worst_valid = std::min(worst_valid, result.fitness[i]);
        fitness_sum += result.fitness[i];
        ++valid_count;
      }
    }
    for (size_t i = 0; i < L; ++i) {
      luciferin[i] = (1.0 - params_.luciferin_decay) * luciferin[i];
      if (result.valid[i]) {
        // Margin over the worst valid particle, plus a small validity
        // bonus so even the dimmest valid particle eventually outshines
        // the decaying invalid ones.
        luciferin[i] += params_.luciferin_gain *
                        (result.fitness[i] - worst_valid + 0.1);
      }
      luciferin[i] = std::max(0.0, luciferin[i]);
    }
    result.history.mean_fitness.push_back(
        valid_count > 0 ? fitness_sum / static_cast<double>(valid_count)
                        : 0.0);
    result.history.valid_fraction.push_back(
        static_cast<double>(valid_count) / static_cast<double>(L));

    // Phase 2 — probabilistic movement toward brighter neighbours.
    double movement_sum = 0.0;
    std::vector<Region> next = result.particles;
    for (size_t i = 0; i < L; ++i) {
      neighbors.clear();
      weights.clear();
      for (size_t j = 0; j < L; ++j) {
        if (j == i || luciferin[j] <= luciferin[i]) continue;
        const double dist =
            result.particles[i].FlatDistance(result.particles[j]);
        if (dist <= radius[i]) {
          neighbors.push_back(j);
          double w = luciferin[j] - luciferin[i];  // Eq. 7 numerator
          if (kde_guided) w *= kde_mass[j];  // Eq. 8 re-weighting
          weights.push_back(w);
        }
      }

      // Adaptive neighborhood radius.
      const double nd = static_cast<double>(params_.desired_neighbors) -
                        static_cast<double>(neighbors.size());
      radius[i] = std::clamp(radius[i] + params_.radius_beta * nd * r0,
                             0.05 * r0, rs);

      if (neighbors.empty()) {
        // Isolated particle: stays put (paper behaviour), unless the
        // exploration extension re-seeds stuck invalid particles.
        if (!result.valid[i] && params_.exploration_restart_prob > 0.0 &&
            rng.Bernoulli(params_.exploration_restart_prob)) {
          next[i] = space.Sample(&rng);
          movement_sum += result.particles[i].FlatDistance(next[i]);
        }
        continue;
      }
      const size_t pick = rng.Categorical(weights);
      if (pick >= neighbors.size()) continue;  // all weights zero
      const Region& target = result.particles[neighbors[pick]];

      // Move a fixed step along the flat-space direction to the target.
      const Region& self = result.particles[i];
      const double dist = self.FlatDistance(target);
      if (dist <= 1e-12) continue;
      const double scale = std::min(1.0, step / dist);
      Region moved = self;
      for (size_t k = 0; k < space.dims(); ++k) {
        moved.set_center(
            k, self.center(k) + scale * (target.center(k) - self.center(k)));
        moved.set_half_length(
            k, self.half_length(k) +
                   scale * (target.half_length(k) - self.half_length(k)));
      }
      space.Clamp(&moved);
      movement_sum += self.FlatDistance(moved);
      next[i] = std::move(moved);
    }
    for (size_t i = 0; i < L; ++i) {
      if (!(next[i] == result.particles[i])) {
        result.particles[i] = std::move(next[i]);
        refresh_mass(i);
        moved[i] = 1;
      }
    }

    const double mean_movement = movement_sum / static_cast<double>(L);
    result.history.mean_movement.push_back(mean_movement);
    result.iterations_run = t + 1;
    if (progress != nullptr) {
      progress->iterations.store(result.iterations_run,
                                 std::memory_order_relaxed);
      progress->valid_particles.store(valid_count, std::memory_order_relaxed);
    }

    if (params_.convergence_tol_frac > 0.0 && t > 0) {
      if (mean_movement < conv_tol) {
        if (++quiet_iters >= params_.convergence_window) {
          result.converged = true;
          break;
        }
      } else {
        quiet_iters = 0;
      }
    }
  }

  close_iters_span(result.iterations_run);

  // Final refresh so reported values match final positions.
  rescore_moved();
  result.luciferin = std::move(luciferin);
  return result;
}

}  // namespace surf
