#include "core/topk.h"

#include <cassert>
#include <cmath>

namespace surf {

namespace {

/// Threshold-free fitness on an already-computed statistic: maximize the
/// statistic itself, size-penalized exactly like Eq. 4 (log form keeps
/// the scale-free regularization).
FitnessValue TopKFitness(const Region& region, double y, double c) {
  FitnessValue out;
  out.statistic = y;
  if (std::isnan(y) || !std::isfinite(y) || y <= 0.0) return out;
  double size_penalty = 0.0;
  for (size_t i = 0; i < region.dims(); ++i) {
    const double l = region.half_length(i);
    if (l <= 0.0) return out;
    size_penalty += std::log(l);
  }
  out.value = std::log(y) - c * size_penalty;
  out.valid = true;
  return out;
}

}  // namespace

TopKFinder::TopKFinder(StatisticFn estimate, RegionSolutionSpace space,
                       TopKConfig config)
    : estimate_(std::move(estimate)),
      space_(std::move(space)),
      config_(config) {
  assert(estimate_ != nullptr);
  assert(config_.k > 0);
}

TopKResult TopKFinder::Find() const {
  const double c = config_.c;
  const GlowwormSwarmOptimizer gso(config_.gso);

  GsoResult swarm;
  {
    TraceSpan search_span(trace_, "search", TraceStage::kSearch);
    if (batch_estimate_ != nullptr) {
      // One batched model call scores the whole swarm per iteration.
      const BatchStatisticFn batch_estimate = batch_estimate_;
      const BatchFitnessFn fitness =
          [&batch_estimate, c](const std::vector<Region>& regions) {
            std::vector<FitnessValue> out(regions.size());
            if (regions.empty()) return out;
            // Degenerate regions never reach the model (mirrors the
            // scalar path's short-circuit).
            std::vector<Region> live;
            std::vector<size_t> live_idx;
            live.reserve(regions.size());
            for (size_t i = 0; i < regions.size(); ++i) {
              if (regions[i].Degenerate()) continue;
              live.push_back(regions[i]);
              live_idx.push_back(i);
            }
            const std::vector<double> ys = batch_estimate(live);
            for (size_t k = 0; k < live.size(); ++k) {
              out[live_idx[k]] = TopKFitness(live[k], ys[k], c);
            }
            return out;
          };
      swarm = gso.Optimize(fitness, space_, kde_, cancel_, progress_, trace_);
    } else {
      const StatisticFn estimate = estimate_;
      const FitnessFn fitness = [&estimate, c](const Region& region) {
        if (region.Degenerate()) return FitnessValue{};
        return TopKFitness(region, estimate(region), c);
      };
      swarm = gso.Optimize(fitness, space_, kde_, cancel_, progress_, trace_);
    }
    search_span.Attr("iterations",
                     static_cast<uint64_t>(swarm.iterations_run));
  }
  TraceSpan extraction_span(trace_, "extraction", TraceStage::kExtraction);

  // Valid particles carry the statistic their fitness was computed from.
  std::vector<ScoredRegion> candidates;
  for (size_t i = 0; i < swarm.particles.size(); ++i) {
    if (!swarm.valid[i]) continue;
    ScoredRegion cand;
    cand.region = swarm.particles[i];
    cand.fitness = swarm.fitness[i];
    cand.statistic = swarm.statistic[i];
    candidates.push_back(std::move(cand));
  }

  TopKResult result;
  result.regions = SelectDistinctRegions(std::move(candidates),
                                         config_.nms_max_iou, config_.k);
  result.iterations = swarm.iterations_run;
  result.objective_evaluations = swarm.objective_evaluations;
  result.cancelled = swarm.cancelled;
  extraction_span.Attr("regions",
                       static_cast<uint64_t>(result.regions.size()));
  return result;
}

}  // namespace surf
