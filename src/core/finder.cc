#include "core/finder.h"

#include <cassert>
#include <cmath>
#include <limits>

#include "util/stopwatch.h"

namespace surf {

SurfFinder::SurfFinder(StatisticFn estimate, RegionSolutionSpace space,
                       FinderConfig config)
    : estimate_(std::move(estimate)),
      space_(std::move(space)),
      config_(config) {
  assert(estimate_ != nullptr);
}

FindResult SurfFinder::Find(double threshold,
                            ThresholdDirection direction) const {
  Stopwatch timer;

  ObjectiveConfig obj_config;
  obj_config.threshold = threshold;
  obj_config.direction = direction;
  obj_config.c = config_.c;
  obj_config.use_log = config_.use_log_objective;
  const RegionObjective objective(estimate_, batch_estimate_, obj_config);

  GsoParams gso_params = config_.gso;
  if (!config_.use_kde_guidance) gso_params.kde_mass_guidance = false;
  if (!config_.use_kde_seeding) gso_params.kde_seeded_fraction = 0.0;
  const GlowwormSwarmOptimizer gso(gso_params);
  const Kde* kde =
      (config_.use_kde_guidance || config_.use_kde_seeding) ? kde_ : nullptr;

  FindResult result;
  {
    // The batched fitness scores each swarm iteration with a single
    // surrogate PredictBatch call (EvaluateMany) instead of L tree walks.
    TraceSpan span(trace_, "search", TraceStage::kSearch);
    result.gso =
        gso.Optimize(objective.AsBatchFitnessFn(), space_, kde, cancel_,
                     progress_, trace_);
    span.Attr("iterations",
              static_cast<uint64_t>(result.gso.iterations_run));
  }
  TraceSpan extraction_span(trace_, "extraction", TraceStage::kExtraction);

  // Collect valid particles and reduce to distinct regions; each carries
  // the estimate its fitness was computed from.
  std::vector<ScoredRegion> candidates;
  for (size_t i = 0; i < result.gso.particles.size(); ++i) {
    if (!result.gso.valid[i]) continue;
    ScoredRegion cand;
    cand.region = result.gso.particles[i];
    cand.fitness = result.gso.fitness[i];
    cand.statistic = result.gso.statistic[i];
    candidates.push_back(std::move(cand));
  }
  const auto distinct = SelectDistinctRegions(
      std::move(candidates), config_.nms_max_iou, config_.max_regions);

  size_t complying = 0;
  for (const auto& cand : distinct) {
    FoundRegion found;
    found.region = cand.region;
    found.fitness = cand.fitness;
    found.estimate = cand.statistic;
    if (validator_ != nullptr) {
      found.true_value = validator_->Evaluate(found.region);
      found.complies_true =
          SatisfiesThreshold(found.true_value, threshold, direction);
      complying += found.complies_true ? 1 : 0;
    } else {
      found.true_value = std::numeric_limits<double>::quiet_NaN();
    }
    result.regions.push_back(std::move(found));
  }

  result.report.seconds = timer.ElapsedSeconds();
  result.report.iterations = result.gso.iterations_run;
  result.report.objective_evaluations = result.gso.objective_evaluations;
  result.report.particle_valid_fraction = result.gso.ValidFraction();
  result.report.converged = result.gso.converged;
  result.report.cancelled = result.gso.cancelled;
  result.report.true_compliance =
      (validator_ != nullptr && !result.regions.empty())
          ? static_cast<double>(complying) /
                static_cast<double>(result.regions.size())
          : 0.0;
  extraction_span.Attr("regions",
                       static_cast<uint64_t>(result.regions.size()));
  return result;
}

}  // namespace surf
