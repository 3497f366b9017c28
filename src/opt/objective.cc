#include "opt/objective.h"

#include <cassert>
#include <cmath>

namespace surf {

bool SatisfiesThreshold(double y, double threshold,
                        ThresholdDirection direction) {
  if (std::isnan(y)) return false;
  return direction == ThresholdDirection::kAbove ? y > threshold
                                                 : y < threshold;
}

RegionObjective::RegionObjective(StatisticFn statistic,
                                 ObjectiveConfig config)
    : statistic_(std::move(statistic)), config_(config) {
  assert(statistic_ != nullptr);
}

RegionObjective::RegionObjective(StatisticFn statistic,
                                 BatchStatisticFn batch_statistic,
                                 ObjectiveConfig config)
    : statistic_(std::move(statistic)),
      batch_statistic_(std::move(batch_statistic)),
      config_(config) {
  assert(statistic_ != nullptr);
}

FitnessValue RegionObjective::FromStatistic(const Region& region,
                                            double y) const {
  FitnessValue out;
  out.statistic = y;
  if (std::isnan(y) || !std::isfinite(y)) return out;

  const double diff = config_.direction == ThresholdDirection::kBelow
                          ? config_.threshold - y
                          : y - config_.threshold;

  if (config_.use_log) {
    // Eq. 4: undefined (invalid) outside the constraint.
    if (diff <= 0.0) return out;
    double size_penalty = 0.0;
    for (size_t i = 0; i < region.dims(); ++i) {
      const double l = region.half_length(i);
      if (l <= 0.0) return out;
      size_penalty += std::log(l);
    }
    out.value = std::log(diff) - config_.c * size_penalty;
    out.valid = true;
    return out;
  }

  // Eq. 2: defined everywhere (Fig. 7 bottom row shows the negative
  // plateau), but still undefined for degenerate sizes.
  double volume_pow = 1.0;
  for (size_t i = 0; i < region.dims(); ++i) {
    const double l = region.half_length(i);
    if (l <= 0.0) return out;
    volume_pow *= std::pow(l, config_.c);
  }
  out.value = diff / volume_pow;
  out.valid = true;
  return out;
}

FitnessValue RegionObjective::Evaluate(const Region& region) const {
  if (region.Degenerate()) return FitnessValue{};
  return FromStatistic(region, statistic_(region));
}

std::vector<FitnessValue> RegionObjective::EvaluateMany(
    const std::vector<Region>& regions) const {
  std::vector<FitnessValue> out(regions.size());
  if (regions.empty()) return out;
  if (batch_statistic_ == nullptr) {
    for (size_t i = 0; i < regions.size(); ++i) out[i] = Evaluate(regions[i]);
    return out;
  }
  // Degenerate regions never reach the statistic source (same
  // short-circuit as Evaluate); the common all-valid case goes through
  // without any gather/scatter.
  bool any_degenerate = false;
  for (const Region& region : regions) {
    if (region.Degenerate()) {
      any_degenerate = true;
      break;
    }
  }
  if (!any_degenerate) {
    const std::vector<double> stats = batch_statistic_(regions);
    assert(stats.size() == regions.size());
    for (size_t i = 0; i < regions.size(); ++i) {
      out[i] = FromStatistic(regions[i], stats[i]);
    }
    return out;
  }
  std::vector<Region> live;
  std::vector<size_t> live_idx;
  live.reserve(regions.size());
  live_idx.reserve(regions.size());
  for (size_t i = 0; i < regions.size(); ++i) {
    if (regions[i].Degenerate()) continue;
    live.push_back(regions[i]);
    live_idx.push_back(i);
  }
  const std::vector<double> stats = batch_statistic_(live);
  assert(stats.size() == live.size());
  for (size_t k = 0; k < live.size(); ++k) {
    out[live_idx[k]] = FromStatistic(regions[live_idx[k]], stats[k]);
  }
  return out;
}

FitnessFn RegionObjective::AsFitnessFn() const {
  return [this](const Region& region) { return Evaluate(region); };
}

BatchFitnessFn RegionObjective::AsBatchFitnessFn() const {
  return [this](const std::vector<Region>& regions) {
    return EvaluateMany(regions);
  };
}

BatchFitnessFn ToBatchFitness(FitnessFn fitness) {
  assert(fitness != nullptr);
  return [fitness = std::move(fitness)](const std::vector<Region>& regions) {
    std::vector<FitnessValue> out(regions.size());
    for (size_t i = 0; i < regions.size(); ++i) out[i] = fitness(regions[i]);
    return out;
  };
}

}  // namespace surf
