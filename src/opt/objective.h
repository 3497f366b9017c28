#ifndef SURF_OPT_OBJECTIVE_H_
#define SURF_OPT_OBJECTIVE_H_

#include <functional>
#include <limits>
#include <vector>

#include "geom/region.h"

namespace surf {

/// \brief Which side of the threshold is "interesting" (paper Problem 1:
/// statistics less than or greater than y_R).
enum class ThresholdDirection {
  /// Seek regions with f(x,l) > y_R.
  kAbove,
  /// Seek regions with f(x,l) < y_R.
  kBelow,
};

/// \brief Objective configuration shared by both functional forms.
struct ObjectiveConfig {
  /// The user's cut-off value y_R.
  double threshold = 0.0;
  ThresholdDirection direction = ThresholdDirection::kAbove;
  /// Region-size regularizer c (paper Eq. 2/4; §V uses c = 4).
  double c = 4.0;
  /// true → log objective J (Eq. 4); false → raw ratio objective (Eq. 2).
  /// The log form leaves constraint-violating regions *undefined*, which
  /// is what isolates invalid glowworms (paper §V-F / Fig. 7).
  bool use_log = true;
};

/// \brief A fitness evaluation: the objective value plus a validity flag.
///
/// `valid == false` encodes the paper's "logarithm undefined" semantics —
/// the region violates the threshold constraint (or f itself is undefined
/// because the region is empty). Optimizers must not treat the value as
/// meaningful in that case.
struct FitnessValue {
  double value = 0.0;
  bool valid = false;
  /// The raw statistic the value was computed from, so result extraction
  /// need not ask the statistic source again; NaN where none was computed
  /// (degenerate regions, fitness functions without a statistic).
  double statistic = std::numeric_limits<double>::quiet_NaN();
};

/// Statistic provider: region -> y (possibly NaN where f is undefined).
using StatisticFn = std::function<double(const Region&)>;

/// Batched statistic provider: scores many regions in one call (one
/// surrogate PredictBatch instead of one tree-walk per region).
using BatchStatisticFn =
    std::function<std::vector<double>(const std::vector<Region>&)>;

/// Generic fitness: region -> FitnessValue (used directly by optimizers).
using FitnessFn = std::function<FitnessValue(const Region&)>;

/// Batched fitness: scores a whole population (e.g. a particle swarm) in
/// one call. Element i corresponds to regions[i].
using BatchFitnessFn =
    std::function<std::vector<FitnessValue>(const std::vector<Region>&)>;

/// \brief The SuRF objective over a statistic function (true f or a
/// surrogate f̂).
///
/// Log form (Eq. 4):  J = log(diff) − c · Σ_i log(l_i)
/// Ratio form (Eq. 2): J = diff / (Π_i l_i)^c
/// with diff = y_R − f for kBelow and f − y_R for kAbove (the paper's
/// "maximize −J" branch folded into a sign-free positive difference).
class RegionObjective {
 public:
  RegionObjective(StatisticFn statistic, ObjectiveConfig config);

  /// Same objective with a batched statistic source: EvaluateMany scores
  /// all regions through one `batch_statistic` call. The scalar
  /// `statistic` stays for one-off probes (reports, validation).
  RegionObjective(StatisticFn statistic, BatchStatisticFn batch_statistic,
                  ObjectiveConfig config);

  /// Evaluates the objective; invalid where the constraint is violated,
  /// where f is NaN, or where any side length is non-positive.
  FitnessValue Evaluate(const Region& region) const;

  /// Batched Evaluate: one statistic call for the whole population, then
  /// the (cheap) objective math per region. Falls back to per-region
  /// statistics when no batch source was supplied. Result i matches
  /// Evaluate(regions[i]) exactly, raw statistic included.
  std::vector<FitnessValue> EvaluateMany(
      const std::vector<Region>& regions) const;

  /// Exposes the raw statistic (for validation/report paths).
  double Statistic(const Region& region) const { return statistic_(region); }

  const ObjectiveConfig& config() const { return config_; }

  /// Adapters for optimizer APIs.
  FitnessFn AsFitnessFn() const;
  BatchFitnessFn AsBatchFitnessFn() const;

 private:
  /// Objective math on an already-computed statistic value.
  FitnessValue FromStatistic(const Region& region, double y) const;

  StatisticFn statistic_;
  BatchStatisticFn batch_statistic_;  // may be null
  ObjectiveConfig config_;
};

/// True if the statistic value satisfies the threshold constraint.
bool SatisfiesThreshold(double y, double threshold,
                        ThresholdDirection direction);

/// Wraps a scalar fitness into the batched optimizer signature (the
/// function object is copied, so the adapter owns its callee).
BatchFitnessFn ToBatchFitness(FitnessFn fitness);

}  // namespace surf

#endif  // SURF_OPT_OBJECTIVE_H_
