#ifndef SURF_CORE_SURF_H_
#define SURF_CORE_SURF_H_

/// \file
/// \brief The Surf facade: the end-to-end pipeline over one dataset + statistic.

#include <memory>

#include "core/finder.h"
#include "core/surrogate.h"
#include "core/workload.h"
#include "data/dataset.h"
#include "stats/ecdf.h"
#include "stats/evaluator.h"

namespace surf {

/// \brief Which exact back-end serves true-statistic evaluations (workload
/// labelling and result validation). Every back-end answers the
/// decomposable statistics exactly; medians over regions of more than
/// 4096 rows come from a quantile sketch and may differ between
/// back-ends within its rank bound (see RegionEvaluator).
enum class BackendKind {
  /// Full scan per query — O(N·d) (the paper's cost model, and the
  /// reference every back-end agreement test compares against).
  kScan,
  /// Uniform grid with pre-aggregated cells.
  kGridIndex,
};

/// \brief End-to-end configuration of the SuRF pipeline.
struct SurfOptions {
  /// Training-workload recipe (query count, length range, seed).
  WorkloadParams workload;
  /// Surrogate training recipe (GBRT parameters, hypertune, holdout).
  SurrogateTrainOptions surrogate;
  /// Mining-engine knobs (GSO, objective, extraction).
  FinderConfig finder;
  /// Which exact back-end labels the workload and validates results.
  BackendKind backend = BackendKind::kGridIndex;
  /// Row-range shards for the exact back-end. 1 (the default, and the
  /// v1 API's implied value) keeps the single `backend` evaluator;
  /// >= 2 switches to the shard-parallel scan backend partitioned on
  /// the first region column (see MakeEvaluator).
  size_t shards = 1;
  /// Fit the KDE data prior for Eq. 8 guidance.
  bool fit_kde = true;
  /// Sample cap for the KDE fit.
  size_t kde_max_samples = 2000;
  /// Validate reported regions against the true f (Fig. 5's compliance
  /// metric). Costs one back-end evaluation per reported region.
  bool validate_results = true;
};

/// \brief The complete SuRF pipeline over one dataset + statistic:
/// workload generation → surrogate training → (optional) KDE prior →
/// GSO-driven region mining.
///
/// The facade owns the back-end evaluator, the trained surrogate, the KDE,
/// and the finder. Typical use:
///
/// \code
///   auto surf = Surf::Build(&dataset, Statistic::Count({0, 1}), options);
///   auto result = surf->FindRegions(1000.0, ThresholdDirection::kAbove);
///   for (const auto& r : result.regions) { ... }
/// \endcode
class Surf {
 public:
  /// Builds the pipeline: labels `options.workload.num_queries` random
  /// regions with the true statistic, trains the surrogate, and fits the
  /// KDE prior. `data` must outlive the returned object.
  static StatusOr<Surf> Build(const Dataset* data, Statistic statistic,
                              const SurfOptions& options,
                              ThreadPool* pool = nullptr);

  /// Mines regions whose statistic exceeds (or undercuts) `threshold`.
  FindResult FindRegions(double threshold,
                         ThresholdDirection direction) const;

  /// Empirical CDF of the statistic over `n` random regions (Eq. 5's F_Y;
  /// used to pick quantile thresholds like the crimes experiment's Q3).
  Ecdf SampleStatisticEcdf(size_t n, uint64_t seed) const;

  /// The trained surrogate f̂.
  const Surrogate& surrogate() const { return surrogate_; }
  /// The exact back-end evaluator (true f).
  const RegionEvaluator& evaluator() const { return *evaluator_; }
  /// The solution space the finder roams.
  const RegionSolutionSpace& space() const { return space_; }
  /// The configured mining engine.
  const SurfFinder& finder() const { return *finder_; }
  /// The options the pipeline was built with.
  const SurfOptions& options() const { return options_; }

 private:
  Surf() = default;

  const Dataset* data_ = nullptr;
  SurfOptions options_;
  std::unique_ptr<RegionEvaluator> evaluator_;
  Surrogate surrogate_;
  std::unique_ptr<Kde> kde_;
  RegionSolutionSpace space_;
  std::unique_ptr<SurfFinder> finder_;
};

/// Constructs the requested exact back-end over a dataset. `shards` <= 1
/// builds the `kind` evaluator (the scan keeps a raw pointer into `data`
/// — the dataset must outlive it; the grid copies what it needs); >= 2
/// builds a ShardedScanEvaluator over `shards` row-range shards
/// range-partitioned on the statistic's first region column (`kind` then
/// only describes what a single-shard request would have used — the
/// sharded scan is its own exact backend, and it owns materialized shard
/// chunks instead of referencing `data`).
std::unique_ptr<RegionEvaluator> MakeEvaluator(BackendKind kind,
                                               const Dataset* data,
                                               const Statistic& statistic,
                                               size_t shards = 1);

/// Fits the Eq. 8 KDE data prior over a dataset's region columns on a
/// bounded subsample (deterministic for a given seed). Shared by
/// Surf::Build, the serving layer, and the CLI's saved-model path.
/// A fired `cancel` token short-circuits to an empty (0-dim) KDE; callers
/// that care check the token afterwards.
Kde FitDataKde(const Dataset& data, const std::vector<size_t>& region_cols,
               size_t max_samples, uint64_t seed, CancelToken cancel = {});

}  // namespace surf

#endif  // SURF_CORE_SURF_H_
