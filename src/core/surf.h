#ifndef SURF_CORE_SURF_H_
#define SURF_CORE_SURF_H_

/// \file
/// \brief The mining pipeline (TrainSurrogate, RunSearch, request checks)
/// and the Surf facade over one dataset + statistic.

#include <limits>
#include <memory>

#include "core/finder.h"
#include "core/surrogate.h"
#include "core/topk.h"
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

/// Sample cap of the Eq. 8 KDE data prior, the same in every front-end.
inline constexpr size_t kKdeMaxSamples = 2000;

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
  /// Guide the search with the KDE data prior (Eq. 8; always fitted).
  bool fit_kde = true;
  /// Validate reported regions against the true f (Fig. 5's compliance
  /// metric). Costs one back-end evaluation per reported region.
  bool validate_results = true;
};

/// \brief What training produces: the surrogate plus its companions. The
/// facade holds one; the serving layer caches one per key.
struct TrainedSurrogate {
  /// The freshly trained model.
  Surrogate surrogate;
  /// KDE data prior (null when not fitted).
  std::shared_ptr<const Kde> kde;
  /// Exact evaluator for validation (null when not built).
  std::shared_ptr<const RegionEvaluator> evaluator;
  /// CV RMSE to declare in the provenance (NaN = not computed).
  double cv_rmse = std::numeric_limits<double>::quiet_NaN();
};

/// \brief One search over a trained surrogate, as RunSearch takes it: the
/// question plus the optional, non-owning companions it runs with.
struct SearchSpec {
  /// Finder configuration of a threshold query (required). Its
  /// `auto_scale_gso` gates the §V-G swarm floor of both query kinds.
  const FinderConfig* finder = nullptr;
  /// Configuration of a top-k query; null asks the threshold query.
  const TopKConfig* topk = nullptr;
  /// The cut-off value y_R of a threshold query.
  double threshold = 0.0;
  /// Which side of the threshold is interesting.
  ThresholdDirection direction = ThresholdDirection::kAbove;
  /// KDE data prior for Eq. 8 guidance and seeding; null runs without.
  const Kde* kde = nullptr;
  /// Exact evaluator that validates a threshold query's regions; may be null.
  const RegionEvaluator* validator = nullptr;
  /// Cancellation token polled once per GSO iteration.
  CancelToken cancel;
  /// Live progress observer, updated once per GSO iteration; may be null.
  SearchProgress* progress = nullptr;
  /// Receives the search and extraction spans; may be null.
  TraceContext* trace = nullptr;
};

/// \brief The SuRF pipeline over one dataset + statistic: TrainSurrogate
/// (workload, surrogate, KDE prior) once, then RunSearch per query — the
/// two functions the serving layer runs too.
///
/// The facade owns the back-end evaluator, the trained surrogate and the
/// KDE. Typical use:
///
/// \code
///   auto surf = Surf::Build(&dataset, Statistic::Count({0, 1}), options);
///   auto result = surf->FindRegions(1000.0, ThresholdDirection::kAbove);
///   for (const auto& r : result->regions) { ... }
/// \endcode
class Surf {
 public:
  /// Builds the pipeline: labels `options.workload.num_queries` random
  /// regions with the true statistic, trains the surrogate, and fits the
  /// KDE prior. `data` must outlive the returned object.
  static StatusOr<Surf> Build(const Dataset* data, Statistic statistic,
                              const SurfOptions& options);

  /// Mines regions whose statistic exceeds (or undercuts) `threshold`;
  /// InvalidArgument when `threshold` is not finite.
  StatusOr<FindResult> FindRegions(double threshold,
                                   ThresholdDirection direction) const;

  /// Empirical CDF of the statistic over `n` random regions (Eq. 5's F_Y;
  /// used to pick quantile thresholds like the crimes experiment's Q3).
  Ecdf SampleStatisticEcdf(size_t n, uint64_t seed) const;

  /// The trained surrogate f̂.
  const Surrogate& surrogate() const { return trained_.surrogate; }
  /// The exact back-end evaluator (true f).
  const RegionEvaluator& evaluator() const { return *trained_.evaluator; }
  /// The solution space the surrogate was trained over (the finder's).
  const RegionSolutionSpace& space() const {
    return trained_.surrogate.space();
  }

 private:
  Surf() = default;

  SurfOptions options_;
  TrainedSurrogate trained_;
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
/// bounded subsample (deterministic for a given seed). TrainSurrogate and
/// the CLI's saved-model path fit it capped at kKdeMaxSamples.
/// A fired `cancel` token short-circuits to an empty (0-dim) KDE; callers
/// that care check the token afterwards.
Kde FitDataKde(const Dataset& data, const std::vector<size_t>& region_cols,
               size_t max_samples, uint64_t seed, CancelToken cancel = {});

/// The training half of the pipeline, shared by Surf::Build and the
/// serving layer: labels `params.num_queries` random regions over the
/// domain of `data` with `evaluator` (the true f), trains the surrogate
/// on them, and fits the KDE data prior (seed `params.seed + 1`) — the
/// result owns `evaluator`. `cancel` threads through labelling, boosting
/// and the KDE fit (a fired token returns Cancelled); a non-null `trace`
/// records the workload_gen, training and kde_fit spans. A non-null
/// `workload` receives the labelled workload.
StatusOr<TrainedSurrogate> TrainSurrogate(
    std::shared_ptr<const RegionEvaluator> evaluator, const Dataset& data,
    const Statistic& statistic, const WorkloadParams& params,
    const SurrogateTrainOptions& options, CancelToken cancel = {},
    TraceContext* trace = nullptr, RegionWorkload* workload = nullptr);

/// The query runner, shared by Surf::FindRegions, the serving layer and
/// the CLI: floors the swarm at the paper's §V-G size (L = 50·d) when
/// `spec.finder->auto_scale_gso` is set, then mines `surrogate` with a
/// SurfFinder into `*result`, or with a TopKFinder into `*topk` when
/// `spec.topk` is set. Returns whether `spec.cancel` stopped the search.
bool RunSearch(const Surrogate& surrogate, const SearchSpec& spec,
               FindResult* result, TopKResult* topk);

/// Checks that `statistic` names at least one region column and that its
/// region and value columns exist in `data` (InvalidArgument otherwise).
Status CheckStatisticColumns(const Dataset& data, const Statistic& statistic);

/// Rejects a threshold that is NaN or infinite (InvalidArgument).
Status CheckThreshold(double threshold);

/// Rejects a top-k query for zero regions (InvalidArgument).
Status CheckTopK(const TopKConfig& topk);

/// Rejects a training workload of zero queries (InvalidArgument).
Status CheckWorkload(const WorkloadParams& workload);

}  // namespace surf

#endif  // SURF_CORE_SURF_H_
