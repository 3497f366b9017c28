#include "core/surf.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "stats/grid_index.h"
#include "stats/sharded_evaluator.h"

namespace surf {

std::unique_ptr<RegionEvaluator> MakeEvaluator(BackendKind kind,
                                               const Dataset* data,
                                               const Statistic& statistic,
                                               size_t shards) {
  if (shards <= 1) {
    switch (kind) {
      case BackendKind::kScan:
        return std::make_unique<ScanEvaluator>(data, statistic);
      case BackendKind::kGridIndex:
        return std::make_unique<GridIndexEvaluator>(data, statistic);
    }
    return nullptr;
  }
  ShardingOptions options;
  options.num_shards = shards;
  // Range-partition on the first box dimension so shards become
  // disjoint slabs most queries prune or answer from summaries; only
  // the columns the statistic touches are materialized.
  options.order_by = static_cast<int>(statistic.region_cols.front());
  options.columns = statistic.region_cols;
  if (statistic.needs_value_column()) {
    options.columns.push_back(static_cast<size_t>(statistic.value_col));
  }
  return std::make_unique<ShardedScanEvaluator>(
      ShardedDataset::Partition(*data, options), statistic);
}

Kde FitDataKde(const Dataset& data, const std::vector<size_t>& region_cols,
               size_t max_samples, uint64_t seed, CancelToken cancel) {
  if (cancel.cancelled()) return Kde();
  // The same draws as Kde::FitSampled over every row: a dataset within
  // the cap is fitted whole in row order; a larger one shuffles the row
  // indices and keeps the first `max_samples`. Only the kept rows are
  // gathered from the columns.
  std::vector<size_t> rows(data.num_rows());
  std::iota(rows.begin(), rows.end(), size_t{0});
  if (rows.size() > max_samples) {
    Rng rng(seed);
    rng.Shuffle(&rows);
    rows.resize(max_samples);
  }
  if (cancel.cancelled()) return Kde();
  std::vector<std::vector<double>> points(
      rows.size(), std::vector<double>(region_cols.size()));
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = 0; j < region_cols.size(); ++j) {
      points[i][j] = data.Get(rows[i], region_cols[j]);
    }
  }
  return Kde::Fit(points);
}

StatusOr<TrainedSurrogate> TrainSurrogate(
    std::shared_ptr<const RegionEvaluator> evaluator, const Dataset& data,
    const Statistic& statistic, const WorkloadParams& params,
    const SurrogateTrainOptions& options, CancelToken cancel,
    TraceContext* trace, RegionWorkload* workload) {
  const Bounds domain = data.ComputeBounds(statistic.region_cols);
  RegionWorkload labelled =
      GenerateWorkload(*evaluator, domain, params, cancel, trace);
  if (cancel.cancelled()) return cancel.ToStatus();
  if (labelled.size() == 0) {
    return Status::FailedPrecondition(
        "workload generation produced no defined statistics");
  }

  // No shared-pool parallelism here: the serving layer may call this on
  // a pool worker, and ThreadPool::Wait drains the *whole* pool — nesting
  // would deadlock. GBRT-internal threading (params.num_threads) is
  // independent of any pool. Surrogate::Train records its own kTraining
  // stage span, so none is added here (two would double-count it).
  auto surrogate = Surrogate::Train(labelled, options, nullptr, cancel, trace);
  if (!surrogate.ok()) return surrogate.status();

  TrainedSurrogate trained;
  trained.surrogate = std::move(surrogate).value();
  trained.evaluator = std::move(evaluator);
  {
    // The KDE prior is always fitted (cheap — a bounded subsample) so any
    // later search can opt into Eq. 8 guidance.
    TraceSpan span(trace, "kde_fit", TraceStage::kTraining);
    trained.kde = std::make_shared<const Kde>(FitDataKde(
        data, statistic.region_cols, kKdeMaxSamples, params.seed + 1, cancel));
  }
  if (cancel.cancelled()) return cancel.ToStatus();
  if (workload != nullptr) *workload = std::move(labelled);
  return trained;
}

bool RunSearch(const Surrogate& surrogate, const SearchSpec& spec,
               FindResult* result, TopKResult* topk) {
  // §V-G swarm sizing (L = 50·d) as a lower bound on the caller's
  // choice; radius fractions stay at their space-relative defaults.
  const size_t min_swarm =
      spec.finder->auto_scale_gso
          ? GsoParams::PaperScaled(surrogate.dims()).num_glowworms
          : 0;
  // The finder roams the space the surrogate was trained on: boxes larger
  // than any training example would let the optimizer exploit
  // unconstrained model behaviour. Narrow valid basins are found by
  // KDE-seeded initialization instead (§III-B guidance at t = 0).
  if (spec.topk != nullptr) {
    TopKConfig config = *spec.topk;
    config.gso.num_glowworms = std::max(config.gso.num_glowworms, min_swarm);
    TopKFinder finder(surrogate.AsStatisticFn(), surrogate.space(), config);
    finder.SetBatchEstimate(surrogate.AsBatchStatisticFn());
    finder.SetKde(spec.kde);
    finder.SetCancelToken(spec.cancel);
    finder.SetProgress(spec.progress);
    finder.SetTrace(spec.trace);
    *topk = finder.Find();
    return topk->cancelled;
  }
  FinderConfig config = *spec.finder;
  config.gso.num_glowworms = std::max(config.gso.num_glowworms, min_swarm);
  SurfFinder finder(surrogate.AsStatisticFn(), surrogate.space(), config);
  finder.SetBatchEstimate(surrogate.AsBatchStatisticFn());
  finder.SetKde(spec.kde);
  finder.SetValidator(spec.validator);
  finder.SetCancelToken(spec.cancel);
  finder.SetProgress(spec.progress);
  finder.SetTrace(spec.trace);
  *result = finder.Find(spec.threshold, spec.direction);
  return result->report.cancelled;
}

Status CheckStatisticColumns(const Dataset& data,
                             const Statistic& statistic) {
  if (statistic.region_cols.empty()) {
    return Status::InvalidArgument("statistic has no region columns");
  }
  for (size_t c : statistic.region_cols) {
    if (c >= data.num_cols()) {
      return Status::InvalidArgument("region column out of range");
    }
  }
  if (statistic.needs_value_column() &&
      (statistic.value_col < 0 ||
       static_cast<size_t>(statistic.value_col) >= data.num_cols())) {
    return Status::InvalidArgument("value column out of range");
  }
  return Status::OK();
}

Status CheckThreshold(double threshold) {
  return std::isfinite(threshold)
             ? Status::OK()
             : Status::InvalidArgument("threshold must be finite");
}

Status CheckTopK(const TopKConfig& topk) {
  return topk.k >= 1 ? Status::OK()
                     : Status::InvalidArgument("top-k queries need k >= 1");
}

Status CheckWorkload(const WorkloadParams& workload) {
  return workload.num_queries >= 1
             ? Status::OK()
             : Status::InvalidArgument(
                   "training.workload.num_queries must be >= 1");
}

Status CheckShards(size_t shards) {
  return shards <= ShardingOptions::kMaxShards
             ? Status::OK()
             : Status::InvalidArgument(
                   "execution.shards must be <= " +
                   std::to_string(ShardingOptions::kMaxShards));
}

StatusOr<Surf> Surf::Build(const Dataset* data, Statistic statistic,
                           const SurfOptions& options) {
  if (data == nullptr || data->num_rows() == 0) {
    return Status::InvalidArgument("null or empty dataset");
  }
  SURF_RETURN_IF_ERROR(CheckStatisticColumns(*data, statistic));
  SURF_RETURN_IF_ERROR(CheckWorkload(options.workload));
  SURF_RETURN_IF_ERROR(CheckShards(options.shards));
  auto trained = TrainSurrogate(
      MakeEvaluator(options.backend, data, statistic, options.shards), *data,
      statistic, options.workload, options.surrogate);
  if (!trained.ok()) return trained.status();
  Surf surf;
  surf.options_ = options;
  surf.trained_ = std::move(trained).value();
  return surf;
}

StatusOr<FindResult> Surf::FindRegions(double threshold,
                                       ThresholdDirection direction) const {
  SURF_RETURN_IF_ERROR(CheckThreshold(threshold));
  SearchSpec spec;
  spec.finder = &options_.finder;
  spec.threshold = threshold;
  spec.direction = direction;
  if (options_.fit_kde) spec.kde = trained_.kde.get();
  if (options_.validate_results) spec.validator = trained_.evaluator.get();
  FindResult result;
  RunSearch(trained_.surrogate, spec, &result, nullptr);
  return result;
}

Ecdf Surf::SampleStatisticEcdf(size_t n, uint64_t seed) const {
  Rng rng(seed);
  std::vector<double> samples;
  samples.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    samples.push_back(evaluator().Evaluate(space().Sample(&rng)));
  }
  return Ecdf(std::move(samples));
}

}  // namespace surf
