#include "core/surf.h"

#include <algorithm>
#include <cassert>
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

StatusOr<Surf> Surf::Build(const Dataset* data, Statistic statistic,
                           const SurfOptions& options, ThreadPool* pool) {
  if (data == nullptr || data->num_rows() == 0) {
    return Status::InvalidArgument("null or empty dataset");
  }
  if (statistic.region_cols.empty()) {
    return Status::InvalidArgument("statistic has no region columns");
  }
  for (size_t c : statistic.region_cols) {
    if (c >= data->num_cols()) {
      return Status::InvalidArgument("region column out of range");
    }
  }
  if (statistic.needs_value_column() &&
      (statistic.value_col < 0 ||
       static_cast<size_t>(statistic.value_col) >= data->num_cols())) {
    return Status::InvalidArgument("value column out of range");
  }

  Surf surf;
  surf.data_ = data;
  surf.options_ = options;
  surf.evaluator_ =
      MakeEvaluator(options.backend, data, statistic, options.shards);

  const Bounds domain = data->ComputeBounds(statistic.region_cols);
  const RegionWorkload workload =
      GenerateWorkload(*surf.evaluator_, domain, options.workload);
  if (workload.size() == 0) {
    return Status::FailedPrecondition(
        "workload generation produced no defined statistics");
  }

  auto surrogate = Surrogate::Train(workload, options.surrogate, pool);
  if (!surrogate.ok()) return surrogate.status();
  surf.surrogate_ = std::move(surrogate).value();

  // The finder roams the same length range the surrogate was trained on;
  // extrapolating to larger boxes than any training example would let the
  // optimizer exploit unconstrained model behaviour. Discovery of narrow
  // valid basins is instead handled by KDE-seeded initialization (§III-B
  // guidance applied at t = 0, see GlowwormSwarmOptimizer::Optimize).
  surf.space_ = workload.space;

  if (options.fit_kde) {
    surf.kde_ = std::make_unique<Kde>(
        FitDataKde(*data, statistic.region_cols, options.kde_max_samples,
                   options.workload.seed + 1));
  }

  FinderConfig finder_config = options.finder;
  if (finder_config.auto_scale_gso) {
    // §V-G swarm sizing (L = 50·d) as a lower bound on the caller's
    // choice; radius fractions stay at their space-relative defaults.
    GsoParams& gso = finder_config.gso;
    gso.num_glowworms =
        std::max(gso.num_glowworms,
                 GsoParams::PaperScaled(statistic.region_cols.size())
                     .num_glowworms);
  }
  surf.finder_ = std::make_unique<SurfFinder>(
      surf.surrogate_.AsStatisticFn(), surf.space_, finder_config);
  surf.finder_->SetBatchEstimate(surf.surrogate_.AsBatchStatisticFn());
  if (surf.kde_ != nullptr) surf.finder_->SetKde(surf.kde_.get());
  if (options.validate_results) {
    surf.finder_->SetValidator(surf.evaluator_.get());
  }
  return surf;
}

FindResult Surf::FindRegions(double threshold,
                             ThresholdDirection direction) const {
  assert(finder_ != nullptr);
  return finder_->Find(threshold, direction);
}

Ecdf Surf::SampleStatisticEcdf(size_t n, uint64_t seed) const {
  Rng rng(seed);
  std::vector<double> samples;
  samples.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    samples.push_back(evaluator_->Evaluate(space_.Sample(&rng)));
  }
  return Ecdf(std::move(samples));
}

}  // namespace surf
