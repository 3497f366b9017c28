#ifndef SURF_BENCH_BENCH_COMMON_H_
#define SURF_BENCH_BENCH_COMMON_H_

// Shared harness pieces for the paper-reproduction benches: the four
// comparison methods (SuRF / Naive / PRIM / f+GlowWorm) wired exactly as
// §V-A describes, plus the IoU scoring protocol of §V-B.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/surf.h"
#include "data/synthetic.h"
#include "opt/naive_search.h"
#include "prim/prim.h"
#include "util/stopwatch.h"

namespace surf {
namespace bench {

/// Output of one mining method on one dataset.
struct MinerOutput {
  std::vector<Region> regions;
  /// Mining wall-time (excludes one-off surrogate training, per the
  /// paper's Table I protocol: models are trained once, up front).
  double mine_seconds = 0.0;
  /// Surrogate training time where applicable.
  double train_seconds = 0.0;
  bool timed_out = false;
  double fraction_examined = 1.0;
};

/// The statistic a synthetic dataset is evaluated with.
inline Statistic StatisticFor(const SyntheticDataset& ds) {
  if (ds.spec.statistic == SyntheticStatistic::kAggregate) {
    return Statistic::Average(ds.region_cols,
                              static_cast<size_t>(ds.value_col));
  }
  return Statistic::Count(ds.region_cols);
}

/// The paper's thresholds: y_R = 1000 for density, 2 for aggregates.
inline double ThresholdFor(const SyntheticDataset& ds) {
  return ds.spec.statistic == SyntheticStatistic::kAggregate ? 2.0
                                                             : 1000.0;
}

/// The size regularizer per statistic family. Density uses the paper's
/// c = 4 (favouring fine-grained boxes). Aggregate statistics are flat
/// inside a planted region — the mean stays ~3 no matter how far a box
/// shrinks — so any c > 0 drives the optimum to the minimum box size;
/// recovering the *extent* of the region requires rewarding size, i.e.
/// the c < 0 end of the paper's "focus on larger/smaller areas" knob.
inline double CFor(const SyntheticDataset& ds) {
  return ds.spec.statistic == SyntheticStatistic::kAggregate ? -1.0 : 4.0;
}

/// §V-B scoring: per GT region, the best-matching proposal's IoU,
/// averaged over GT regions.
inline double AverageIoU(const std::vector<Region>& found,
                         const std::vector<Region>& gt) {
  if (found.empty() || gt.empty()) return 0.0;
  double total = 0.0;
  for (const auto& g : gt) {
    double best = 0.0;
    for (const auto& f : found) best = std::max(best, f.IoU(g));
    total += best;
  }
  return total / static_cast<double>(gt.size());
}

/// Common tuning for the GSO arms.
inline FinderConfig MakeFinderConfig(size_t dims, size_t glowworms,
                                     size_t iterations) {
  FinderConfig config;
  config.gso = GsoParams::PaperScaled(dims);
  if (glowworms > 0) config.gso.num_glowworms = glowworms;
  config.gso.max_iterations = iterations;
  return config;
}

/// SuRF: workload → surrogate → GSO (the full pipeline).
inline MinerOutput RunSurf(const SyntheticDataset& ds, size_t num_queries,
                           size_t glowworms, size_t iterations,
                           uint64_t seed = 1) {
  MinerOutput out;
  SurfOptions options;
  options.workload.num_queries = num_queries;
  options.workload.seed = seed;
  options.finder = MakeFinderConfig(ds.spec.dims, glowworms, iterations);
  options.finder.c = CFor(ds);
  options.validate_results = false;
  auto surf = Surf::Build(&ds.data, StatisticFor(ds), options);
  if (!surf.ok()) {
    std::fprintf(stderr, "RunSurf build failed: %s\n",
                 surf.status().ToString().c_str());
    return out;
  }
  out.train_seconds = surf->surrogate().metrics().train_seconds;
  const FindResult result =
      surf->FindRegions(ThresholdFor(ds), ThresholdDirection::kAbove).value();
  out.mine_seconds = result.report.seconds;
  for (const auto& r : result.regions) out.regions.push_back(r.region);
  return out;
}

/// f+GlowWorm: the same GSO engine (including the §III-B KDE guidance,
/// which belongs to the optimizer, not the surrogate) fed by the true
/// function instead of f̂.
inline MinerOutput RunFGso(const SyntheticDataset& ds,
                           const RegionEvaluator& evaluator,
                           size_t glowworms, size_t iterations) {
  MinerOutput out;
  const RegionSolutionSpace space = RegionSolutionSpace::ForBounds(
      ds.data.ComputeBounds(ds.region_cols), 0.01, 0.15);
  FinderConfig config =
      MakeFinderConfig(ds.spec.dims, glowworms, iterations);
  config.c = CFor(ds);
  SurfFinder finder(
      [&evaluator](const Region& r) { return evaluator.Evaluate(r); },
      space, config);

  // Same KDE prior SuRF's finder gets from Surf::Build.
  const Kde kde = FitDataKde(ds.data, ds.region_cols, kKdeMaxSamples, 3);
  finder.SetKde(&kde);

  Stopwatch timer;
  const FindResult result =
      finder.Find(ThresholdFor(ds), ThresholdDirection::kAbove);
  out.mine_seconds = timer.ElapsedSeconds();
  for (const auto& r : result.regions) out.regions.push_back(r.region);
  return out;
}

/// Naive: exhaustive (n·m)^d grid against the true function.
inline MinerOutput RunNaive(const SyntheticDataset& ds,
                            const RegionEvaluator& evaluator,
                            size_t centers, size_t sizes,
                            double budget_seconds) {
  MinerOutput out;
  const RegionSolutionSpace space = RegionSolutionSpace::ForBounds(
      ds.data.ComputeBounds(ds.region_cols), 0.01, 0.15);
  ObjectiveConfig oconfig;
  oconfig.threshold = ThresholdFor(ds);
  oconfig.direction = ThresholdDirection::kAbove;
  oconfig.c = CFor(ds);
  const RegionObjective objective(
      [&evaluator](const Region& r) { return evaluator.Evaluate(r); },
      oconfig);
  NaiveSearchParams params;
  params.centers_per_dim = centers;
  params.sizes_per_dim = sizes;
  params.time_budget_seconds = budget_seconds;
  const NaiveSearch naive(params);
  const NaiveSearchResult result = naive.Run(objective, space);
  out.mine_seconds = result.elapsed_seconds;
  out.timed_out = result.timed_out;
  out.fraction_examined = result.FractionExamined();
  for (const auto& kept : SelectDistinctRegions(result.viable, 0.25, 16)) {
    out.regions.push_back(kept.region);
  }
  return out;
}

/// PRIM with the paper's §V-B settings (min support 0.01, threshold 2 for
/// aggregates; density gets a constant target, which is PRIM's documented
/// blind spot).
inline MinerOutput RunPrim(const SyntheticDataset& ds) {
  MinerOutput out;
  FeatureMatrix x(ds.region_cols.size());
  x.Reserve(ds.data.num_rows());
  std::vector<double> y;
  y.reserve(ds.data.num_rows());
  std::vector<double> row(ds.region_cols.size());
  const bool aggregate =
      ds.spec.statistic == SyntheticStatistic::kAggregate;
  for (size_t r = 0; r < ds.data.num_rows(); ++r) {
    for (size_t j = 0; j < ds.region_cols.size(); ++j) {
      row[j] = ds.data.Get(r, ds.region_cols[j]);
    }
    x.AddRow(row);
    y.push_back(aggregate
                    ? ds.data.Get(r, static_cast<size_t>(ds.value_col))
                    : 1.0);
  }
  PrimParams params;
  params.min_support = 0.01;
  params.max_boxes = std::max<size_t>(2, ds.spec.num_gt_regions);
  if (aggregate) params.target_threshold = 2.0;
  Stopwatch timer;
  const PrimResult result = Prim(params).Run(x, y);
  out.mine_seconds = timer.ElapsedSeconds();
  for (const auto& box : result.boxes) out.regions.push_back(box.region);
  return out;
}

}  // namespace bench
}  // namespace surf

#endif  // SURF_BENCH_BENCH_COMMON_H_
