// Integration tests: miniature versions of the paper's experiments wired
// end-to-end — the four comparison methods on planted ground truth, the
// qualitative real-data scenarios, and cross-cutting invariants.

#include <gtest/gtest.h>

#include <cmath>

#include "core/surf.h"
#include "data/activity_sim.h"
#include "data/crimes_sim.h"
#include "data/synthetic.h"
#include "prim/prim.h"
#include "util/summary.h"

namespace surf {
namespace {

/// Average best-IoU of found regions against each GT region (the paper's
/// §V-B protocol: per GT region, the best matching proposal).
double AverageIoU(const std::vector<Region>& found,
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

TEST(IntegrationTest, SurfVsTrueFunctionAgreement) {
  // The paper's headline claim (§V-B): SuRF ≈ f+GlowWorm in IoU.
  SyntheticSpec spec;
  spec.dims = 2;
  spec.num_gt_regions = 1;
  spec.statistic = SyntheticStatistic::kDensity;
  spec.seed = 21;
  const SyntheticDataset ds = SyntheticGenerator::Generate(spec);

  ScanEvaluator eval(&ds.data, Statistic::Count({0, 1}));
  WorkloadParams wparams;
  wparams.num_queries = 5000;
  const RegionWorkload workload =
      GenerateWorkload(eval, ds.data.ComputeBounds({0, 1}), wparams);
  auto surrogate = Surrogate::Train(workload, SurrogateTrainOptions{});
  ASSERT_TRUE(surrogate.ok());

  FinderConfig config;
  config.gso.num_glowworms = 120;
  config.gso.max_iterations = 100;

  // SuRF arm: surrogate-backed.
  SurfFinder surf_finder(surrogate->AsStatisticFn(), workload.space,
                         config);
  const FindResult surf_result =
      surf_finder.Find(1000.0, ThresholdDirection::kAbove);

  // f+GlowWorm arm: the true function drives the same engine.
  SurfFinder true_finder(
      [&eval](const Region& r) { return eval.Evaluate(r); },
      workload.space, config);
  const FindResult true_result =
      true_finder.Find(1000.0, ThresholdDirection::kAbove);

  auto regions_of = [](const FindResult& r) {
    std::vector<Region> out;
    for (const auto& f : r.regions) out.push_back(f.region);
    return out;
  };
  const double surf_iou = AverageIoU(regions_of(surf_result),
                                     ds.gt_regions);
  const double true_iou = AverageIoU(regions_of(true_result),
                                     ds.gt_regions);
  EXPECT_GT(surf_iou, 0.35);
  EXPECT_GT(true_iou, 0.35);
  // The surrogate arm is allowed to trail the oracle arm, but not by much
  // (the paper reports them near-identical).
  EXPECT_GT(surf_iou, true_iou - 0.25);
}

TEST(IntegrationTest, NaiveBaselineFindsGtButExaminesGrid) {
  SyntheticSpec spec;
  spec.dims = 1;
  spec.num_gt_regions = 1;
  spec.statistic = SyntheticStatistic::kDensity;
  spec.seed = 22;
  const SyntheticDataset ds = SyntheticGenerator::Generate(spec);
  ScanEvaluator eval(&ds.data, Statistic::Count({0}));

  ObjectiveConfig oconfig;
  oconfig.threshold = 1000.0;
  oconfig.direction = ThresholdDirection::kAbove;
  const RegionObjective objective(
      [&eval](const Region& r) { return eval.Evaluate(r); }, oconfig);

  const RegionSolutionSpace space = RegionSolutionSpace::ForBounds(
      ds.data.ComputeBounds({0}), 0.01, 0.2);
  NaiveSearchParams nparams;
  nparams.centers_per_dim = 12;
  nparams.sizes_per_dim = 6;
  const NaiveSearch naive(nparams);
  const NaiveSearchResult result = naive.Run(objective, space);
  EXPECT_EQ(result.examined, 72u);

  const auto kept = SelectDistinctRegions(result.viable, 0.3, 4);
  ASSERT_FALSE(kept.empty());
  double best_iou = 0.0;
  for (const auto& k : kept) {
    best_iou = std::max(best_iou, k.region.IoU(ds.gt_regions[0]));
  }
  EXPECT_GT(best_iou, 0.3);
}

TEST(IntegrationTest, PrimFindsAggregateButNotDensity) {
  // Aggregate setting: PRIM is strong (paper Fig. 3 top-left).
  SyntheticSpec agg_spec;
  agg_spec.dims = 2;
  agg_spec.num_gt_regions = 1;
  agg_spec.statistic = SyntheticStatistic::kAggregate;
  agg_spec.seed = 23;
  const SyntheticDataset agg = SyntheticGenerator::Generate(agg_spec);

  FeatureMatrix x(2);
  std::vector<double> y;
  for (size_t r = 0; r < agg.data.num_rows(); ++r) {
    x.AddRow({agg.data.Get(r, 0), agg.data.Get(r, 1)});
    y.push_back(agg.data.Get(r, 2));
  }
  PrimParams pparams;
  pparams.max_boxes = 1;
  const PrimResult prim_result = Prim(pparams).Run(x, y);
  ASSERT_FALSE(prim_result.boxes.empty());
  EXPECT_GT(prim_result.boxes[0].region.IoU(agg.gt_regions[0]), 0.3);

  // Density setting: constant target — PRIM has nothing to optimize
  // (paper Fig. 3 right column, §V-B discussion).
  SyntheticSpec den_spec = agg_spec;
  den_spec.statistic = SyntheticStatistic::kDensity;
  const SyntheticDataset den = SyntheticGenerator::Generate(den_spec);
  FeatureMatrix dx(2);
  std::vector<double> dy(den.data.num_rows(), 1.0);
  for (size_t r = 0; r < den.data.num_rows(); ++r) {
    dx.AddRow({den.data.Get(r, 0), den.data.Get(r, 1)});
  }
  const PrimResult den_result = Prim(pparams).Run(dx, dy);
  const double den_iou =
      den_result.boxes.empty()
          ? 0.0
          : den_result.boxes[0].region.IoU(den.gt_regions[0]);
  EXPECT_LT(den_iou, 0.35);
}

TEST(IntegrationTest, MultimodalCaptureOfThreeRegions) {
  SyntheticSpec spec;
  spec.dims = 1;
  spec.num_gt_regions = 3;
  spec.statistic = SyntheticStatistic::kDensity;
  spec.seed = 24;
  const SyntheticDataset ds = SyntheticGenerator::Generate(spec);

  SurfOptions options;
  options.workload.num_queries = 4000;
  options.finder.gso.num_glowworms = 150;
  options.finder.gso.max_iterations = 120;
  auto surf = Surf::Build(&ds.data, Statistic::Count({0}), options);
  ASSERT_TRUE(surf.ok());
  const FindResult result =
      surf->FindRegions(1000.0, ThresholdDirection::kAbove).value();

  // Every planted region must be matched by some proposal.
  size_t matched = 0;
  for (const auto& gt : ds.gt_regions) {
    for (const auto& f : result.regions) {
      if (f.region.IoU(gt) > 0.25) {
        ++matched;
        break;
      }
    }
  }
  EXPECT_GE(matched, 2u);  // at least 2 of 3 under the quick settings
}

TEST(IntegrationTest, CrimesComplianceIsHigh) {
  CrimesSimSpec spec;
  spec.num_points = 20000;
  const CrimesDataset crimes = SimulateCrimes(spec);
  SurfOptions options;
  options.workload.num_queries = 5000;
  options.finder.gso.num_glowworms = 120;
  options.finder.gso.max_iterations = 100;
  auto surf = Surf::Build(&crimes.data, Statistic::Count({0, 1}), options);
  ASSERT_TRUE(surf.ok());

  const Ecdf ecdf = surf->SampleStatisticEcdf(1000, 4);
  const FindResult result =
      surf->FindRegions(ecdf.Quantile(0.75), ThresholdDirection::kAbove)
          .value();
  ASSERT_FALSE(result.regions.empty());
  // Paper: 100 % of proposed regions complied; allow one slip.
  EXPECT_GE(result.report.true_compliance, 0.7);
}

TEST(IntegrationTest, ActivityRareRegionIsFound) {
  ActivitySimSpec spec;
  spec.num_points = 15000;
  const ActivityDataset activity = SimulateActivity(spec);
  const double stand =
      static_cast<double>(static_cast<int>(Activity::kStanding));
  SurfOptions options;
  options.workload.num_queries = 6000;
  options.finder.gso.num_glowworms = 150;
  options.finder.gso.max_iterations = 120;
  options.finder.c = 2.0;
  auto surf = Surf::Build(&activity.data,
                          Statistic::LabelRatio({0, 1, 2}, 3, stand),
                          options);
  ASSERT_TRUE(surf.ok());

  // The request is a rare event under the region-statistic CDF.
  const Ecdf ecdf = surf->SampleStatisticEcdf(2000, 5);
  EXPECT_LT(ecdf.Exceedance(0.3), 0.2);

  const FindResult result =
      surf->FindRegions(0.3, ThresholdDirection::kAbove).value();
  ASSERT_FALSE(result.regions.empty());
  EXPECT_GE(result.report.true_compliance, 0.5);
}

TEST(IntegrationTest, SurrogateEvaluationsAreDataFree) {
  // SuRF's mining must not touch the dataset: the evaluator serves the
  // workload and validation only.
  SyntheticSpec spec;
  spec.dims = 2;
  spec.num_gt_regions = 1;
  spec.statistic = SyntheticStatistic::kDensity;
  spec.seed = 26;
  const SyntheticDataset ds = SyntheticGenerator::Generate(spec);
  SurfOptions options;
  options.workload.num_queries = 2000;
  options.validate_results = false;  // no validation passes either
  options.finder.gso.num_glowworms = 80;
  options.finder.gso.max_iterations = 60;
  auto surf = Surf::Build(&ds.data, Statistic::Count({0, 1}), options);
  ASSERT_TRUE(surf.ok());
  const uint64_t evals_after_build = surf->evaluator().evaluation_count();
  surf->FindRegions(1000.0, ThresholdDirection::kAbove);
  EXPECT_EQ(surf->evaluator().evaluation_count(), evals_after_build);
}

TEST(IntegrationTest, LogObjectiveBeatsRatioObjectiveOnIsolation) {
  // §V-F: under Eq. 2 the swarm can settle in constraint-violating space;
  // Eq. 4 marks it invalid. Compare the fraction of final particles that
  // actually satisfy the constraint.
  SyntheticSpec spec;
  spec.dims = 1;
  spec.num_gt_regions = 3;
  spec.statistic = SyntheticStatistic::kDensity;
  spec.seed = 27;
  const SyntheticDataset ds = SyntheticGenerator::Generate(spec);
  ScanEvaluator eval(&ds.data, Statistic::Count({0}));
  WorkloadParams wparams;
  wparams.num_queries = 3000;
  const RegionWorkload workload =
      GenerateWorkload(eval, ds.data.ComputeBounds({0}), wparams);
  auto surrogate = Surrogate::Train(workload, SurrogateTrainOptions{});
  ASSERT_TRUE(surrogate.ok());

  auto run_with = [&](bool use_log) {
    FinderConfig config;
    config.use_log_objective = use_log;
    config.gso.num_glowworms = 100;
    config.gso.max_iterations = 80;
    SurfFinder finder(surrogate->AsStatisticFn(), workload.space, config);
    const FindResult result =
        finder.Find(1000.0, ThresholdDirection::kAbove);
    // Fraction of final particles whose *surrogate* statistic satisfies
    // the constraint.
    size_t good = 0;
    for (const auto& p : result.gso.particles) {
      if (surrogate->Predict(p) > 1000.0) ++good;
    }
    return static_cast<double>(good) /
           static_cast<double>(result.gso.particles.size());
  };
  const double log_fraction = run_with(true);
  const double ratio_fraction = run_with(false);
  EXPECT_GE(log_fraction, ratio_fraction - 0.05);
  EXPECT_GT(log_fraction, 0.5);
}

TEST(IntegrationTest, HigherDimensionsDegradeGracefully) {
  // The paper's Fig. 3 trend: IoU decreases with d but stays nonzero.
  double prev_iou = 1.0;
  for (size_t d : {1u, 3u}) {
    SyntheticSpec spec;
    spec.dims = d;
    spec.num_gt_regions = 1;
    spec.statistic = SyntheticStatistic::kDensity;
    spec.seed = 28 + d;
    const SyntheticDataset ds = SyntheticGenerator::Generate(spec);
    SurfOptions options;
    options.workload.num_queries = 3000 + 3000 * d;
    options.finder.gso = GsoParams::PaperScaled(d);
    options.finder.gso.max_iterations = 120;
    std::vector<size_t> cols;
    for (size_t j = 0; j < d; ++j) cols.push_back(j);
    auto surf = Surf::Build(&ds.data, Statistic::Count(cols), options);
    ASSERT_TRUE(surf.ok());
    const FindResult result =
        surf->FindRegions(1000.0, ThresholdDirection::kAbove).value();
    double best = 0.0;
    for (const auto& r : result.regions) {
      best = std::max(best, r.region.IoU(ds.gt_regions[0]));
    }
    EXPECT_GT(best, 0.1) << "d=" << d;
    prev_iou = best;
  }
  (void)prev_iou;
}

}  // namespace
}  // namespace surf
