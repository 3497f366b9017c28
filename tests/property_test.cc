// Property-based suites: randomized invariants swept over seeds and
// dimensionalities with parameterized gtest. These complement the
// example-based unit tests by checking that the *laws* each module
// promises hold over broad random inputs.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/surf.h"
#include "data/sharded.h"
#include "data/synthetic.h"
#include "ml/gbrt.h"
#include "ml/kde.h"
#include "ml/metrics.h"
#include "opt/naive_search.h"
#include "opt/objective.h"
#include "stats/grid_index.h"
#include "stats/quantile_sketch.h"
#include "stats/sharded_evaluator.h"
#include "util/rng.h"
#include "util/summary.h"

namespace surf {
namespace {

// ------------------------------------------------ Statistic/evaluator laws

class StatisticLawsTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

/// Random dataset with value + label columns over [0,1]^d.
Dataset RandomDataset(size_t n, size_t d, uint64_t seed) {
  std::vector<std::string> names;
  for (size_t j = 0; j < d; ++j) names.push_back("a" + std::to_string(j));
  names.push_back("v");
  Dataset ds(names);
  Rng rng(seed);
  std::vector<double> row(d + 1);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) row[j] = rng.Uniform();
    row[d] = rng.Gaussian(0.0, 3.0);
    ds.AddRow(row);
  }
  return ds;
}

std::vector<size_t> RegionCols(size_t d) {
  std::vector<size_t> cols(d);
  std::iota(cols.begin(), cols.end(), 0);
  return cols;
}

TEST_P(StatisticLawsTest, CountIsMonotoneInBoxSize) {
  const auto [seed, dims] = GetParam();
  const size_t d = static_cast<size_t>(dims);
  const Dataset ds = RandomDataset(2000, d, static_cast<uint64_t>(seed));
  GridIndexEvaluator eval(&ds, Statistic::Count(RegionCols(d)));
  Rng rng(static_cast<uint64_t>(seed) * 7 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> center(d), half(d), bigger(d);
    for (size_t j = 0; j < d; ++j) {
      center[j] = rng.Uniform();
      half[j] = rng.Uniform(0.02, 0.2);
      bigger[j] = half[j] + rng.Uniform(0.0, 0.2);
    }
    EXPECT_LE(eval.Evaluate(Region(center, half)),
              eval.Evaluate(Region(center, bigger)));
  }
}

TEST_P(StatisticLawsTest, CountIsAdditiveUnderDisjointSplit) {
  const auto [seed, dims] = GetParam();
  const size_t d = static_cast<size_t>(dims);
  const Dataset ds = RandomDataset(1500, d, static_cast<uint64_t>(seed));
  ScanEvaluator eval(&ds, Statistic::Count(RegionCols(d)));
  Rng rng(static_cast<uint64_t>(seed) * 13 + 5);
  for (int trial = 0; trial < 10; ++trial) {
    // Split a box into two halves along dimension 0 at an off-grid point
    // strictly between data values (measure-zero overlap).
    std::vector<double> lo(d), hi(d);
    for (size_t j = 0; j < d; ++j) {
      lo[j] = rng.Uniform(0.0, 0.4);
      hi[j] = lo[j] + rng.Uniform(0.2, 0.5);
    }
    const double cut = 0.5 * (lo[0] + hi[0]) + 1e-7;
    std::vector<double> mid_hi = hi, mid_lo = lo;
    mid_hi[0] = cut;
    mid_lo[0] = std::nextafter(cut, 1.0);
    const double whole =
        eval.Evaluate(Region::FromCorners(lo, hi));
    const double left =
        eval.Evaluate(Region::FromCorners(lo, mid_hi));
    const double right =
        eval.Evaluate(Region::FromCorners(mid_lo, hi));
    EXPECT_DOUBLE_EQ(whole, left + right);
  }
}

TEST_P(StatisticLawsTest, AverageIsBoundedByExtremes) {
  const auto [seed, dims] = GetParam();
  const size_t d = static_cast<size_t>(dims);
  const Dataset ds = RandomDataset(1200, d, static_cast<uint64_t>(seed));
  GridIndexEvaluator eval(&ds, Statistic::Average(RegionCols(d), d));
  const auto& values = ds.column(d);
  const double vmin = *std::min_element(values.begin(), values.end());
  const double vmax = *std::max_element(values.begin(), values.end());
  Rng rng(static_cast<uint64_t>(seed) * 3 + 11);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> center(d), half(d);
    for (size_t j = 0; j < d; ++j) {
      center[j] = rng.Uniform();
      half[j] = rng.Uniform(0.05, 0.4);
    }
    const double avg = eval.Evaluate(Region(center, half));
    if (std::isnan(avg)) continue;  // empty region
    EXPECT_GE(avg, vmin - 1e-9);
    EXPECT_LE(avg, vmax + 1e-9);
  }
}

TEST_P(StatisticLawsTest, VarianceIsNonNegative) {
  const auto [seed, dims] = GetParam();
  const size_t d = static_cast<size_t>(dims);
  const Dataset ds = RandomDataset(1000, d, static_cast<uint64_t>(seed));
  GridIndexEvaluator eval(&ds, Statistic::VarianceOf(RegionCols(d), d));
  Rng rng(static_cast<uint64_t>(seed) + 17);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> center(d), half(d);
    for (size_t j = 0; j < d; ++j) {
      center[j] = rng.Uniform();
      half[j] = rng.Uniform(0.05, 0.4);
    }
    const double var = eval.Evaluate(Region(center, half));
    if (std::isnan(var)) continue;
    EXPECT_GE(var, 0.0);
  }
}

TEST_P(StatisticLawsTest, RatioIsAProbability) {
  const auto [seed, dims] = GetParam();
  const size_t d = static_cast<size_t>(dims);
  Dataset ds = RandomDataset(800, d, static_cast<uint64_t>(seed));
  // Re-purpose the value column as a binary label.
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    ds.Set(r, d, ds.Get(r, d) > 0.0 ? 1.0 : 0.0);
  }
  GridIndexEvaluator eval(&ds,
                          Statistic::LabelRatio(RegionCols(d), d, 1.0));
  Rng rng(static_cast<uint64_t>(seed) + 23);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> center(d), half(d);
    for (size_t j = 0; j < d; ++j) {
      center[j] = rng.Uniform();
      half[j] = rng.Uniform(0.05, 0.4);
    }
    const double ratio = eval.Evaluate(Region(center, half));
    EXPECT_GE(ratio, 0.0);
    EXPECT_LE(ratio, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndDims, StatisticLawsTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_d" +
             std::to_string(std::get<1>(info.param));
    });

// --------------------------------------------------- Quantile-sketch laws

class QuantileSketchLawsTest : public ::testing::TestWithParam<int> {};

/// Fraction of `sorted` strictly below `v` — the empirical rank the
/// sketch's median estimate lands at.
double EmpiricalRank(const std::vector<double>& sorted, double v) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), v);
  return static_cast<double>(it - sorted.begin()) /
         static_cast<double>(sorted.size());
}

TEST_P(QuantileSketchLawsTest, ExactBelowBufferCapacity) {
  // Until the buffer capacity is exceeded no compaction runs and the
  // median must equal the historical raw-buffer convention bit-for-bit
  // (odd: middle element; even: mean of the two middle elements).
  Rng rng(static_cast<uint64_t>(GetParam()) + 900);
  for (size_t n : {1u, 2u, 7u, 100u, 1001u}) {
    QuantileSketch sketch;
    std::vector<double> values;
    for (size_t i = 0; i < n; ++i) {
      const double v = rng.Gaussian(0.0, 10.0);
      sketch.Add(v);
      values.push_back(v);
    }
    ASSERT_TRUE(sketch.exact());
    std::sort(values.begin(), values.end());
    const size_t mid = n / 2;
    const double expected =
        (n % 2 == 1) ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
    EXPECT_EQ(sketch.Median(), expected) << "n=" << n;
    EXPECT_EQ(sketch.Quantile(0.0), values.front());
    EXPECT_EQ(sketch.Quantile(1.0), values.back());
  }
}

TEST_P(QuantileSketchLawsTest, MedianRankErrorBoundAcrossDistributions) {
  // Past the buffer capacity the sketch compacts; the reported median
  // must stay within 2% rank error of the true median for benign and
  // adversarial (sorted) input orders alike.
  const uint64_t seed = static_cast<uint64_t>(GetParam()) + 1000;
  const size_t n = 60000;
  for (int dist = 0; dist < 5; ++dist) {
    Rng rng(seed * 13 + static_cast<uint64_t>(dist));
    std::vector<double> values;
    values.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      switch (dist) {
        case 0: values.push_back(rng.Uniform()); break;
        case 1: values.push_back(rng.Gaussian(5.0, 2.0)); break;
        case 2:  // heavy-tailed: exponential via inverse transform
          values.push_back(-std::log(1.0 - rng.Uniform(0.0, 0.999999)));
          break;
        case 3:  // bimodal
          values.push_back(rng.Bernoulli(0.5) ? rng.Gaussian(-10.0, 1.0)
                                              : rng.Gaussian(10.0, 1.0));
          break;
        default:  // sorted ascending (adversarial insert order)
          values.push_back(static_cast<double>(i));
      }
    }
    QuantileSketch sketch;
    for (double v : values) sketch.Add(v);
    EXPECT_FALSE(sketch.exact());
    EXPECT_LT(sketch.num_retained(), n / 4);  // actually sketching
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const double rank = EmpiricalRank(sorted, sketch.Median());
    EXPECT_NEAR(rank, 0.5, 0.02) << "distribution " << dist;
    for (double q : {0.1, 0.25, 0.75, 0.9}) {
      EXPECT_NEAR(EmpiricalRank(sorted, sketch.Quantile(q)), q, 0.03)
          << "distribution " << dist << " q=" << q;
    }
  }
}

TEST_P(QuantileSketchLawsTest, MergeIsDeterministicAndBounded) {
  // Merging shard-local sketches in fixed order is deterministic
  // (bit-identical across runs) and stays within the rank bound.
  const uint64_t seed = static_cast<uint64_t>(GetParam()) + 1100;
  const size_t n = 40000, chunks = 8;
  auto build_merged = [&] {
    Rng rng(seed);
    std::vector<double> values;
    for (size_t i = 0; i < n; ++i) values.push_back(rng.Gaussian(0.0, 3.0));
    QuantileSketch merged;
    for (size_t c = 0; c < chunks; ++c) {
      QuantileSketch part;
      for (size_t i = c * (n / chunks); i < (c + 1) * (n / chunks); ++i) {
        part.Add(values[i]);
      }
      merged.Merge(part);
    }
    std::sort(values.begin(), values.end());
    return std::make_pair(merged.Median(), EmpiricalRank(values,
                                                         merged.Median()));
  };
  const auto [median_a, rank_a] = build_merged();
  const auto [median_b, rank_b] = build_merged();
  EXPECT_EQ(median_a, median_b);  // deterministic, no RNG inside
  EXPECT_EQ(rank_a, rank_b);
  EXPECT_NEAR(rank_a, 0.5, 0.02);
}

TEST_P(QuantileSketchLawsTest, ShardedMedianWorkloadIsSeedStable) {
  // End to end: labelling a median workload through the sharded backend
  // twice with the same seed must produce identical targets — the
  // sketch is deterministic, the merge order is fixed, and the query
  // draw is seeded.
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  const Dataset ds = RandomDataset(8000, 2, seed + 1200);
  auto label = [&] {
    ShardingOptions options;
    options.num_shards = 8;
    options.order_by = 0;
    ShardedScanEvaluator sharded(ShardedDataset::Partition(ds, options),
                                 Statistic::MedianOf({0, 1}, 2), 2);
    WorkloadParams params;
    params.num_queries = 300;
    params.seed = seed;
    return GenerateWorkload(sharded, ds.ComputeBounds({0, 1}), params)
        .targets;
  };
  const std::vector<double> first = label();
  const std::vector<double> second = label();
  ASSERT_EQ(first.size(), second.size());
  ASSERT_GT(first.size(), 0u);
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "target " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileSketchLawsTest,
                         ::testing::Values(1, 2, 3));

// ----------------------------------------------------- Objective laws

class ObjectiveLawsTest : public ::testing::TestWithParam<int> {};

TEST_P(ObjectiveLawsTest, ValidIffConstraintHolds) {
  // Under the log form, validity must coincide exactly with the
  // constraint on the underlying statistic (paper §II, Eq. 4).
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 200; ++trial) {
    const double y = rng.Uniform(-50.0, 50.0);
    const double threshold = rng.Uniform(-30.0, 30.0);
    const ThresholdDirection dir = rng.Bernoulli(0.5)
                                       ? ThresholdDirection::kAbove
                                       : ThresholdDirection::kBelow;
    ObjectiveConfig config;
    config.threshold = threshold;
    config.direction = dir;
    config.c = rng.Uniform(-2.0, 5.0);
    const RegionObjective obj([y](const Region&) { return y; }, config);
    const Region region({rng.Uniform()}, {rng.Uniform(0.01, 0.5)});
    EXPECT_EQ(obj.Evaluate(region).valid,
              SatisfiesThreshold(y, threshold, dir));
  }
}

TEST_P(ObjectiveLawsTest, LogObjectiveMonotoneInStatistic) {
  // For the kAbove direction and a fixed region, J must increase with y.
  Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  ObjectiveConfig config;
  config.threshold = 10.0;
  config.direction = ThresholdDirection::kAbove;
  const Region region({0.5}, {0.1});
  double prev = -1e300;
  for (double y = 11.0; y < 100.0; y += rng.Uniform(1.0, 5.0)) {
    const RegionObjective obj([y](const Region&) { return y; }, config);
    const FitnessValue fv = obj.Evaluate(region);
    ASSERT_TRUE(fv.valid);
    EXPECT_GT(fv.value, prev);
    prev = fv.value;
  }
}

TEST_P(ObjectiveLawsTest, NmsOutputsAreMutuallyDistinct) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 200);
  std::vector<ScoredRegion> candidates;
  for (int i = 0; i < 100; ++i) {
    ScoredRegion s;
    s.region = Region({rng.Uniform(), rng.Uniform()},
                      {rng.Uniform(0.02, 0.2), rng.Uniform(0.02, 0.2)});
    s.fitness = rng.Uniform(0.0, 10.0);
    candidates.push_back(s);
  }
  const double max_iou = 0.3;
  const auto kept = SelectDistinctRegions(candidates, max_iou, 50);
  for (size_t i = 0; i < kept.size(); ++i) {
    for (size_t j = i + 1; j < kept.size(); ++j) {
      EXPECT_LE(kept[i].region.IoU(kept[j].region), max_iou + 1e-12);
    }
    if (i + 1 < kept.size()) {
      EXPECT_GE(kept[i].fitness, kept[i + 1].fitness);  // ordered
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObjectiveLawsTest,
                         ::testing::Values(1, 2, 3, 4));

// ------------------------------------------------------------- ML laws

class MlLawsTest : public ::testing::TestWithParam<int> {};

TEST_P(MlLawsTest, GbrtTrainErrorDecreasesWithCapacity) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 300);
  FeatureMatrix x(2);
  std::vector<double> y;
  for (int i = 0; i < 800; ++i) {
    const double a = rng.Uniform(), b = rng.Uniform();
    x.AddRow({a, b});
    y.push_back(std::sin(5.0 * a) * b + rng.Gaussian(0.0, 0.05));
  }
  double prev_rmse = 1e300;
  for (size_t trees : {5u, 25u, 100u}) {
    GbrtParams params;
    params.n_estimators = trees;
    params.seed = 7;
    GradientBoostedTrees model(params);
    ASSERT_TRUE(model.Fit(x, y).ok());
    const double rmse = Rmse(model.PredictBatch(x), y);
    EXPECT_LE(rmse, prev_rmse + 1e-9);
    prev_rmse = rmse;
  }
}

TEST_P(MlLawsTest, GbrtPredictionsWithinTargetHull) {
  // Squared-loss GBRT predictions are convex combinations of targets
  // (plus the base score), so they cannot leave the target range by more
  // than the learning dynamics allow; with enough regularization they
  // stay inside the hull.
  Rng rng(static_cast<uint64_t>(GetParam()) + 400);
  FeatureMatrix x(1);
  std::vector<double> y;
  for (int i = 0; i < 500; ++i) {
    const double a = rng.Uniform();
    x.AddRow({a});
    y.push_back(a > 0.5 ? 10.0 : -10.0);
  }
  GradientBoostedTrees model;
  ASSERT_TRUE(model.Fit(x, y).ok());
  for (int i = 0; i < 100; ++i) {
    const double pred = model.Predict({rng.Uniform()});
    EXPECT_GE(pred, -10.5);
    EXPECT_LE(pred, 10.5);
  }
}

TEST_P(MlLawsTest, KdeMassOfDisjointBoxesIsSubadditive) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 500);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 400; ++i) {
    points.push_back({rng.Uniform(), rng.Uniform()});
  }
  const Kde kde = Kde::Fit(points);
  for (int trial = 0; trial < 20; ++trial) {
    // Two disjoint boxes split along x.
    const double split = rng.Uniform(0.3, 0.7);
    const Region left = Region::FromCorners({0.0, 0.0}, {split, 1.0});
    const Region right = Region::FromCorners({split, 0.0}, {1.0, 1.0});
    const Region whole = Region::FromCorners({0.0, 0.0}, {1.0, 1.0});
    const double sum = kde.RegionMass(left) + kde.RegionMass(right);
    EXPECT_NEAR(sum, kde.RegionMass(whole), 1e-9);
    EXPECT_LE(kde.RegionMass(whole), 1.0 + 1e-9);
  }
}

TEST_P(MlLawsTest, RmseIsAMetricOnPredictions) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 600);
  std::vector<double> a, b, c;
  for (int i = 0; i < 100; ++i) {
    a.push_back(rng.Gaussian());
    b.push_back(rng.Gaussian());
    c.push_back(rng.Gaussian());
  }
  EXPECT_DOUBLE_EQ(Rmse(a, a), 0.0);
  EXPECT_DOUBLE_EQ(Rmse(a, b), Rmse(b, a));
  // Triangle inequality (RMSE is the L2 metric scaled by 1/sqrt(n)).
  EXPECT_LE(Rmse(a, c), Rmse(a, b) + Rmse(b, c) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MlLawsTest, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------- Pipeline laws

class PipelineLawsTest : public ::testing::TestWithParam<int> {};

TEST_P(PipelineLawsTest, ReportedRegionsSatisfySurrogateConstraint) {
  // Every region SuRF reports must satisfy the constraint under f̂ —
  // that is the definition of a valid particle (Eq. 4's domain).
  SyntheticSpec spec;
  spec.dims = 2;
  spec.num_gt_regions = 1;
  spec.statistic = SyntheticStatistic::kDensity;
  spec.seed = 600 + static_cast<uint64_t>(GetParam());
  const SyntheticDataset ds = SyntheticGenerator::Generate(spec);
  SurfOptions options;
  options.workload.num_queries = 3000;
  options.workload.seed = static_cast<uint64_t>(GetParam());
  options.finder.gso.max_iterations = 80;
  options.validate_results = false;
  auto surf = Surf::Build(&ds.data, Statistic::Count({0, 1}), options);
  ASSERT_TRUE(surf.ok());
  const double threshold = 1000.0;
  const FindResult result =
      surf->FindRegions(threshold, ThresholdDirection::kAbove).value();
  for (const auto& r : result.regions) {
    EXPECT_GT(surf->surrogate().Predict(r.region), threshold);
    EXPECT_GT(r.estimate, threshold);
  }
}

TEST_P(PipelineLawsTest, WorkloadRoundTripPreservesData) {
  SyntheticSpec spec;
  spec.dims = 2;
  spec.num_gt_regions = 1;
  spec.statistic = SyntheticStatistic::kDensity;
  spec.seed = 700 + static_cast<uint64_t>(GetParam());
  const SyntheticDataset ds = SyntheticGenerator::Generate(spec);
  GridIndexEvaluator eval(&ds.data, Statistic::Count({0, 1}));
  WorkloadParams params;
  params.num_queries = 200;
  params.seed = static_cast<uint64_t>(GetParam());
  const RegionWorkload workload =
      GenerateWorkload(eval, ds.data.ComputeBounds({0, 1}), params);

  const std::string path = "/tmp/surf_workload_prop_" +
                           std::to_string(GetParam()) + ".csv";
  ASSERT_TRUE(SaveWorkload(workload, path).ok());
  auto loaded = LoadWorkload(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), workload.size());
  EXPECT_EQ(loaded->features.num_features(),
            workload.features.num_features());
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded->targets[i], workload.targets[i]);
    EXPECT_EQ(loaded->features.Row(i), workload.features.Row(i));
  }
  EXPECT_DOUBLE_EQ(loaded->space.min_half_length,
                   workload.space.min_half_length);
  EXPECT_DOUBLE_EQ(loaded->space.bounds.lo(0), workload.space.bounds.lo(0));
  std::remove(path.c_str());
}

TEST_P(PipelineLawsTest, MergedWorkloadTrainsLikeConcatenation) {
  SyntheticSpec spec;
  spec.dims = 1;
  spec.num_gt_regions = 1;
  spec.statistic = SyntheticStatistic::kDensity;
  spec.seed = 800 + static_cast<uint64_t>(GetParam());
  const SyntheticDataset ds = SyntheticGenerator::Generate(spec);
  GridIndexEvaluator eval(&ds.data, Statistic::Count({0}));
  const Bounds domain = ds.data.ComputeBounds({0});

  WorkloadParams pa;
  pa.num_queries = 400;
  pa.seed = 1;
  WorkloadParams pb = pa;
  pb.seed = 2;
  RegionWorkload a = GenerateWorkload(eval, domain, pa);
  const RegionWorkload b = GenerateWorkload(eval, domain, pb);
  const size_t na = a.size();
  ASSERT_TRUE(MergeWorkloads(&a, b).ok());
  EXPECT_EQ(a.size(), na + b.size());
  // Mismatched widths are rejected.
  RegionWorkload wrong;
  wrong.features = FeatureMatrix(6);
  EXPECT_FALSE(MergeWorkloads(&a, wrong).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineLawsTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace surf
