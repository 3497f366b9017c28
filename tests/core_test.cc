// Tests for the SuRF core: workload generation, surrogate training and
// persistence, the finder, and the Surf facade.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>

#include "core/surf.h"
#include "core/topk.h"
#include "data/synthetic.h"
#include "ml/knn.h"
#include "ml/linear.h"

namespace surf {
namespace {

SyntheticDataset DensityData(size_t dims, size_t k, uint64_t seed = 42) {
  SyntheticSpec spec;
  spec.dims = dims;
  spec.num_gt_regions = k;
  spec.statistic = SyntheticStatistic::kDensity;
  spec.num_background = 8000;
  spec.seed = seed;
  return SyntheticGenerator::Generate(spec);
}

// -------------------------------------------------------------- Workload

TEST(WorkloadTest, GeneratesRequestedQueries) {
  const SyntheticDataset ds = DensityData(2, 1);
  ScanEvaluator eval(&ds.data, Statistic::Count({0, 1}));
  WorkloadParams params;
  params.num_queries = 500;
  const RegionWorkload workload =
      GenerateWorkload(eval, ds.data.ComputeBounds({0, 1}), params);
  EXPECT_EQ(workload.size(), 500u);  // counts are never NaN
  EXPECT_EQ(workload.features.num_features(), 4u);  // 2d
  EXPECT_EQ(eval.evaluation_count(), 500u);
}

TEST(WorkloadTest, LengthsRespectFractions) {
  const SyntheticDataset ds = DensityData(2, 1);
  ScanEvaluator eval(&ds.data, Statistic::Count({0, 1}));
  WorkloadParams params;
  params.num_queries = 300;
  params.min_length_frac = 0.01;
  params.max_length_frac = 0.15;
  const Bounds domain = ds.data.ComputeBounds({0, 1});
  const RegionWorkload workload = GenerateWorkload(eval, domain, params);
  for (size_t i = 0; i < workload.size(); ++i) {
    const Region r = workload.RegionAt(i);
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_GE(r.half_length(j), 0.01 * domain.Extent(j) - 1e-12);
      EXPECT_LE(r.half_length(j), 0.15 * domain.Extent(j) + 1e-12);
      EXPECT_GE(r.center(j), domain.lo(j));
      EXPECT_LE(r.center(j), domain.hi(j));
    }
  }
}

TEST(WorkloadTest, TargetsMatchDirectEvaluation) {
  const SyntheticDataset ds = DensityData(1, 1);
  ScanEvaluator eval(&ds.data, Statistic::Count({0}));
  WorkloadParams params;
  params.num_queries = 50;
  const RegionWorkload workload =
      GenerateWorkload(eval, ds.data.ComputeBounds({0}), params);
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_DOUBLE_EQ(workload.targets[i],
                     eval.Evaluate(workload.RegionAt(i)));
  }
}

TEST(WorkloadTest, DropsUndefinedAverages) {
  // A tiny dataset leaves most random regions empty: the aggregate
  // workload must drop those NaN targets.
  Dataset tiny({"x", "v"});
  tiny.AddRow({0.5, 1.0});
  tiny.AddRow({0.51, 2.0});
  ScanEvaluator eval(&tiny, Statistic::Average({0}, 1));
  WorkloadParams params;
  params.num_queries = 200;
  const RegionWorkload workload =
      GenerateWorkload(eval, Bounds::Unit(1), params);
  EXPECT_LT(workload.size(), 200u);
  for (double t : workload.targets) EXPECT_FALSE(std::isnan(t));
}

TEST(WorkloadTest, RegionFeaturesEncoding) {
  const Region r({0.3, 0.6}, {0.1, 0.2});
  const auto feats = RegionFeatures(r);
  EXPECT_EQ(feats, (std::vector<double>{0.3, 0.6, 0.1, 0.2}));
}

// ------------------------------------------------------------- Surrogate

class SurrogateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = DensityData(2, 1);
    evaluator_ = std::make_unique<ScanEvaluator>(
        &data_.data, Statistic::Count({0, 1}));
    WorkloadParams params;
    params.num_queries = 4000;
    workload_ = GenerateWorkload(*evaluator_,
                                 data_.data.ComputeBounds({0, 1}), params);
  }

  SyntheticDataset data_;
  std::unique_ptr<ScanEvaluator> evaluator_;
  RegionWorkload workload_;
};

TEST_F(SurrogateTest, TrainsAndTracksError) {
  SurrogateTrainOptions options;
  auto surrogate = Surrogate::Train(workload_, options);
  ASSERT_TRUE(surrogate.ok());
  EXPECT_TRUE(surrogate->trained());
  EXPECT_GT(surrogate->metrics().train_seconds, 0.0);
  EXPECT_GT(surrogate->metrics().test_rmse, 0.0);
  // A count surrogate over ~10k points should be well under 100 RMSE.
  EXPECT_LT(surrogate->metrics().test_rmse, 120.0);
}

TEST_F(SurrogateTest, PredictionsTrackTruth) {
  SurrogateTrainOptions options;
  auto surrogate = Surrogate::Train(workload_, options);
  ASSERT_TRUE(surrogate.ok());
  Rng rng(9);
  double err = 0.0;
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    const Region r = workload_.space.Sample(&rng);
    err += std::fabs(surrogate->Predict(r) - evaluator_->Evaluate(r));
  }
  EXPECT_LT(err / n, 100.0);
}

TEST_F(SurrogateTest, EmptyWorkloadRejected) {
  RegionWorkload empty;
  empty.features = FeatureMatrix(4);
  SurrogateTrainOptions options;
  EXPECT_FALSE(Surrogate::Train(empty, options).ok());
}

TEST_F(SurrogateTest, HypertuneSelectsParams) {
  SurrogateTrainOptions options;
  options.hypertune = true;
  options.grid = GridSearchSpace::Small();
  options.cv_folds = 2;
  options.gbrt.n_estimators = 40;
  auto surrogate = Surrogate::Train(workload_, options);
  ASSERT_TRUE(surrogate.ok());
  EXPECT_TRUE(surrogate->metrics().hypertuned);
  // The chosen params must come from the grid.
  const auto& p = surrogate->metrics().chosen_params;
  EXPECT_TRUE(p.learning_rate == 0.1 || p.learning_rate == 0.05);
  EXPECT_TRUE(p.max_depth == 4 || p.max_depth == 7);
}

TEST_F(SurrogateTest, SaveLoadPredictsIdentically) {
  SurrogateTrainOptions options;
  auto surrogate = Surrogate::Train(workload_, options);
  ASSERT_TRUE(surrogate.ok());
  const std::string path = "/tmp/surf_surrogate_test.txt";
  ASSERT_TRUE(surrogate->Save(path).ok());

  auto loaded = Surrogate::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->dims(), 2u);
  EXPECT_EQ(loaded->statistic().kind, StatisticKind::kCount);
  Rng rng(10);
  for (int i = 0; i < 50; ++i) {
    const Region r = workload_.space.Sample(&rng);
    EXPECT_DOUBLE_EQ(surrogate->Predict(r), loaded->Predict(r));
  }
  std::remove(path.c_str());
}

TEST_F(SurrogateTest, AlternativeModelsTrainToo) {
  auto ridge = Surrogate::TrainWithModel(
      std::make_unique<RidgeRegression>(1.0), workload_, 0.2, 3);
  ASSERT_TRUE(ridge.ok());
  EXPECT_EQ(ridge->model().Name(), "ridge");

  auto knn = Surrogate::TrainWithModel(std::make_unique<KnnRegressor>(8),
                                       workload_, 0.2, 3);
  ASSERT_TRUE(knn.ok());
  EXPECT_EQ(knn->model().Name(), "knn");
  // The GBRT should beat plain ridge on this non-linear target.
  SurrogateTrainOptions options;
  auto gbrt = Surrogate::Train(workload_, options);
  ASSERT_TRUE(gbrt.ok());
  EXPECT_LT(gbrt->metrics().test_rmse, ridge->metrics().test_rmse);
}

TEST_F(SurrogateTest, NonGbrtPersistenceRejected) {
  auto ridge = Surrogate::TrainWithModel(
      std::make_unique<RidgeRegression>(1.0), workload_, 0.2, 3);
  ASSERT_TRUE(ridge.ok());
  EXPECT_EQ(ridge->Save("/tmp/x.txt").code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------- Finder

TEST(FinderTest, MinesPlantedRegions1d) {
  const SyntheticDataset ds = DensityData(1, 1, 7);
  ScanEvaluator eval(&ds.data, Statistic::Count({0}));
  WorkloadParams wparams;
  wparams.num_queries = 3000;
  const RegionWorkload workload =
      GenerateWorkload(eval, ds.data.ComputeBounds({0}), wparams);
  auto surrogate = Surrogate::Train(workload, SurrogateTrainOptions{});
  ASSERT_TRUE(surrogate.ok());

  FinderConfig config;
  config.gso.num_glowworms = 100;
  config.gso.max_iterations = 100;
  SurfFinder finder(surrogate->AsStatisticFn(), workload.space, config);
  finder.SetValidator(&eval);

  const FindResult result =
      finder.Find(1000.0, ThresholdDirection::kAbove);
  ASSERT_FALSE(result.regions.empty());
  // The best region must overlap the planted one.
  double best_iou = 0.0;
  for (const auto& r : result.regions) {
    best_iou = std::max(best_iou, r.region.IoU(ds.gt_regions[0]));
  }
  EXPECT_GT(best_iou, 0.4);
  EXPECT_GT(result.report.true_compliance, 0.5);
  EXPECT_GT(result.report.particle_valid_fraction, 0.3);
}

TEST(FinderTest, BelowDirectionFindsSparseRegions) {
  const SyntheticDataset ds = DensityData(1, 1, 8);
  ScanEvaluator eval(&ds.data, Statistic::Count({0}));
  WorkloadParams wparams;
  wparams.num_queries = 3000;
  const RegionWorkload workload =
      GenerateWorkload(eval, ds.data.ComputeBounds({0}), wparams);
  auto surrogate = Surrogate::Train(workload, SurrogateTrainOptions{});
  ASSERT_TRUE(surrogate.ok());

  FinderConfig config;
  config.gso.num_glowworms = 80;
  config.gso.max_iterations = 80;
  SurfFinder finder(surrogate->AsStatisticFn(), workload.space, config);
  finder.SetValidator(&eval);
  // Sparse request: fewer than 600 points. With ~8k background points per
  // unit, boxes under half-length ~0.037 qualify, so a healthy slice of
  // the initial swarm starts valid.
  const FindResult result = finder.Find(600.0, ThresholdDirection::kBelow);
  ASSERT_FALSE(result.regions.empty());
  for (const auto& r : result.regions) {
    EXPECT_LT(r.estimate, 600.0);
  }
  EXPECT_GT(result.report.true_compliance, 0.5);
}

TEST(FinderTest, ReportedEstimatesAreTheSurrogatePredictions) {
  // Extraction reads the statistic each particle's last score carried
  // instead of predicting again; it must still be exactly the
  // surrogate's prediction for the reported region, batched or scalar,
  // threshold or top-k.
  const SyntheticDataset ds = DensityData(2, 1, 11);
  ScanEvaluator eval(&ds.data, Statistic::Count({0, 1}));
  WorkloadParams wparams;
  wparams.num_queries = 2000;
  const RegionWorkload workload =
      GenerateWorkload(eval, ds.data.ComputeBounds({0, 1}), wparams);
  auto surrogate = Surrogate::Train(workload, SurrogateTrainOptions{});
  ASSERT_TRUE(surrogate.ok());

  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batched" : "scalar");
    FinderConfig config;
    config.gso.num_glowworms = 60;
    config.gso.max_iterations = 40;
    SurfFinder finder(surrogate->AsStatisticFn(), workload.space, config);
    TopKConfig topk_config;
    topk_config.gso.num_glowworms = 60;
    topk_config.gso.max_iterations = 40;
    TopKFinder topk(surrogate->AsStatisticFn(), workload.space,
                    topk_config);
    if (batched) {
      finder.SetBatchEstimate(surrogate->AsBatchStatisticFn());
      topk.SetBatchEstimate(surrogate->AsBatchStatisticFn());
    }
    const FindResult found = finder.Find(300.0, ThresholdDirection::kAbove);
    ASSERT_FALSE(found.regions.empty());
    for (const FoundRegion& r : found.regions) {
      EXPECT_EQ(r.estimate, surrogate->Predict(r.region));
    }
    const TopKResult best = topk.Find();
    ASSERT_FALSE(best.regions.empty());
    for (const ScoredRegion& r : best.regions) {
      EXPECT_EQ(r.statistic, surrogate->Predict(r.region));
    }
  }
}

TEST(FinderTest, ValidatorOffLeavesNaNTruth) {
  const SyntheticDataset ds = DensityData(1, 1, 9);
  ScanEvaluator eval(&ds.data, Statistic::Count({0}));
  WorkloadParams wparams;
  wparams.num_queries = 2000;
  const RegionWorkload workload =
      GenerateWorkload(eval, ds.data.ComputeBounds({0}), wparams);
  auto surrogate = Surrogate::Train(workload, SurrogateTrainOptions{});
  ASSERT_TRUE(surrogate.ok());
  FinderConfig config;
  config.gso.num_glowworms = 60;
  config.gso.max_iterations = 60;
  SurfFinder finder(surrogate->AsStatisticFn(), workload.space, config);
  const FindResult result =
      finder.Find(1000.0, ThresholdDirection::kAbove);
  for (const auto& r : result.regions) {
    EXPECT_TRUE(std::isnan(r.true_value));
    EXPECT_FALSE(r.complies_true);
  }
}

TEST(FinderTest, NmsLimitsRegionCount) {
  const SyntheticDataset ds = DensityData(1, 3, 10);
  ScanEvaluator eval(&ds.data, Statistic::Count({0}));
  WorkloadParams wparams;
  wparams.num_queries = 2500;
  const RegionWorkload workload =
      GenerateWorkload(eval, ds.data.ComputeBounds({0}), wparams);
  auto surrogate = Surrogate::Train(workload, SurrogateTrainOptions{});
  ASSERT_TRUE(surrogate.ok());
  FinderConfig config;
  config.max_regions = 2;
  config.gso.num_glowworms = 80;
  config.gso.max_iterations = 60;
  SurfFinder finder(surrogate->AsStatisticFn(), workload.space, config);
  const FindResult result =
      finder.Find(1000.0, ThresholdDirection::kAbove);
  EXPECT_LE(result.regions.size(), 2u);
}

// ------------------------------------------------------------------ Surf

TEST(SurfTest, BuildValidatesInput) {
  SurfOptions options;
  EXPECT_FALSE(Surf::Build(nullptr, Statistic::Count({0}), options).ok());

  Dataset empty({"x"});
  EXPECT_FALSE(Surf::Build(&empty, Statistic::Count({0}), options).ok());

  Dataset one_col({"x"});
  one_col.AddRow({0.5});
  EXPECT_FALSE(
      Surf::Build(&one_col, Statistic::Count({0, 5}), options).ok());
  EXPECT_FALSE(
      Surf::Build(&one_col, Statistic::Average({0}, 9), options).ok());
  EXPECT_FALSE(Surf::Build(&one_col, Statistic{}, options).ok());
}

TEST(SurfTest, RejectsWhatTheServiceRejects) {
  const SyntheticDataset ds = DensityData(2, 1, 16);
  SurfOptions options;
  options.workload.num_queries = 0;
  auto empty = Surf::Build(&ds.data, Statistic::Count({0, 1}), options);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(empty.status().message(),
            "training.workload.num_queries must be >= 1");

  options.workload.num_queries = 300;
  options.shards = 4097;
  auto oversharded = Surf::Build(&ds.data, Statistic::Count({0, 1}), options);
  ASSERT_FALSE(oversharded.ok());
  EXPECT_EQ(oversharded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(oversharded.status().message(), "execution.shards must be <= 4096");

  options.shards = 1;
  options.finder.gso.max_iterations = 5;
  auto surf = Surf::Build(&ds.data, Statistic::Count({0, 1}), options);
  ASSERT_TRUE(surf.ok()) << surf.status().ToString();
  for (const auto& [threshold, direction] :
       {std::pair{std::nan(""), ThresholdDirection::kAbove},
        std::pair{std::numeric_limits<double>::infinity(),
                  ThresholdDirection::kBelow},
        std::pair{-std::numeric_limits<double>::infinity(),
                  ThresholdDirection::kAbove}}) {
    auto found = surf->FindRegions(threshold, direction);
    ASSERT_FALSE(found.ok());
    EXPECT_EQ(found.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(found.status().message(), "threshold must be finite");
  }
  EXPECT_TRUE(surf->FindRegions(500.0, ThresholdDirection::kAbove).ok());
}

TEST(SurfTest, EndToEndDensityMining) {
  const SyntheticDataset ds = DensityData(2, 1, 11);
  SurfOptions options;
  options.workload.num_queries = 4000;
  options.finder.gso.num_glowworms = 120;
  options.finder.gso.max_iterations = 100;
  auto surf = Surf::Build(&ds.data, Statistic::Count({0, 1}), options);
  ASSERT_TRUE(surf.ok());

  const FindResult result =
      surf->FindRegions(1000.0, ThresholdDirection::kAbove).value();
  ASSERT_FALSE(result.regions.empty());
  double best_iou = 0.0;
  for (const auto& r : result.regions) {
    best_iou = std::max(best_iou, r.region.IoU(ds.gt_regions[0]));
  }
  EXPECT_GT(best_iou, 0.3);
  EXPECT_GT(result.report.true_compliance, 0.6);
}

TEST(SurfTest, BackendsProduceSameWorkloadTargets) {
  const SyntheticDataset ds = DensityData(2, 1, 12);
  for (const auto& [kind, shards] :
       {std::pair{BackendKind::kScan, size_t{1}},
        std::pair{BackendKind::kGridIndex, size_t{1}},
        std::pair{BackendKind::kScan, size_t{2}}}) {
    auto eval =
        MakeEvaluator(kind, &ds.data, Statistic::Count({0, 1}), shards);
    // Same seed → same queries → identical targets across back-ends.
    WorkloadParams params;
    params.num_queries = 100;
    params.seed = 55;
    const RegionWorkload workload =
        GenerateWorkload(*eval, ds.data.ComputeBounds({0, 1}), params);
    ASSERT_EQ(workload.size(), 100u);
    ScanEvaluator ref(&ds.data, Statistic::Count({0, 1}));
    for (size_t i = 0; i < 20; ++i) {
      EXPECT_DOUBLE_EQ(workload.targets[i],
                       ref.Evaluate(workload.RegionAt(i)));
    }
  }
}

TEST(SurfTest, EcdfSamplingWorks) {
  const SyntheticDataset ds = DensityData(2, 1, 13);
  SurfOptions options;
  options.workload.num_queries = 1500;
  options.finder.gso.max_iterations = 30;
  auto surf = Surf::Build(&ds.data, Statistic::Count({0, 1}), options);
  ASSERT_TRUE(surf.ok());
  const Ecdf ecdf = surf->SampleStatisticEcdf(500, 3);
  EXPECT_EQ(ecdf.num_samples(), 500u);
  EXPECT_GT(ecdf.Quantile(0.75), ecdf.Quantile(0.25));
}

TEST(SurfTest, KdeCanBeDisabled) {
  const SyntheticDataset ds = DensityData(1, 1, 14);
  SurfOptions options;
  options.fit_kde = false;
  options.workload.num_queries = 1500;
  options.finder.gso.num_glowworms = 60;
  options.finder.gso.max_iterations = 50;
  auto surf = Surf::Build(&ds.data, Statistic::Count({0}), options);
  ASSERT_TRUE(surf.ok());
  const FindResult result =
      surf->FindRegions(1000.0, ThresholdDirection::kAbove).value();
  // Still functional without the Eq. 8 prior.
  EXPECT_FALSE(result.regions.empty());
}

/// FitDataKde gathers only the sampled rows, yet must draw exactly the
/// sample (and hence the bandwidths) Kde::FitSampled draws from every
/// row, above and below the sample cap.
TEST(SurfTest, FitDataKdeMatchesFitSampledOverAllRows) {
  const SyntheticDataset ds = DensityData(3, 2, 15);
  const std::vector<size_t> cols = {2, 0};
  for (size_t cap : {size_t{500}, ds.data.num_rows()}) {
    std::vector<std::vector<double>> points;
    for (size_t r = 0; r < ds.data.num_rows(); ++r) {
      points.push_back({ds.data.Get(r, 2), ds.data.Get(r, 0)});
    }
    Rng rng(77);
    const Kde expected = Kde::FitSampled(points, cap, &rng);
    const Kde actual = FitDataKde(ds.data, cols, cap, 77);
    ASSERT_EQ(actual.num_samples(), expected.num_samples());
    for (size_t i = 0; i < actual.num_samples(); ++i) {
      ASSERT_EQ(actual.SamplePoint(i), expected.SamplePoint(i)) << i;
    }
    EXPECT_EQ(actual.bandwidths(), expected.bandwidths());
  }
}

TEST(SurfTest, AggregateStatisticEndToEnd) {
  SyntheticSpec spec;
  spec.dims = 1;
  spec.num_gt_regions = 1;
  spec.statistic = SyntheticStatistic::kAggregate;
  spec.seed = 15;
  const SyntheticDataset ds = SyntheticGenerator::Generate(spec);

  SurfOptions options;
  options.workload.num_queries = 3000;
  options.finder.gso.num_glowworms = 100;
  options.finder.gso.max_iterations = 100;
  // Aggregates are flat inside the planted region, so recovering its
  // extent needs the size-rewarding end of the c knob (see bench_common
  // CFor for the full argument).
  options.finder.c = -1.0;
  ASSERT_EQ(ds.value_col, 1);
  auto surf = Surf::Build(
      &ds.data, Statistic::Average({0}, static_cast<size_t>(ds.value_col)),
      options);
  ASSERT_TRUE(surf.ok());
  const FindResult result =
      surf->FindRegions(2.0, ThresholdDirection::kAbove).value();
  ASSERT_FALSE(result.regions.empty());
  double best_iou = 0.0;
  for (const auto& r : result.regions) {
    best_iou = std::max(best_iou, r.region.IoU(ds.gt_regions[0]));
  }
  EXPECT_GT(best_iou, 0.3);
}

}  // namespace
}  // namespace surf
