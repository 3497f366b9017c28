// Edge-case and failure-injection tests: degenerate datasets, corrupt
// persisted artifacts, extreme parameters, and boundary geometries —
// the inputs a production deployment actually encounters.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/surf.h"
#include "core/topk.h"
#include "data/synthetic.h"
#include "ml/gbrt.h"
#include "ml/kde.h"
#include "stats/grid_index.h"

namespace surf {
namespace {

/// The exact back-ends the degenerate-data cases run over: the scan, the
/// grid, and the sharded scan at 2 shards.
std::vector<std::unique_ptr<RegionEvaluator>> AllBackends(
    const Dataset* ds, const Statistic& stat) {
  std::vector<std::unique_ptr<RegionEvaluator>> backends;
  backends.push_back(MakeEvaluator(BackendKind::kScan, ds, stat));
  backends.push_back(MakeEvaluator(BackendKind::kGridIndex, ds, stat));
  backends.push_back(MakeEvaluator(BackendKind::kScan, ds, stat, 2));
  return backends;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream os(path);
  os << content;
}

// ----------------------------------------------------- Degenerate data

TEST(EdgeDataTest, AllPointsIdentical) {
  Dataset ds({"x", "y"});
  for (int i = 0; i < 100; ++i) ds.AddRow({0.5, 0.5});
  // Every back-end must handle a zero-extent bounding box.
  const auto backends = AllBackends(&ds, Statistic::Count({0, 1}));
  for (size_t b = 0; b < backends.size(); ++b) {
    EXPECT_DOUBLE_EQ(backends[b]->Evaluate(Region({0.5, 0.5}, {0.1, 0.1})),
                     100.0)
        << "backend " << b;
    EXPECT_DOUBLE_EQ(backends[b]->Evaluate(Region({0.9, 0.9}, {0.1, 0.1})),
                     0.0)
        << "backend " << b;
  }
}

TEST(EdgeDataTest, SingleRowDataset) {
  Dataset ds({"x"});
  ds.AddRow({0.3});
  const auto backends = AllBackends(&ds, Statistic::Count({0}));
  for (size_t b = 0; b < backends.size(); ++b) {
    EXPECT_DOUBLE_EQ(backends[b]->Evaluate(Region({0.3}, {0.01})), 1.0)
        << "backend " << b;
    EXPECT_DOUBLE_EQ(backends[b]->Evaluate(Region({0.7}, {0.01})), 0.0)
        << "backend " << b;
  }
}

TEST(EdgeDataTest, ZeroWidthQueryBox) {
  Dataset ds({"x"});
  ds.AddRow({0.5});
  ds.AddRow({0.6});
  ScanEvaluator eval(&ds, Statistic::Count({0}));
  // A zero-half-length box is a point probe: inclusive edges catch an
  // exactly-coincident point.
  EXPECT_DOUBLE_EQ(eval.Evaluate(Region({0.5}, {0.0})), 1.0);
  EXPECT_DOUBLE_EQ(eval.Evaluate(Region({0.55}, {0.0})), 0.0);
}

TEST(EdgeDataTest, NegativeCoordinatesSupported) {
  Dataset ds({"x", "y"});
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    ds.AddRow({rng.Uniform(-10.0, -5.0), rng.Uniform(100.0, 200.0)});
  }
  GridIndexEvaluator grid(&ds, Statistic::Count({0, 1}));
  ScanEvaluator scan(&ds, Statistic::Count({0, 1}));
  const Region probe({-7.5, 150.0}, {1.0, 25.0});
  EXPECT_DOUBLE_EQ(grid.Evaluate(probe), scan.Evaluate(probe));
  EXPECT_GT(grid.Evaluate(probe), 0.0);
}

// ------------------------------------------------- Corrupt persistence

TEST(EdgePersistenceTest, TruncatedModelFileRejected) {
  // Train and save a real model, then truncate it mid-body.
  FeatureMatrix x(1);
  std::vector<double> y;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.Uniform();
    x.AddRow({v});
    y.push_back(v * 2.0);
  }
  GradientBoostedTrees model;
  ASSERT_TRUE(model.Fit(x, y).ok());
  const std::string path = "/tmp/surf_trunc.model";
  ASSERT_TRUE(model.Save(path).ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  WriteFile(path, content.substr(0, content.size() / 2));
  EXPECT_FALSE(GradientBoostedTrees::Load(path).ok());
  std::remove(path.c_str());
}

TEST(EdgePersistenceTest, WorkloadBadHeaderRejected) {
  const std::string path = "/tmp/surf_badwl.csv";
  WriteFile(path, "# not-a-workload dims=2\n0.1,0.2,0.3,0.4,5\n");
  EXPECT_FALSE(LoadWorkload(path).ok());
  std::remove(path.c_str());
}

TEST(EdgePersistenceTest, WorkloadRaggedRowRejected) {
  const std::string path = "/tmp/surf_ragged_wl.csv";
  WriteFile(path,
            "# surf-workload-v1 dims=1 min_len=0.01 max_len=0.15 "
            "b0=0:1\n0.5,0.1,7\n0.5,0.1\n");
  EXPECT_FALSE(LoadWorkload(path).ok());
  std::remove(path.c_str());
}

TEST(EdgePersistenceTest, SurrogateBadMagicRejected) {
  const std::string path = "/tmp/surf_badmagic.surf";
  WriteFile(path, "wrong-header\n1 2 3\n");
  EXPECT_FALSE(Surrogate::Load(path).ok());
  std::remove(path.c_str());
}

// ------------------------------------------------- Extreme parameters

TEST(EdgeParamTest, GsoWithTwoParticles) {
  // The minimum swarm: no crash, sane outputs.
  GsoParams params;
  params.num_glowworms = 2;
  params.max_iterations = 10;
  RegionSolutionSpace space;
  space.bounds = Bounds::Unit(1);
  space.min_half_length = 0.01;
  space.max_half_length = 0.5;
  const FitnessFn fn = [](const Region& r) {
    FitnessValue fv;
    fv.value = -r.center(0);
    fv.valid = true;
    return fv;
  };
  const GsoResult result =
      GlowwormSwarmOptimizer(params).Optimize(fn, space);
  EXPECT_EQ(result.particles.size(), 2u);
  EXPECT_DOUBLE_EQ(result.ValidFraction(), 1.0);
}

TEST(EdgeParamTest, GsoZeroIterations) {
  GsoParams params;
  params.num_glowworms = 10;
  params.max_iterations = 0;
  RegionSolutionSpace space;
  space.bounds = Bounds::Unit(1);
  space.min_half_length = 0.01;
  space.max_half_length = 0.5;
  const FitnessFn fn = [](const Region&) {
    FitnessValue fv;
    fv.value = 1.0;
    fv.valid = true;
    return fv;
  };
  const GsoResult result =
      GlowwormSwarmOptimizer(params).Optimize(fn, space);
  // Final refresh still scores the initial particles.
  EXPECT_EQ(result.iterations_run, 0u);
  EXPECT_DOUBLE_EQ(result.ValidFraction(), 1.0);
}

TEST(EdgeParamTest, NaiveSearchSingleCell) {
  ObjectiveConfig config;
  config.threshold = -1.0;
  const RegionObjective obj([](const Region&) { return 0.0; }, config);
  NaiveSearchParams params;
  params.centers_per_dim = 1;
  params.sizes_per_dim = 1;
  RegionSolutionSpace space;
  space.bounds = Bounds::Unit(2);
  space.min_half_length = 0.1;
  space.max_half_length = 0.1;
  const NaiveSearchResult result = NaiveSearch(params).Run(obj, space);
  EXPECT_EQ(result.total_candidates, 1u);
  EXPECT_EQ(result.examined, 1u);
}

TEST(EdgeParamTest, GbrtSingleSample) {
  GradientBoostedTrees model;
  FeatureMatrix x(1);
  x.AddRow({0.5});
  ASSERT_TRUE(model.Fit(x, {7.0}).ok());
  EXPECT_NEAR(model.Predict({0.5}), 7.0, 1e-6);
  EXPECT_NEAR(model.Predict({99.0}), 7.0, 1e-6);  // clamps to the leaf
}

TEST(EdgeParamTest, KdeSingleSample) {
  const Kde kde = Kde::Fit({{0.5, 0.5}});
  EXPECT_GT(kde.Density({0.5, 0.5}), 0.0);
  EXPECT_NEAR(kde.RegionMass(Region({0.5, 0.5}, {50.0, 50.0})), 1.0,
              1e-9);
}

TEST(EdgeParamTest, TopKLargerThanSwarmModes) {
  // k far larger than the number of actual modes: returns what exists.
  SyntheticSpec spec;
  spec.dims = 1;
  spec.num_gt_regions = 1;
  spec.statistic = SyntheticStatistic::kDensity;
  spec.seed = 9;
  const SyntheticDataset ds = SyntheticGenerator::Generate(spec);
  GridIndexEvaluator eval(&ds.data, Statistic::Count({0}));
  WorkloadParams wp;
  wp.num_queries = 1500;
  const RegionWorkload workload =
      GenerateWorkload(eval, ds.data.ComputeBounds({0}), wp);
  auto surrogate = Surrogate::Train(workload, SurrogateTrainOptions{});
  ASSERT_TRUE(surrogate.ok());
  TopKConfig config;
  config.k = 50;
  config.gso.num_glowworms = 60;
  config.gso.max_iterations = 60;
  TopKFinder finder(surrogate->AsStatisticFn(), workload.space, config);
  const TopKResult result = finder.Find();
  EXPECT_LE(result.regions.size(), 50u);
  EXPECT_GE(result.regions.size(), 1u);
}

// -------------------------------------------------- Boundary geometry

TEST(EdgeGeomTest, RegionSpanningWholeDomain) {
  const SyntheticDataset ds = [] {
    SyntheticSpec spec;
    spec.dims = 2;
    spec.seed = 2;
    return SyntheticGenerator::Generate(spec);
  }();
  ScanEvaluator eval(&ds.data, Statistic::Count({0, 1}));
  const Region whole({0.5, 0.5}, {10.0, 10.0});
  EXPECT_DOUBLE_EQ(eval.Evaluate(whole),
                   static_cast<double>(ds.data.num_rows()));
}

TEST(EdgeGeomTest, IoUWithWildlyDifferentScales) {
  const Region tiny({0.5}, {1e-6});
  const Region huge({0.5}, {1e6});
  const double iou = tiny.IoU(huge);
  EXPECT_GT(iou, 0.0);
  EXPECT_LT(iou, 1e-10);
  EXPECT_TRUE(tiny.Within(huge));
}

TEST(EdgeGeomTest, ObjectiveAtThresholdBoundaryIsInvalid) {
  // diff == 0 exactly: log(0) undefined → invalid, no crash.
  ObjectiveConfig config;
  config.threshold = 5.0;
  config.direction = ThresholdDirection::kAbove;
  const RegionObjective obj([](const Region&) { return 5.0; }, config);
  EXPECT_FALSE(obj.Evaluate(Region({0.5}, {0.1})).valid);
}

TEST(EdgeGeomTest, EcdfQuantileAtSingleSample) {
  const Ecdf ecdf(std::vector<double>{42.0});
  EXPECT_DOUBLE_EQ(ecdf.Quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(ecdf.Quantile(1.0), 42.0);
  EXPECT_DOUBLE_EQ(ecdf.Cdf(41.0), 0.0);
  EXPECT_DOUBLE_EQ(ecdf.Cdf(42.0), 1.0);
}

// ------------------------------------------- Statistic NaN propagation

TEST(EdgeNanTest, SurrogateTrainingSurvivesSparseAggregates) {
  // An aggregate statistic over sparse data yields many NaN targets; the
  // workload must drop them and training must succeed on the remainder.
  Dataset ds({"x", "v"});
  Rng rng(6);
  for (int i = 0; i < 60; ++i) {
    ds.AddRow({rng.Uniform(0.4, 0.6), rng.Gaussian(3.0, 0.1)});
  }
  ScanEvaluator eval(&ds, Statistic::Average({0}, 1));
  WorkloadParams params;
  params.num_queries = 500;
  const RegionWorkload workload =
      GenerateWorkload(eval, Bounds::Unit(1), params);
  ASSERT_GT(workload.size(), 0u);
  ASSERT_LT(workload.size(), 500u);  // some were dropped
  auto surrogate = Surrogate::Train(workload, SurrogateTrainOptions{});
  EXPECT_TRUE(surrogate.ok());
}

TEST(EdgeNanTest, FitnessOnNanStatisticNeverValid) {
  ObjectiveConfig config;
  config.threshold = 0.0;
  for (bool use_log : {true, false}) {
    config.use_log = use_log;
    const RegionObjective obj(
        [](const Region&) { return std::nan(""); }, config);
    EXPECT_FALSE(obj.Evaluate(Region({0.5}, {0.1})).valid);
  }
}

}  // namespace
}  // namespace surf
