// Tests for the statistics engine: statistic reduction semantics, the
// exact back-ends (scan / grid / sharded scan) and their agreement, the
// median's sketch bound on large regions, and the empirical CDF.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "accel/accel.h"
#include "core/surf.h"
#include "data/dataset.h"
#include "stats/ecdf.h"
#include "stats/evaluator.h"
#include "stats/grid_index.h"
#include "stats/sharded_evaluator.h"
#include "stats/statistic.h"
#include "util/rng.h"

namespace surf {
namespace {

/// Fixed 1-D dataset with a value column: points at 0.05, 0.15, ..., 0.95
/// and value = 10 * x.
Dataset MakeLineData() {
  Dataset ds({"x", "v"});
  for (int i = 0; i < 10; ++i) {
    const double x = 0.05 + 0.1 * i;
    ds.AddRow({x, 10.0 * x});
  }
  return ds;
}

/// Random dataset over [0,1]^d with a value column and a binary label.
Dataset MakeRandomData(size_t n, size_t d, uint64_t seed) {
  std::vector<std::string> names;
  for (size_t j = 0; j < d; ++j) names.push_back("a" + std::to_string(j));
  names.push_back("v");
  names.push_back("label");
  Dataset ds(names);
  Rng rng(seed);
  std::vector<double> row(d + 2);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) row[j] = rng.Uniform();
    row[d] = rng.Gaussian(1.0, 2.0);
    row[d + 1] = rng.Bernoulli(0.3) ? 1.0 : 0.0;
    ds.AddRow(row);
  }
  return ds;
}

// ------------------------------------------------------------- Statistic

TEST(StatisticTest, FactoryFieldsAndNames) {
  const Statistic count = Statistic::Count({0, 1});
  EXPECT_EQ(count.kind, StatisticKind::kCount);
  EXPECT_FALSE(count.needs_value_column());
  EXPECT_EQ(count.dims(), 2u);

  const Statistic avg = Statistic::Average({0}, 1);
  EXPECT_EQ(avg.kind, StatisticKind::kAverage);
  EXPECT_TRUE(avg.needs_value_column());
  EXPECT_EQ(avg.value_col, 1);

  EXPECT_EQ(StatisticKindName(StatisticKind::kCount), "count");
  EXPECT_EQ(StatisticKindName(StatisticKind::kMedian), "median");
  EXPECT_EQ(StatisticKindName(StatisticKind::kLabelRatio), "ratio");
}

TEST(StatisticTest, ReduceCount) {
  const Dataset ds = MakeLineData();
  EXPECT_DOUBLE_EQ(
      ReduceStatistic(ds, Statistic::Count({0}), {0, 1, 2}), 3.0);
  EXPECT_DOUBLE_EQ(ReduceStatistic(ds, Statistic::Count({0}), {}), 0.0);
}

TEST(StatisticTest, ReduceSumAndAverage) {
  const Dataset ds = MakeLineData();
  // Rows 0,1,2 have values 0.5, 1.5, 2.5.
  EXPECT_DOUBLE_EQ(ReduceStatistic(ds, Statistic::Sum({0}, 1), {0, 1, 2}),
                   4.5);
  EXPECT_DOUBLE_EQ(
      ReduceStatistic(ds, Statistic::Average({0}, 1), {0, 1, 2}), 1.5);
}

TEST(StatisticTest, EmptyAverageIsNaN) {
  const Dataset ds = MakeLineData();
  EXPECT_TRUE(
      std::isnan(ReduceStatistic(ds, Statistic::Average({0}, 1), {})));
  EXPECT_TRUE(
      std::isnan(ReduceStatistic(ds, Statistic::MedianOf({0}, 1), {})));
  // Sum of nothing is 0, not NaN.
  EXPECT_DOUBLE_EQ(ReduceStatistic(ds, Statistic::Sum({0}, 1), {}), 0.0);
}

TEST(StatisticTest, ReduceMedianOddEven) {
  const Dataset ds = MakeLineData();
  // Values of rows 0..2: 0.5 1.5 2.5 -> median 1.5.
  EXPECT_DOUBLE_EQ(
      ReduceStatistic(ds, Statistic::MedianOf({0}, 1), {0, 1, 2}), 1.5);
  // Rows 0..3: 0.5 1.5 2.5 3.5 -> median 2.0.
  EXPECT_DOUBLE_EQ(
      ReduceStatistic(ds, Statistic::MedianOf({0}, 1), {0, 1, 2, 3}), 2.0);
}

TEST(StatisticTest, ReduceVariance) {
  Dataset ds({"x", "v"});
  ds.AddRow({0.1, 2.0});
  ds.AddRow({0.2, 4.0});
  ds.AddRow({0.3, 6.0});
  // Sample variance of {2,4,6} = 4.
  EXPECT_NEAR(
      ReduceStatistic(ds, Statistic::VarianceOf({0}, 1), {0, 1, 2}), 4.0,
      1e-12);
  // Single point: variance 0; empty: NaN.
  EXPECT_DOUBLE_EQ(
      ReduceStatistic(ds, Statistic::VarianceOf({0}, 1), {0}), 0.0);
  EXPECT_TRUE(
      std::isnan(ReduceStatistic(ds, Statistic::VarianceOf({0}, 1), {})));
}

TEST(StatisticTest, ReduceLabelRatio) {
  Dataset ds({"x", "label"});
  ds.AddRow({0.1, 1.0});
  ds.AddRow({0.2, 0.0});
  ds.AddRow({0.3, 1.0});
  ds.AddRow({0.4, 1.0});
  EXPECT_DOUBLE_EQ(ReduceStatistic(ds, Statistic::LabelRatio({0}, 1, 1.0),
                                   {0, 1, 2, 3}),
                   0.75);
  EXPECT_DOUBLE_EQ(
      ReduceStatistic(ds, Statistic::LabelRatio({0}, 1, 1.0), {}), 0.0);
}

TEST(StatisticAccumulatorTest, BlockMergeMatchesPointwise) {
  const Statistic stat = Statistic::Average({0}, 1);
  StatisticAccumulator pointwise(stat);
  for (double v : {1.0, 2.0, 3.0, 4.0}) pointwise.Add(v);

  StatisticAccumulator blocked(stat);
  blocked.Add(1.0);
  blocked.AddBlock(3, 9.0, 29.0, 0);  // {2,3,4}: sum 9, sum² 29
  EXPECT_DOUBLE_EQ(pointwise.Finalize(), blocked.Finalize());
}

// -------------------------------------------------- Evaluators (3 kinds)

TEST(ScanEvaluatorTest, CountMatchesManual) {
  const Dataset ds = MakeLineData();
  ScanEvaluator eval(&ds, Statistic::Count({0}));
  // [0.04, 0.36] holds x = 0.05, 0.15, 0.25, 0.35 (edges chosen clear of
  // the points to avoid floating-point boundary ambiguity).
  EXPECT_DOUBLE_EQ(eval.Evaluate(Region({0.2}, {0.16})), 4.0);
  EXPECT_DOUBLE_EQ(eval.Evaluate(Region({0.5}, {0.5})), 10.0);
  EXPECT_DOUBLE_EQ(eval.Evaluate(Region({-1.0}, {0.1})), 0.0);
}

TEST(ScanEvaluatorTest, EvaluationCounter) {
  const Dataset ds = MakeLineData();
  ScanEvaluator eval(&ds, Statistic::Count({0}));
  EXPECT_EQ(eval.evaluation_count(), 0u);
  eval.Evaluate(Region({0.5}, {0.1}));
  eval.Evaluate(Region({0.5}, {0.2}));
  EXPECT_EQ(eval.evaluation_count(), 2u);
  eval.ResetEvaluationCount();
  EXPECT_EQ(eval.evaluation_count(), 0u);
}

TEST(ScanEvaluatorTest, AverageUndefinedOutsideData) {
  const Dataset ds = MakeLineData();
  ScanEvaluator eval(&ds, Statistic::Average({0}, 1));
  EXPECT_TRUE(std::isnan(eval.Evaluate(Region({5.0}, {0.1}))));
  EXPECT_NEAR(eval.Evaluate(Region({0.5}, {0.5})), 5.0, 1e-9);
}

/// Parameterized agreement suite: every back-end must produce the same
/// answers as the reference scan for every statistic kind. The regions
/// hold at most 3000 rows, so the median's sketch never compacts and is
/// exact too (MedianSketchTest covers the large-region case).
class BackendAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

/// 0 scan, 1 grid, 2 one natural-order shard, 3 three shards
/// range-partitioned as MakeEvaluator builds them.
std::unique_ptr<RegionEvaluator> MakeBackend(int which, const Dataset* ds,
                                             const Statistic& stat) {
  switch (which) {
    case 1:
      return std::make_unique<GridIndexEvaluator>(ds, stat, 8);
    case 2:
      return std::make_unique<ShardedScanEvaluator>(
          ShardedDataset::Partition(*ds, ShardingOptions{}), stat);
    case 3:
      return MakeEvaluator(BackendKind::kScan, ds, stat, 3);
    default:
      return std::make_unique<ScanEvaluator>(ds, stat);
  }
}

Statistic MakeStatistic(int kind, size_t d) {
  std::vector<size_t> cols;
  for (size_t j = 0; j < d; ++j) cols.push_back(j);
  switch (kind) {
    case 0:
      return Statistic::Count(cols);
    case 1:
      return Statistic::Average(cols, d);
    case 2:
      return Statistic::Sum(cols, d);
    case 3:
      return Statistic::MedianOf(cols, d);
    case 4:
      return Statistic::VarianceOf(cols, d);
    default:
      return Statistic::LabelRatio(cols, d + 1, 1.0);
  }
}

TEST_P(BackendAgreementTest, MatchesScanOnRandomQueries) {
  const int backend = std::get<0>(GetParam());
  const int kind = std::get<1>(GetParam());
  const size_t d = 2;
  const Dataset ds = MakeRandomData(3000, d, 42);
  const Statistic stat = MakeStatistic(kind, d);

  ScanEvaluator reference(&ds, stat);
  auto candidate = MakeBackend(backend, &ds, stat);

  Rng rng(7);
  for (int q = 0; q < 60; ++q) {
    std::vector<double> center(d), half(d);
    for (size_t j = 0; j < d; ++j) {
      center[j] = rng.Uniform();
      half[j] = rng.Uniform(0.02, 0.4);
    }
    const Region region(center, half);
    const double expected = reference.Evaluate(region);
    const double actual = candidate->Evaluate(region);
    if (std::isnan(expected)) {
      EXPECT_TRUE(std::isnan(actual)) << "query " << q;
    } else {
      EXPECT_NEAR(actual, expected, 1e-9 * (1.0 + std::fabs(expected)))
          << "query " << q;
    }
  }
}

std::string BackendCaseName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* backends[] = {"scan", "grid", "sharded1",
                                   "sharded3"};
  static const char* kinds[] = {"count", "avg",    "sum",
                                "median", "var",   "ratio"};
  return std::string(backends[std::get<0>(info.param)]) + "_" +
         kinds[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    AllBackendsAllStatistics, BackendAgreementTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0, 1, 2, 3, 4, 5)),
    BackendCaseName);

TEST(GridIndexTest, HighDimensionCellCap) {
  const Dataset ds = MakeRandomData(500, 5, 9);
  const Statistic stat =
      Statistic::Count(std::vector<size_t>{0, 1, 2, 3, 4});
  GridIndexEvaluator eval(&ds, stat, 64);
  // 64^5 would be 2^30 cells; the builder must cap resolution.
  EXPECT_LE(eval.num_cells(), (1u << 20));
  // And remain exact.
  ScanEvaluator ref(&ds, stat);
  const Region probe({0.5, 0.5, 0.5, 0.5, 0.5}, {0.3, 0.3, 0.3, 0.3, 0.3});
  EXPECT_DOUBLE_EQ(eval.Evaluate(probe), ref.Evaluate(probe));
}

/// Edge dataset over three box columns: a0 and a2 on a 1/16 lattice (so
/// rows sit exactly on cell boundaries at every tested resolution) and
/// a1 constant (a zero-extent column), plus value and label columns.
Dataset MakeLatticeData(size_t n, uint64_t seed) {
  Dataset ds({"a0", "a1", "a2", "v", "label"});
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    ds.AddRow({static_cast<double>((i * 7) % 17) / 16.0, 0.5,
               static_cast<double>((i * 5 + 3) % 17) / 16.0,
               rng.Gaussian(1.0, 2.0), rng.Bernoulli(0.3) ? 1.0 : 0.0});
  }
  return ds;
}

/// FNV-1a over the bit patterns of every label `eval` gives `regions`.
void HashLabels(const RegionEvaluator& eval,
                const std::vector<Region>& regions, uint64_t* hash) {
  for (const Region& region : regions) {
    uint64_t bits;
    const double y = eval.Evaluate(region);
    std::memcpy(&bits, &y, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      *hash ^= (bits >> (8 * b)) & 0xFF;
      *hash *= 0x100000001b3ull;
    }
  }
}

/// Random boxes over [0,1]^d plus the edge boxes: disjoint from the
/// data, straddling the domain's lower corner, covering the domain, and
/// a lo == hi box on the given data row.
std::vector<Region> GoldenRegions(const Dataset& ds, size_t d, size_t random,
                                  uint64_t seed) {
  std::vector<Region> regions;
  Rng rng(seed);
  for (size_t q = 0; q < random; ++q) {
    std::vector<double> center(d), half(d);
    for (size_t j = 0; j < d; ++j) {
      center[j] = rng.Uniform();
      half[j] = rng.Uniform(0.01, 0.3);
    }
    regions.emplace_back(center, half);
  }
  // Boxes whose faces lie exactly on the 1/16 lattice (a/16 .. b/16).
  for (size_t q = 0; q < 8; ++q) {
    std::vector<double> center(d), half(d);
    for (size_t j = 0; j < d; ++j) {
      const auto a = static_cast<double>(rng.UniformInt(16));
      const double b = a + 1.0 + static_cast<double>(rng.UniformInt(16));
      center[j] = (a + b) / 32.0;
      half[j] = (b - a) / 32.0;
    }
    regions.emplace_back(center, half);
  }
  std::vector<double> row(d);
  for (size_t j = 0; j < d; ++j) row[j] = ds.Get(ds.num_rows() / 2, j);
  regions.emplace_back(std::vector<double>(d, 5.0),
                       std::vector<double>(d, 0.5));
  regions.emplace_back(std::vector<double>(d, 0.0),
                       std::vector<double>(d, 0.3));
  regions.emplace_back(std::vector<double>(d, 0.5),
                       std::vector<double>(d, 2.0));
  regions.emplace_back(row, std::vector<double>(d, 0.0));
  return regions;
}

/// Golden hash of grid labels for every statistic kind, dims 1-5 and
/// cells_per_dim {1, 8, 16, 64} on random data, plus the lattice /
/// zero-extent edge dataset. The constant was captured from the original
/// row-list grid, so any change to the grid's accumulation order, block
/// merges or membership test shows up here; it must hold on every accel
/// backend the host supports.
TEST(GridIndexTest, GoldenLabelsOnEveryAccelBackend) {
  constexpr uint64_t kGolden = 14151991432217837629ull;
  struct Config {
    std::unique_ptr<GridIndexEvaluator> grid;
    std::vector<Region> regions;
  };
  std::vector<Dataset> datasets;
  datasets.reserve(6);
  for (size_t d = 1; d <= 5; ++d) {
    datasets.push_back(MakeRandomData(1200, d, 100 + d));
  }
  datasets.push_back(MakeLatticeData(1200, 106));
  std::vector<Config> configs;
  for (size_t i = 0; i < datasets.size(); ++i) {
    const Dataset& ds = datasets[i];
    const size_t d = i < 5 ? i + 1 : 3;
    for (int kind = 0; kind < 6; ++kind) {
      const Statistic stat = MakeStatistic(kind, d);
      for (size_t cells : {1, 8, 16, 64}) {
        Config config;
        config.grid = std::make_unique<GridIndexEvaluator>(&ds, stat, cells);
        config.regions = GoldenRegions(ds, d, 24, 1000 * d + cells);
        configs.push_back(std::move(config));
      }
    }
  }
  const AccelBackend original = ActiveAccelBackend();
  for (int b = 0; b < kNumAccelBackends; ++b) {
    const auto backend = static_cast<AccelBackend>(b);
    if (!SetActiveAccelBackend(backend)) continue;
    uint64_t hash = 0xcbf29ce484222325ull;
    for (const Config& config : configs) {
      HashLabels(*config.grid, config.regions, &hash);
    }
    EXPECT_EQ(hash, kGolden) << AccelBackendName(backend);
  }
  SetActiveAccelBackend(original);
}

TEST(GridIndexTest, OneDimensionalData) {
  // The grid and the sharded scan must cope with d = 1, and a box
  // covering the whole domain counts every row.
  const Dataset ds = MakeRandomData(512, 1, 14);
  const Statistic stat = Statistic::Count({0});
  ScanEvaluator ref(&ds, stat);
  for (int which : {1, 3}) {
    auto eval = MakeBackend(which, &ds, stat);
    EXPECT_DOUBLE_EQ(eval->Evaluate(Region({0.5}, {1.0})), 512.0);
    Rng rng(15);
    for (int q = 0; q < 30; ++q) {
      const Region region({rng.Uniform()}, {rng.Uniform(0.05, 0.3)});
      EXPECT_DOUBLE_EQ(eval->Evaluate(region), ref.Evaluate(region))
          << "backend " << which << " query " << q;
    }
  }
}

/// Past QuantileSketch::kDefaultCapacity rows in one region the median
/// sketch compacts, and its answer then depends on the order rows reach
/// it: the scan feeds dataset order, the grid cell order, the sharded
/// scan merges per-shard sketches. No back-end is exact there, but each
/// must stay within the sketch's 2% rank bound of the true median.
TEST(MedianSketchTest, LargeRegionsStayWithinRankBound) {
  const size_t d = 2;
  const Dataset ds = MakeRandomData(30000, d, 21);
  const Statistic stat = Statistic::MedianOf({0, 1}, d);
  std::vector<std::unique_ptr<RegionEvaluator>> backends;
  backends.push_back(std::make_unique<ScanEvaluator>(&ds, stat));
  backends.push_back(MakeEvaluator(BackendKind::kGridIndex, &ds, stat));
  backends.push_back(MakeEvaluator(BackendKind::kScan, &ds, stat, 2));
  backends.push_back(MakeEvaluator(BackendKind::kScan, &ds, stat, 8));

  Rng rng(22);
  for (int q = 0; q < 12; ++q) {
    const Region region({rng.Uniform(0.4, 0.6), rng.Uniform(0.4, 0.6)},
                        {rng.Uniform(0.3, 0.5), rng.Uniform(0.3, 0.5)});
    std::vector<double> inside;
    for (size_t r = 0; r < ds.num_rows(); ++r) {
      if (region.Contains({ds.column(0)[r], ds.column(1)[r]})) {
        inside.push_back(ds.column(d)[r]);
      }
    }
    ASSERT_GT(inside.size(), QuantileSketch::kDefaultCapacity);
    const size_t mid = (inside.size() - 1) / 2;
    std::nth_element(inside.begin(), inside.begin() + mid, inside.end());
    const double exact = inside[mid];
    const double bound = 0.02 * static_cast<double>(inside.size());
    for (size_t b = 0; b < backends.size(); ++b) {
      const double answer = backends[b]->Evaluate(region);
      const double lo = std::min(answer, exact);
      const double hi = std::max(answer, exact);
      const auto between = std::count_if(
          inside.begin(), inside.end(),
          [&](double v) { return v > lo && v < hi; });
      EXPECT_LE(static_cast<double>(between), bound)
          << "backend " << b << " query " << q << ": answer " << answer
          << " vs exact " << exact;
    }
  }
}

// ------------------------------------------------------------------ Ecdf

TEST(EcdfTest, CdfSteps) {
  const Ecdf ecdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(ecdf.Cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(ecdf.Cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(ecdf.Cdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(ecdf.Cdf(10.0), 1.0);
}

TEST(EcdfTest, ExceedanceComplements) {
  const Ecdf ecdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(ecdf.Exceedance(2.5), 0.5);
  EXPECT_DOUBLE_EQ(ecdf.Cdf(2.5) + ecdf.Exceedance(2.5), 1.0);
}

TEST(EcdfTest, QuantileInterpolation) {
  const Ecdf ecdf({10.0, 20.0, 30.0, 40.0, 50.0});
  EXPECT_DOUBLE_EQ(ecdf.Quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(ecdf.Quantile(0.5), 30.0);
  EXPECT_DOUBLE_EQ(ecdf.Quantile(1.0), 50.0);
  EXPECT_DOUBLE_EQ(ecdf.Quantile(0.75), 40.0);
}

TEST(EcdfTest, DropsNaNSamples) {
  const Ecdf ecdf({1.0, std::nan(""), 3.0});
  EXPECT_EQ(ecdf.num_samples(), 2u);
  EXPECT_DOUBLE_EQ(ecdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(ecdf.max(), 3.0);
}

TEST(EcdfTest, EmptyIsSafe) {
  const Ecdf ecdf(std::vector<double>{});
  EXPECT_EQ(ecdf.num_samples(), 0u);
  EXPECT_DOUBLE_EQ(ecdf.Cdf(1.0), 0.0);
  EXPECT_DOUBLE_EQ(ecdf.Quantile(0.5), 0.0);
}

TEST(EcdfTest, MatchesTheoreticalUniform) {
  Rng rng(33);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.Uniform());
  const Ecdf ecdf(std::move(samples));
  EXPECT_NEAR(ecdf.Cdf(0.25), 0.25, 0.01);
  EXPECT_NEAR(ecdf.Quantile(0.75), 0.75, 0.01);
}

}  // namespace
}  // namespace surf
