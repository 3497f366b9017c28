// Tests for the parallel, cache-efficient GBRT engine: the contiguous
// binned layout, sibling histogram subtraction, batch prediction through
// the complete-tree image (bitwise against per-row Predict on both sides
// of its level cap, and kept in step with the trees), thread-count
// determinism, batched surrogate evaluation, and hardened model
// deserialization.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>

#include "accel/accel.h"
#include "core/surrogate.h"
#include "core/workload.h"
#include "geom/bounds.h"
#include "ml/binning.h"
#include "ml/gbrt.h"
#include "ml/matrix.h"
#include "ml/tree.h"
#include "opt/gso.h"
#include "opt/naive_search.h"
#include "opt/objective.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "util/status.h"

namespace surf {
namespace {

/// Selects an accel backend via the SURF_ACCEL environment override (the
/// same path a user would take) and restores the previous state on exit.
class ScopedAccelEnv {
 public:
  explicit ScopedAccelEnv(AccelBackend backend)
      : active_(ActiveAccelBackend()) {
    const char* env = std::getenv("SURF_ACCEL");
    had_env_ = env != nullptr;
    if (had_env_) env_ = env;
    setenv("SURF_ACCEL", AccelBackendName(backend), 1);
    ReselectAccelFromEnv();
  }
  ~ScopedAccelEnv() {
    if (had_env_) {
      setenv("SURF_ACCEL", env_.c_str(), 1);
    } else {
      unsetenv("SURF_ACCEL");
    }
    SetActiveAccelBackend(active_);
  }

 private:
  AccelBackend active_;
  bool had_env_ = false;
  std::string env_;
};

/// Every backend the host can actually run, generic first.
std::vector<AccelBackend> SupportedBackends() {
  std::vector<AccelBackend> out;
  for (int b = 0; b < kNumAccelBackends; ++b) {
    const AccelBackend backend = static_cast<AccelBackend>(b);
    if (AccelSupported(backend)) out.push_back(backend);
  }
  return out;
}

double BumpyFn(const std::vector<double>& x) {
  double out = std::sin(5.0 * x[0]) + 0.5 * x[1];
  for (size_t j = 2; j < x.size(); ++j) out += 0.2 * x[j] * x[j];
  return out;
}

void MakeProblem(size_t n, size_t d, uint64_t seed, FeatureMatrix* x,
                 std::vector<double>* y) {
  Rng rng(seed);
  *x = FeatureMatrix(d);
  x->Reserve(n);
  y->clear();
  y->reserve(n);
  std::vector<double> row(d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) row[j] = rng.Uniform();
    x->AddRow(row);
    y->push_back(BumpyFn(row));
  }
}

// ------------------------------------------------------------ BinnedMatrix

TEST(BinnedMatrixTest, MatchesLegacyNestedLayout) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeProblem(700, 3, 41, &x, &y);
  const FeatureBinner binner(x, 64);
  const BinnedMatrix flat = binner.Bin(x);
  const auto nested = binner.BinMatrix(x);

  ASSERT_EQ(flat.num_rows(), x.num_rows());
  ASSERT_EQ(flat.num_features(), x.num_features());
  uint32_t expected_offset = 0;
  for (size_t j = 0; j < x.num_features(); ++j) {
    EXPECT_EQ(flat.bin_offset(j), expected_offset);
    EXPECT_EQ(flat.num_bins(j), binner.num_bins(j));
    expected_offset += flat.num_bins(j);
    for (size_t r = 0; r < x.num_rows(); ++r) {
      ASSERT_EQ(flat.col(j)[r], nested[j][r]);
    }
  }
  EXPECT_EQ(flat.total_bins(), expected_offset);
}

// ------------------------------------------------- sibling subtraction

TEST(GbrtEngineTest, SiblingSubtractionMatchesDirectBuild) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeProblem(2500, 5, 43, &x, &y);

  GbrtParams direct;
  direct.n_estimators = 60;
  direct.max_depth = 7;
  direct.use_sibling_subtraction = false;
  GbrtParams subtract = direct;
  subtract.use_sibling_subtraction = true;

  GradientBoostedTrees a(direct), b(subtract);
  ASSERT_TRUE(a.Fit(x, y).ok());
  ASSERT_TRUE(b.Fit(x, y).ok());
  ASSERT_EQ(a.num_trees(), b.num_trees());

  // Histogram subtraction changes only the floating-point rounding of the
  // per-bin sums (parent − small vs a fresh accumulation), so predictions
  // agree to ~1e-14 relative; anything beyond that would mean a split
  // actually flipped.
  const std::vector<double> pa = a.PredictBatch(x);
  const std::vector<double> pb = b.PredictBatch(x);
  for (size_t r = 0; r < x.num_rows(); ++r) {
    EXPECT_NEAR(pa[r], pb[r], 1e-9) << "row " << r;
  }
}

TEST(TreeTest, SubtractionAndDirectSplitsAgree) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeProblem(1200, 3, 44, &x, &y);
  std::vector<double> grad(y.size());
  for (size_t i = 0; i < y.size(); ++i) grad[i] = -y[i];
  std::vector<uint32_t> rows_a(y.size()), rows_b(y.size());
  for (size_t i = 0; i < y.size(); ++i) {
    rows_a[i] = static_cast<uint32_t>(i);
    rows_b[i] = static_cast<uint32_t>(i);
  }
  const FeatureBinner binner(x, 128);
  const BinnedMatrix binned = binner.Bin(x);

  TreeParams direct;
  direct.max_depth = 6;
  direct.use_sibling_subtraction = false;
  TreeParams subtract = direct;
  subtract.use_sibling_subtraction = true;

  RegressionTree ta, tb;
  ta.Fit(binned, binner, grad, {}, &rows_a, direct, nullptr);
  tb.Fit(binned, binner, grad, {}, &rows_b, subtract, nullptr);
  ASSERT_EQ(ta.num_nodes(), tb.num_nodes());
  EXPECT_EQ(ta.num_leaves(), tb.num_leaves());

  // Split decisions must be identical: same node layout, same split
  // features, same thresholds (thresholds are bin edges, so they match
  // exactly when the chosen bins match). Leaf values may differ in the
  // last ulps from the subtraction's rounding — compare those with a
  // tight tolerance via prediction instead.
  std::stringstream sa, sb;
  ta.Serialize(sa);
  tb.Serialize(sb);
  size_t na = 0, nb = 0;
  sa >> na;
  sb >> nb;
  ASSERT_EQ(na, nb);
  for (size_t i = 0; i < na; ++i) {
    long long la, ra, lb, rb;
    unsigned long long fa, fb;
    double tha, va, thb, vb;
    sa >> la >> ra >> fa >> tha >> va;
    sb >> lb >> rb >> fb >> thb >> vb;
    EXPECT_EQ(la, lb) << "node " << i;
    EXPECT_EQ(ra, rb) << "node " << i;
    EXPECT_EQ(fa, fb) << "node " << i;
    EXPECT_DOUBLE_EQ(tha, thb) << "node " << i;
  }

  Rng rng(45);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> p{rng.Uniform(), rng.Uniform(), rng.Uniform()};
    EXPECT_NEAR(ta.Predict(p), tb.Predict(p), 1e-10);
  }
}

// ------------------------------------------------- thread-count determinism

TEST(GbrtEngineTest, BitIdenticalAcrossThreadCountsAndBackends) {
  FeatureMatrix x;
  std::vector<double> y;
  // Large enough that both the parallel histogram path (≥ 16384 rows per
  // node, see kMinParallelHistRows) and the parallel prediction path
  // (≥ 8192 rows) actually engage — smaller problems would compare the
  // serial path against itself.
  MakeProblem(20000, 5, 46, &x, &y);

  // Thread-count determinism must hold under every accel backend, and —
  // because the kernel layer is specified bit-identical — the outputs
  // must ALSO agree across backends, so everything compares against one
  // baseline.
  std::vector<std::vector<double>> outputs;
  std::vector<std::string> labels;
  for (const AccelBackend backend : SupportedBackends()) {
    ScopedAccelEnv accel(backend);
    for (const size_t threads : {1u, 2u, 8u}) {
      GbrtParams params;
      params.n_estimators = 30;
      params.max_depth = 6;
      params.num_threads = threads;
      params.seed = 7;
      GradientBoostedTrees model(params);
      ASSERT_TRUE(model.Fit(x, y).ok());
      outputs.push_back(model.PredictBatch(x));
      labels.push_back(std::string(AccelBackendName(backend)) + "/" +
                       std::to_string(threads) + "t");
    }
  }
  for (size_t t = 1; t < outputs.size(); ++t) {
    ASSERT_EQ(outputs[0].size(), outputs[t].size());
    for (size_t r = 0; r < outputs[0].size(); ++r) {
      // Bitwise equality, not tolerance: the parallel engine partitions
      // work without changing any reduction order, and the accel kernels
      // reproduce the canonical order on every backend.
      EXPECT_EQ(outputs[0][r], outputs[t][r])
          << labels[0] << " vs " << labels[t] << " row " << r;
    }
  }
}

TEST(GbrtEngineTest, SubsampledTrainingDeterministicAcrossThreads) {
  FeatureMatrix x;
  std::vector<double> y;
  // Above the parallel-histogram row threshold even after the 80% row
  // subsample, so the threaded build really runs.
  MakeProblem(24000, 3, 47, &x, &y);
  std::vector<std::vector<double>> outputs;
  std::vector<std::string> labels;
  for (const AccelBackend backend : SupportedBackends()) {
    ScopedAccelEnv accel(backend);
    for (const size_t threads : {1u, 8u}) {
      GbrtParams params;
      params.n_estimators = 25;
      params.subsample = 0.8;
      params.colsample = 0.7;
      params.early_stopping_rounds = 10;
      params.validation_fraction = 0.2;
      params.num_threads = threads;
      GradientBoostedTrees model(params);
      ASSERT_TRUE(model.Fit(x, y).ok());
      outputs.push_back(model.PredictBatch(x));
      labels.push_back(std::string(AccelBackendName(backend)) + "/" +
                       std::to_string(threads) + "t");
    }
  }
  for (size_t t = 1; t < outputs.size(); ++t) {
    for (size_t r = 0; r < outputs[0].size(); ++r) {
      EXPECT_EQ(outputs[0][r], outputs[t][r])
          << labels[0] << " vs " << labels[t] << " row " << r;
    }
  }
}

// ---------------------------------------------- hardened deserialization

StatusOr<RegressionTree> ParseTree(const std::string& text) {
  std::istringstream is(text);
  return RegressionTree::Deserialize(is);
}

TEST(TreeDeserializeTest, RejectsMalformedInput) {
  // Unreadable / negative / absurd node counts.
  EXPECT_FALSE(ParseTree("abc").ok());
  EXPECT_FALSE(ParseTree("-5").ok());
  EXPECT_FALSE(ParseTree("0").ok());
  EXPECT_FALSE(ParseTree("999999999999999").ok());
  // Truncated record.
  EXPECT_FALSE(ParseTree("1\n-1 -1 0").ok());
  // Child index out of range.
  EXPECT_FALSE(ParseTree("2\n5 1 0 0.5 0\n-1 -1 0 0 1.0").ok());
  // Half-leaf record (only one child missing).
  EXPECT_FALSE(ParseTree("2\n-1 1 0 0.5 0\n-1 -1 0 0 1.0").ok());
  // Shared child (node 1 referenced twice).
  EXPECT_FALSE(ParseTree("2\n1 1 0 0.5 0\n-1 -1 0 0 1.0").ok());
  // Self-cycle at the root.
  EXPECT_FALSE(ParseTree("2\n0 1 0 0.5 0\n-1 -1 0 0 1.0").ok());
  // Orphan node (root is a leaf but the file claims two nodes).
  EXPECT_FALSE(ParseTree("2\n-1 -1 0 0 1.0\n-1 -1 0 0 2.0").ok());
  // Non-finite threshold.
  EXPECT_FALSE(ParseTree("3\n1 2 0 nan 0\n-1 -1 0 0 1\n-1 -1 0 0 2").ok());
  // Feature index out of the serialized-format range.
  EXPECT_FALSE(
      ParseTree("3\n1 2 99999999 0.5 0\n-1 -1 0 0 1\n-1 -1 0 0 2").ok());
}

TEST(TreeDeserializeTest, SanitizesLeafFeatureIndices) {
  // The traversal reads x[feature] even at leaves (discarded by the NaN
  // self-loop compare), so a junk feature index on a leaf record must
  // not survive deserialization — it would read out of bounds at
  // predict time.
  const auto tree =
      ParseTree("3\n1 2 0 0.5 0\n-1 -1 9999 0 -3.0\n-1 -1 9999 0 4.0");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->MaxFeatureIndex(), 0u);
  EXPECT_DOUBLE_EQ(tree->Predict({0.2}), -3.0);
  EXPECT_DOUBLE_EQ(tree->Predict({0.8}), 4.0);
}

TEST(TreeDeserializeTest, AcceptsValidTreeAndNormalizesLayout) {
  // A valid 3-node tree written right-child-heavy; traversal must agree
  // with the record semantics after the DFS re-layout.
  const auto tree = ParseTree("3\n1 2 0 0.5 0\n-1 -1 0 0 -3.0\n-1 -1 0 0 4.0");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->num_nodes(), 3u);
  EXPECT_DOUBLE_EQ(tree->Predict({0.2}), -3.0);
  EXPECT_DOUBLE_EQ(tree->Predict({0.8}), 4.0);
}

TEST(GbrtLoadTest, RejectsMalformedModelFiles) {
  const std::string path = "/tmp/surf_gbrt_engine_bad.model";
  const auto write_and_check = [&](const std::string& body) {
    {
      std::ofstream os(path);
      os << body;
    }
    const auto loaded = GradientBoostedTrees::Load(path);
    EXPECT_FALSE(loaded.ok()) << body;
  };
  // Negative tree count.
  write_and_check("surf-gbrt-v1\n2 0.0 0.1 -3\n");
  // Negative / zero feature count.
  write_and_check("surf-gbrt-v1\n-2 0.0 0.1 1\n1\n-1 -1 0 0 1.0\n");
  write_and_check("surf-gbrt-v1\n0 0.0 0.1 1\n1\n-1 -1 0 0 1.0\n");
  // Absurd tree count.
  write_and_check("surf-gbrt-v1\n2 0.0 0.1 99999999999\n");
  // Non-finite base score.
  write_and_check("surf-gbrt-v1\n2 inf 0.1 1\n1\n-1 -1 0 0 1.0\n");
  // Tree body with a split feature beyond the declared width.
  write_and_check(
      "surf-gbrt-v1\n2 0.0 0.1 1\n3\n1 2 7 0.5 0\n-1 -1 0 0 1\n-1 -1 0 0 2\n");
  // Truncated: fewer trees than declared.
  write_and_check("surf-gbrt-v1\n2 0.0 0.1 2\n1\n-1 -1 0 0 1.0\n");
  std::remove(path.c_str());
}

// ------------------------------------------------- batched evaluation

RegionWorkload MakeWorkload(size_t n, uint64_t seed) {
  RegionWorkload workload;
  const Bounds domain({0.0, 0.0}, {1.0, 1.0});
  workload.space = RegionSolutionSpace::ForBounds(domain, 0.01, 0.2);
  workload.features = FeatureMatrix(4);
  workload.features.Reserve(n);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const Region region = workload.space.Sample(&rng);
    workload.features.AddRow(RegionFeatures(region));
    workload.targets.push_back(BumpyFn(RegionFeatures(region)));
  }
  return workload;
}

// ------------------------------------------- batch vs per-row prediction

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kPropertyWidth = 4;

/// Bitwise equality, NaN payloads and signed zeros included.
bool SameBits(const double* a, const double* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

/// Split thresholds of a model, read back from its saved text (printed
/// with 17 significant digits, so they round-trip exactly).
std::vector<double> SplitThresholds(const GradientBoostedTrees& model,
                                    const std::string& path) {
  EXPECT_TRUE(model.Save(path).ok());
  std::ifstream is(path);
  std::string magic;
  size_t features = 0, trees = 0;
  double base = 0.0, lr = 0.0;
  is >> magic >> features >> base >> lr >> trees;
  std::vector<double> out;
  for (size_t t = 0; t < trees; ++t) {
    size_t nodes = 0;
    is >> nodes;
    for (size_t i = 0; i < nodes; ++i) {
      long long left = 0, right = 0;
      size_t feature = 0;
      double threshold = 0.0, value = 0.0;
      is >> left >> right >> feature >> threshold >> value;
      if (left >= 0) out.push_back(threshold);
    }
  }
  std::remove(path.c_str());
  return out;
}

/// Test rows whose features sit exactly on split thresholds, one ulp
/// either side of them, or on NaN, ±inf, ±0 and the smallest denormal.
FeatureMatrix EdgeRows(const std::vector<double>& thresholds, size_t n,
                       size_t width, uint64_t seed) {
  Rng rng(seed);
  FeatureMatrix x(width);
  x.Reserve(n);
  std::vector<double> row(width);
  for (size_t i = 0; i < n; ++i) {
    for (double& v : row) {
      const double roll = rng.Uniform();
      const double t = thresholds.empty()
                           ? 0.5
                           : thresholds[static_cast<size_t>(
                                 rng.Uniform() *
                                 static_cast<double>(thresholds.size())) %
                                        thresholds.size()];
      if (roll < 0.30) {
        v = t;
      } else if (roll < 0.36) {
        v = std::nextafter(t, kInf);
      } else if (roll < 0.42) {
        v = std::nextafter(t, -kInf);
      } else if (roll < 0.45) {
        v = std::numeric_limits<double>::quiet_NaN();
      } else if (roll < 0.47) {
        v = kInf;
      } else if (roll < 0.49) {
        v = -kInf;
      } else if (roll < 0.51) {
        v = 5e-324;
      } else if (roll < 0.52) {
        v = -0.0;
      } else {
        v = rng.Uniform(-0.2, 1.2);
      }
    }
    x.AddRow(row);
  }
  return x;
}

/// A saved model of random ragged trees with exactly `levels` split
/// levels on one path (other paths stop early at random), so both sides
/// of the complete-tree image's level cap are reached deterministically.
std::string RaggedModelText(size_t levels, size_t width, size_t trees,
                            uint64_t seed) {
  Rng rng(seed);
  std::ostringstream os;
  os.precision(17);
  os << "surf-gbrt-v1\n" << width << " 0.25 0.1 " << trees << "\n";
  for (size_t t = 0; t < trees; ++t) {
    // Records in pre-order: left child at the next index.
    std::vector<std::string> records;
    std::function<size_t(size_t, bool)> grow = [&](size_t left_levels,
                                                   bool spine) -> size_t {
      const size_t idx = records.size();
      records.emplace_back();
      if (left_levels == 0 || (!spine && rng.Uniform() < 0.25)) {
        std::ostringstream leaf;
        leaf.precision(17);
        leaf << "-1 -1 0 0 " << rng.Uniform(-3.0, 3.0);
        records[idx] = leaf.str();
        return idx;
      }
      const size_t feature =
          static_cast<size_t>(rng.Uniform() * static_cast<double>(width)) %
          width;
      const double threshold = rng.Uniform();
      const bool spine_left = rng.Uniform() < 0.5;
      const size_t left = grow(left_levels - 1, spine && spine_left);
      const size_t right = grow(left_levels - 1, spine && !spine_left);
      std::ostringstream node;
      node.precision(17);
      node << left << " " << right << " " << feature << " " << threshold
           << " 0";
      records[idx] = node.str();
      return idx;
    };
    grow(levels, true);
    os << records.size() << "\n";
    for (const std::string& record : records) os << record << "\n";
  }
  return os.str();
}

/// Every batch shape against per-row Predict, bitwise, at 1 and 4
/// threads: sizes 1–40 (every short last group), 150 (a paper-scaled
/// swarm), 1025 (one row past a block) and 8193 (the parallel path).
void ExpectBatchMatchesPredict(const GradientBoostedTrees& fitted,
                               const std::string& label) {
  const std::string path =
      ::testing::TempDir() + "surf_gbrt_engine_thresholds.model";
  const std::vector<double> thresholds = SplitThresholds(fitted, path);
  const FeatureMatrix rows = EdgeRows(
      thresholds, 8193 + 40, kPropertyWidth, 1000 + thresholds.size());
  std::vector<double> expected(rows.num_rows());
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    expected[r] = fitted.Predict(rows.Row(r));
  }
  std::vector<size_t> sizes;
  for (size_t n = 1; n <= 40; ++n) sizes.push_back(n);
  for (const size_t n : {150u, 1025u, 8193u}) sizes.push_back(n);
  for (const size_t threads : {1u, 4u}) {
    GradientBoostedTrees model = fitted;
    model.set_num_threads(threads);
    for (const size_t n : sizes) {
      // Offset slices so each size starts at a different row.
      const size_t offset = (n * 7) % 40;
      std::vector<size_t> slice(n);
      std::iota(slice.begin(), slice.end(), offset);
      const std::vector<double> batch =
          model.PredictBatch(rows.Gather(slice));
      ASSERT_EQ(batch.size(), n);
      EXPECT_TRUE(SameBits(batch.data(), expected.data() + offset, n))
          << label << " threads=" << threads << " rows=" << n;
    }
  }
}

TEST(GbrtEngineTest, BatchPredictBitwiseEqualsPerRowPredict) {
  // Depths 1–12 straddle the complete-tree image's 10-level cap: deeper
  // ensembles predict through the depth-first walk and must agree too.
  FeatureMatrix x, fresh_x;
  std::vector<double> y, fresh_y;
  MakeProblem(1500, kPropertyWidth, 42, &x, &y);
  MakeProblem(400, kPropertyWidth, 43, &fresh_x, &fresh_y);
  const std::string path =
      ::testing::TempDir() + "surf_gbrt_engine_property.model";
  for (size_t depth = 1; depth <= 12; ++depth) {
    SCOPED_TRACE("max_depth " + std::to_string(depth));
    GbrtParams params;
    params.n_estimators = 12;
    params.max_depth = depth;
    GradientBoostedTrees model(params);
    ASSERT_TRUE(model.Fit(x, y).ok());
    ExpectBatchMatchesPredict(model, "fit");
    ASSERT_TRUE(model.ContinueFit(fresh_x, fresh_y, 5).ok());
    ExpectBatchMatchesPredict(model, "continue_fit");

    ASSERT_TRUE(model.Save(path).ok());
    const auto loaded = GradientBoostedTrees::Load(path);
    ASSERT_TRUE(loaded.ok());
    ExpectBatchMatchesPredict(*loaded, "load");
    {
      std::ofstream os(path);
      os << RaggedModelText(depth, kPropertyWidth, 9, 500 + depth);
    }
    const auto ragged = GradientBoostedTrees::Load(path);
    ASSERT_TRUE(ragged.ok());
    ExpectBatchMatchesPredict(*ragged, "ragged load");

    SurrogateTrainOptions options;
    options.gbrt.n_estimators = 10;
    options.gbrt.max_depth = depth;
    const auto surrogate =
        Surrogate::Train(MakeWorkload(600, 60 + depth), options);
    ASSERT_TRUE(surrogate.ok());
    const auto warmed =
        surrogate->WarmStarted(MakeWorkload(200, 80 + depth), 4);
    ASSERT_TRUE(warmed.ok());
    ExpectBatchMatchesPredict(
        dynamic_cast<const GradientBoostedTrees&>(warmed->model()),
        "warm started");
  }
  std::remove(path.c_str());
}

// ------------------------------------- image kept in step with the trees

TEST(GbrtImageTest, EarlyStoppingTruncationPredictsWithKeptTrees) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeProblem(2000, 4, 90, &x, &y);
  Rng noise(91);
  for (double& v : y) v += noise.Gaussian();  // overfits quickly
  GbrtParams params;
  params.n_estimators = 400;
  params.learning_rate = 0.3;
  params.early_stopping_rounds = 5;
  params.validation_fraction = 0.3;
  GradientBoostedTrees model(params);
  ASSERT_TRUE(model.Fit(x, y).ok());
  ASSERT_LT(model.num_trees(), 400u);  // rounds past the best were cut
  ExpectBatchMatchesPredict(model, "early stopped");
}

TEST(GbrtImageTest, CancelledContinueFitPredictsWithAppendedRounds) {
  FeatureMatrix x, fresh_x;
  std::vector<double> y, fresh_y;
  MakeProblem(1000, 4, 92, &x, &y);
  MakeProblem(500, 4, 93, &fresh_x, &fresh_y);
  GbrtParams params;
  params.n_estimators = 20;
  GradientBoostedTrees model(params);
  ASSERT_TRUE(model.Fit(x, y).ok());
  // A deadline far shorter than the requested rounds: the continuation
  // returns Cancelled with the rounds it finished still appended.
  CancelSource source;
  source.SetDeadline(0.05);
  model.SetCancelToken(source.token());
  const Status status = model.ContinueFit(fresh_x, fresh_y, 1u << 30);
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  ASSERT_GT(model.num_trees(), 20u);
  EXPECT_TRUE(model.trained());
  ExpectBatchMatchesPredict(model, "cancelled continuation");
}

TEST(GbrtImageTest, CancelledFitLeavesModelUntrained) {
  FeatureMatrix x;
  std::vector<double> y;
  MakeProblem(800, 4, 94, &x, &y);
  GbrtParams params;
  params.n_estimators = 10;
  GradientBoostedTrees model(params);
  ASSERT_TRUE(model.Fit(x, y).ok());
  ASSERT_TRUE(model.trained());

  CancelSource source;
  source.Cancel();
  model.SetCancelToken(source.token());
  EXPECT_EQ(model.Fit(x, y).code(), StatusCode::kCancelled);
  EXPECT_FALSE(model.trained());
  EXPECT_EQ(model.num_trees(), 0u);

  // A fresh fit on the same object predicts with its new trees only.
  model.SetCancelToken(CancelToken());
  ASSERT_TRUE(model.Fit(x, y).ok());
  EXPECT_EQ(model.num_trees(), 10u);
  ExpectBatchMatchesPredict(model, "refit");
}

TEST(SurrogateBatchTest, EvaluateManyMatchesPredict) {
  const RegionWorkload workload = MakeWorkload(2000, 48);
  SurrogateTrainOptions options;
  options.gbrt.n_estimators = 40;
  auto surrogate = Surrogate::Train(workload, options);
  ASSERT_TRUE(surrogate.ok());

  Rng rng(49);
  std::vector<Region> probes;
  for (int i = 0; i < 300; ++i) probes.push_back(workload.space.Sample(&rng));

  const std::vector<double> batch = surrogate->EvaluateMany(probes);
  ASSERT_EQ(batch.size(), probes.size());
  const auto batch_fn = surrogate->AsBatchStatisticFn();
  const std::vector<double> batch2 = batch_fn(probes);
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], surrogate->Predict(probes[i]));
    EXPECT_DOUBLE_EQ(batch2[i], batch[i]);
  }
}

TEST(ObjectiveBatchTest, EvaluateManyMatchesEvaluate) {
  const StatisticFn statistic = [](const Region& region) {
    return 10.0 * region.half_length(0) + region.center(1);
  };
  const BatchStatisticFn batch_statistic =
      [&statistic](const std::vector<Region>& regions) {
        std::vector<double> out;
        out.reserve(regions.size());
        for (const auto& region : regions) out.push_back(statistic(region));
        return out;
      };
  ObjectiveConfig config;
  config.threshold = 0.5;
  const RegionObjective scalar(statistic, config);
  const RegionObjective batched(statistic, batch_statistic, config);

  Rng rng(50);
  const RegionSolutionSpace space = RegionSolutionSpace::ForBounds(
      Bounds({0.0, 0.0}, {1.0, 1.0}), 0.01, 0.3);
  std::vector<Region> regions;
  for (int i = 0; i < 200; ++i) regions.push_back(space.Sample(&rng));

  const auto scalar_evals = scalar.EvaluateMany(regions);
  const auto batch_evals = batched.EvaluateMany(regions);
  for (size_t i = 0; i < regions.size(); ++i) {
    const FitnessValue direct = scalar.Evaluate(regions[i]);
    EXPECT_EQ(scalar_evals[i].valid, direct.valid);
    EXPECT_DOUBLE_EQ(scalar_evals[i].value, direct.value);
    EXPECT_EQ(batch_evals[i].valid, direct.valid);
    EXPECT_DOUBLE_EQ(batch_evals[i].value, direct.value);
    EXPECT_EQ(scalar_evals[i].statistic, statistic(regions[i]));
    EXPECT_EQ(batch_evals[i].statistic, statistic(regions[i]));
  }
}

TEST(GsoBatchTest, BatchAndScalarPathsProduceIdenticalSwarms) {
  const StatisticFn statistic = [](const Region& region) {
    const double dx = region.center(0) - 0.5;
    return 2.0 - 10.0 * dx * dx;
  };
  ObjectiveConfig config;
  config.threshold = 0.5;
  const RegionObjective objective(statistic, config);
  const RegionSolutionSpace space =
      RegionSolutionSpace::ForBounds(Bounds({0.0}, {1.0}), 0.05, 0.3);

  GsoParams params;
  params.num_glowworms = 40;
  params.max_iterations = 20;
  const GlowwormSwarmOptimizer gso(params);
  const GsoResult scalar = gso.Optimize(objective.AsFitnessFn(), space);
  const GsoResult batch = gso.Optimize(objective.AsBatchFitnessFn(), space);

  ASSERT_EQ(scalar.particles.size(), batch.particles.size());
  EXPECT_EQ(scalar.iterations_run, batch.iterations_run);
  EXPECT_EQ(scalar.objective_evaluations, batch.objective_evaluations);
  for (size_t i = 0; i < scalar.particles.size(); ++i) {
    EXPECT_EQ(scalar.valid[i], batch.valid[i]);
    EXPECT_DOUBLE_EQ(scalar.fitness[i], batch.fitness[i]);
    for (size_t j = 0; j < scalar.particles[i].dims(); ++j) {
      EXPECT_DOUBLE_EQ(scalar.particles[i].center(j),
                       batch.particles[i].center(j));
    }
  }
}

TEST(NaiveSearchBatchTest, ChunkedEvaluationKeepsBudgetSemantics) {
  const StatisticFn statistic = [](const Region& region) {
    return region.center(0) + region.center(1);
  };
  ObjectiveConfig config;
  config.threshold = 1.0;
  const RegionObjective objective(statistic, config);
  const RegionSolutionSpace space = RegionSolutionSpace::ForBounds(
      Bounds({0.0, 0.0}, {1.0, 1.0}), 0.05, 0.3);

  NaiveSearchParams params;
  params.centers_per_dim = 10;
  params.sizes_per_dim = 10;  // (10·10)^2 = 10000 candidates
  params.max_evaluations = 1000;
  const NaiveSearchResult capped = NaiveSearch(params).Run(objective, space);
  EXPECT_EQ(capped.examined, 1000u);
  EXPECT_TRUE(capped.timed_out);

  params.max_evaluations = 0;
  const NaiveSearchResult full = NaiveSearch(params).Run(objective, space);
  EXPECT_EQ(full.examined, 10000u);
  EXPECT_FALSE(full.timed_out);
  EXPECT_FALSE(full.viable.empty());
}

}  // namespace
}  // namespace surf
