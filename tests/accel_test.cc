// Differential bit-identity harness for the runtime-dispatched SIMD
// kernel layer (src/accel). Every backend the host supports is compared
// kernel-by-kernel against the generic reference — bitwise, over
// randomized shapes, seeds, NaN/inf/denormal payloads, unaligned and
// offset rows, and an explicit tail-case regression corpus (0, 1,
// lane−1, lane, lane+1 rows; non-multiple-of-8 widths). Selection
// itself is tested too: SURF_ACCEL must pick each compiled backend, and
// a full mining envelope must be bit-identical under SURF_ACCEL=generic
// vs the best native backend.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "accel/accel.h"
#include "core/surf.h"
#include "data/dataset.h"
#include "ml/gbrt.h"
#include "ml/matrix.h"
#include "util/rng.h"

namespace surf {
namespace {

constexpr double kQNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<AccelBackend> AllBackends() {
  std::vector<AccelBackend> all;
  for (int b = 0; b < kNumAccelBackends; ++b) {
    all.push_back(static_cast<AccelBackend>(b));
  }
  return all;
}

std::vector<AccelBackend> SupportedBackends() {
  std::vector<AccelBackend> supported;
  for (AccelBackend b : AllBackends()) {
    if (AccelSupported(b)) supported.push_back(b);
  }
  return supported;
}

/// Restores the active backend (and the SURF_ACCEL variable) on scope
/// exit, so selection-mutating tests cannot leak into later ones.
class ScopedAccelState {
 public:
  ScopedAccelState() : active_(ActiveAccelBackend()) {
    const char* env = std::getenv("SURF_ACCEL");
    had_env_ = env != nullptr;
    if (had_env_) env_ = env;
  }
  ~ScopedAccelState() {
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

/// Bitwise equality including NaN payloads.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Uniform double with occasional adversarial payloads: quiet NaN,
/// ±inf, ±0.0, and a denormal.
double EdgyValue(Rng* rng) {
  const double roll = rng->Uniform();
  if (roll < 0.02) return kQNaN;
  if (roll < 0.03) return kInf;
  if (roll < 0.04) return -kInf;
  if (roll < 0.05) return -0.0;
  if (roll < 0.06) return 5e-324;  // smallest denormal
  return rng->Uniform(-10.0, 10.0);
}

// The tail-case regression corpus: the interesting counts around every
// kernel's vector width (widest lane count is 16 for the AVX-512 mask
// kernel, 64 for its count loop).
const size_t kRowCorpus[] = {0,  1,  7,  8,  9,  15, 16, 17,
                             31, 32, 33, 63, 64, 65, 100};

// ------------------------------------------------------------- mask scan

TEST(AccelMaskTest, BitIdenticalAcrossBackendsBoundsAndTails) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    Rng rng(seed);
    for (size_t n : kRowCorpus) {
      std::vector<double> col(n);
      std::vector<uint8_t> base_mask(n);
      for (size_t i = 0; i < n; ++i) {
        col[i] = EdgyValue(&rng);
        base_mask[i] = rng.Uniform() < 0.5 ? 1 : 0;
      }
      // Bounds corpus: a normal box, an empty box (lo > hi), the
      // everything box, and NaN bounds (the legacy test keeps every row
      // then — unordered compares must stay unordered in the kernels).
      const double bounds[][2] = {{-1.0, 5.0}, {2.0, -2.0},
                                  {-kInf, kInf}, {kQNaN, 1.0},
                                  {0.0, kQNaN}};
      for (const auto& lh : bounds) {
        std::vector<uint8_t> ref = base_mask;
        kAccelGenericOps.mask_range_and(col.data(), n, lh[0], lh[1],
                                        ref.data());
        const uint64_t ref_count =
            kAccelGenericOps.mask_count(ref.data(), n);
        // The reference really is the legacy scalar test.
        for (size_t r = 0; r < n; ++r) {
          const uint8_t expect =
              base_mask[r] & static_cast<uint8_t>(!(col[r] < lh[0])) &
              static_cast<uint8_t>(!(col[r] > lh[1]));
          ASSERT_EQ(ref[r], expect) << "generic vs legacy, row " << r;
        }
        for (AccelBackend b : SupportedBackends()) {
          const AccelOps& ops = AccelOpsFor(b);
          std::vector<uint8_t> got = base_mask;
          ops.mask_range_and(col.data(), n, lh[0], lh[1], got.data());
          EXPECT_EQ(ref, got) << ops.name << " n=" << n << " lo=" << lh[0]
                              << " hi=" << lh[1];
          EXPECT_EQ(ref_count, ops.mask_count(got.data(), n))
              << ops.name << " n=" << n;
        }
      }
    }
  }
}

TEST(AccelMaskTest, UnalignedRowsStayBitIdentical) {
  // Run the kernels at every offset into an oversized buffer: the
  // vector loads must handle arbitrary (mis)alignment.
  Rng rng(31);
  const size_t kTotal = 97;
  std::vector<double> col(kTotal);
  std::vector<uint8_t> mask_pool(kTotal, 1);
  for (size_t i = 0; i < kTotal; ++i) col[i] = EdgyValue(&rng);
  for (size_t off = 0; off < 9; ++off) {
    const size_t n = kTotal - off;
    std::vector<uint8_t> ref(mask_pool.begin() + off, mask_pool.end());
    kAccelGenericOps.mask_range_and(col.data() + off, n, -3.0, 3.0,
                                    ref.data());
    for (AccelBackend b : SupportedBackends()) {
      const AccelOps& ops = AccelOpsFor(b);
      std::vector<uint8_t> got(mask_pool.begin() + off, mask_pool.end());
      ops.mask_range_and(col.data() + off, n, -3.0, 3.0, got.data());
      EXPECT_EQ(ref, got) << ops.name << " offset=" << off;
      EXPECT_EQ(kAccelGenericOps.mask_count(ref.data(), n),
                ops.mask_count(got.data(), n))
          << ops.name << " offset=" << off;
    }
  }
}

// -------------------------------------------------------------- selection

TEST(AccelSelectTest, TablesAreSelfConsistent) {
  for (AccelBackend b : AllBackends()) {
    const AccelOps& ops = AccelOpsFor(b);
    EXPECT_NE(ops.mask_range_and, nullptr);
    EXPECT_NE(ops.mask_count, nullptr);
    if (AccelCompiled(b)) {
      EXPECT_EQ(ops.backend, static_cast<int>(b));
      EXPECT_STREQ(ops.name, AccelBackendName(b));
    }
    AccelBackend parsed;
    ASSERT_TRUE(ParseAccelBackend(AccelBackendName(b), &parsed));
    EXPECT_EQ(parsed, b);
  }
  EXPECT_TRUE(AccelCompiled(AccelBackend::kGeneric));
  EXPECT_TRUE(AccelSupported(AccelBackend::kGeneric));
  AccelBackend ignored;
  EXPECT_FALSE(ParseAccelBackend("avx9000", &ignored));
  EXPECT_FALSE(ParseAccelBackend("", &ignored));
}

TEST(AccelSelectTest, EnvOverrideSelectsEveryCompiledBackend) {
  ScopedAccelState restore;
  for (AccelBackend b : AllBackends()) {
    setenv("SURF_ACCEL", AccelBackendName(b), 1);
    const AccelSelection sel = ReselectAccelFromEnv();
    EXPECT_TRUE(sel.override_requested);
    EXPECT_EQ(sel.requested, AccelBackendName(b));
    if (AccelSupported(b)) {
      // The override must select exactly the named backend...
      EXPECT_TRUE(sel.override_honored) << AccelBackendName(b);
      EXPECT_EQ(sel.active, b);
      EXPECT_STREQ(Accel().name, AccelBackendName(b));
      EXPECT_EQ(ActiveAccelBackend(), b);
    } else {
      // ...and an unsupported name must be flagged, not silently
      // downgraded into a lie about what was measured.
      EXPECT_FALSE(sel.override_honored) << AccelBackendName(b);
      EXPECT_EQ(sel.active, BestSupportedAccelBackend());
    }
    EXPECT_EQ(CurrentAccelSelection().active, sel.active);
    EXPECT_EQ(CurrentAccelSelection().override_honored,
              sel.override_honored);
  }

  setenv("SURF_ACCEL", "not-a-backend", 1);
  const AccelSelection bogus = ReselectAccelFromEnv();
  EXPECT_TRUE(bogus.override_requested);
  EXPECT_FALSE(bogus.override_honored);
  EXPECT_EQ(bogus.active, BestSupportedAccelBackend());

  unsetenv("SURF_ACCEL");
  const AccelSelection natural = ReselectAccelFromEnv();
  EXPECT_FALSE(natural.override_requested);
  EXPECT_TRUE(natural.override_honored);
  EXPECT_EQ(natural.active, BestSupportedAccelBackend());
}

TEST(AccelSelectTest, SetActiveRejectsUnsupportedAndRestores) {
  ScopedAccelState restore;
  const AccelBackend before = ActiveAccelBackend();
  for (AccelBackend b : AllBackends()) {
    if (AccelSupported(b)) {
      EXPECT_TRUE(SetActiveAccelBackend(b));
      EXPECT_EQ(ActiveAccelBackend(), b);
      SetActiveAccelBackend(before);
    } else {
      EXPECT_FALSE(SetActiveAccelBackend(b));
      EXPECT_EQ(ActiveAccelBackend(), before);
    }
  }
}

// ------------------------------------------------- end-to-end bit-identity

Dataset ClusteredData(size_t n, uint64_t seed) {
  Dataset ds({"x", "y"});
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Uniform() < 0.35) {
      ds.AddRow({rng.Gaussian(0.3, 0.05), rng.Gaussian(0.7, 0.05)});
    } else {
      ds.AddRow({rng.Uniform(), rng.Uniform()});
    }
  }
  return ds;
}

FindResult MineUnder(AccelBackend backend, const Dataset& ds) {
  EXPECT_TRUE(SetActiveAccelBackend(backend));
  SurfOptions options;
  options.workload.num_queries = 600;
  options.surrogate.gbrt.n_estimators = 25;
  options.finder.gso.num_glowworms = 40;
  options.finder.gso.max_iterations = 25;
  options.shards = 2;  // route true-f evaluations through the mask kernels
  auto surf = Surf::Build(&ds, Statistic::Count({0, 1}), options);
  EXPECT_TRUE(surf.ok());
  return surf->FindRegions(30.0, ThresholdDirection::kAbove).value();
}

TEST(AccelEndToEndTest, MiningEnvelopeBitIdenticalGenericVsBestBackend) {
  const AccelBackend best = BestSupportedAccelBackend();
  if (best == AccelBackend::kGeneric) {
    GTEST_SKIP() << "host supports only the generic backend";
  }
  ScopedAccelState restore;
  const Dataset ds = ClusteredData(3000, 99);

  // Full pipeline — workload labelling through the sharded evaluator,
  // GBRT training (histogram kernel), batched surrogate prediction,
  // GSO mining, validation — once per backend.
  const FindResult generic = MineUnder(AccelBackend::kGeneric, ds);
  const FindResult native = MineUnder(best, ds);

  ASSERT_EQ(generic.regions.size(), native.regions.size());
  ASSERT_FALSE(generic.regions.empty());
  for (size_t i = 0; i < generic.regions.size(); ++i) {
    const FoundRegion& a = generic.regions[i];
    const FoundRegion& b = native.regions[i];
    EXPECT_EQ(a.fitness, b.fitness) << "region " << i;
    EXPECT_EQ(a.estimate, b.estimate) << "region " << i;
    ASSERT_EQ(a.region.dims(), b.region.dims());
    for (size_t j = 0; j < a.region.dims(); ++j) {
      EXPECT_EQ(a.region.center(j), b.region.center(j))
          << "region " << i << " dim " << j;
      EXPECT_EQ(a.region.half_length(j), b.region.half_length(j))
          << "region " << i << " dim " << j;
    }
  }
  EXPECT_EQ(generic.report.true_compliance, native.report.true_compliance);
}

TEST(AccelEndToEndTest, GbrtTrainingAndPredictionBitIdenticalPerBackend) {
  // GBRT alone, at a row count large enough that training spends real
  // time in the histogram kernel.
  ScopedAccelState restore;
  Rng rng(55);
  const size_t n = 9692;
  FeatureMatrix x(4);
  std::vector<double> y;
  std::vector<double> row(4);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 4; ++j) row[j] = rng.Uniform();
    x.AddRow(row);
    y.push_back(std::sin(6.0 * row[0]) + row[1] * row[2] - 0.5 * row[3]);
  }

  std::vector<std::vector<double>> outputs;
  for (AccelBackend b : SupportedBackends()) {
    ASSERT_TRUE(SetActiveAccelBackend(b));
    GbrtParams params;
    params.n_estimators = 15;
    params.max_depth = 6;
    GradientBoostedTrees model(params);
    ASSERT_TRUE(model.Fit(x, y).ok());
    outputs.push_back(model.PredictBatch(x));
  }
  for (size_t t = 1; t < outputs.size(); ++t) {
    EXPECT_TRUE(SameBits(outputs[0], outputs[t]))
        << AccelBackendName(SupportedBackends()[t]) << " vs generic";
  }
}

}  // namespace
}  // namespace surf
