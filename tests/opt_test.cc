// Tests for the optimization module: the Eq. 2/4 objectives, the region
// solution space, GSO (multimodal capture, invalid-particle isolation,
// KDE guidance), PSO, the Naive baseline, and distinct-region extraction.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "core/surrogate.h"
#include "core/workload.h"
#include "geom/bounds.h"
#include "opt/gso.h"
#include "opt/naive_search.h"
#include "opt/objective.h"
#include "opt/pso.h"
#include "opt/solution_space.h"
#include "opt/test_functions.h"
#include "util/rng.h"

namespace surf {
namespace {

RegionSolutionSpace UnitSpace(size_t d) {
  RegionSolutionSpace space;
  space.bounds = Bounds::Unit(d);
  space.min_half_length = 0.01;
  space.max_half_length = 0.5;
  return space;
}

// -------------------------------------------------------------- Objective

TEST(ObjectiveTest, SatisfiesThresholdDirections) {
  EXPECT_TRUE(SatisfiesThreshold(5.0, 3.0, ThresholdDirection::kAbove));
  EXPECT_FALSE(SatisfiesThreshold(2.0, 3.0, ThresholdDirection::kAbove));
  EXPECT_TRUE(SatisfiesThreshold(2.0, 3.0, ThresholdDirection::kBelow));
  EXPECT_FALSE(SatisfiesThreshold(5.0, 3.0, ThresholdDirection::kBelow));
  EXPECT_FALSE(
      SatisfiesThreshold(std::nan(""), 3.0, ThresholdDirection::kAbove));
}

TEST(ObjectiveTest, LogObjectiveInvalidOutsideConstraint) {
  ObjectiveConfig config;
  config.threshold = 10.0;
  config.direction = ThresholdDirection::kAbove;
  const RegionObjective obj([](const Region&) { return 5.0; }, config);
  // f = 5 < 10: log(5-10) undefined -> invalid (the Fig. 7 white area).
  EXPECT_FALSE(obj.Evaluate(Region({0.5}, {0.1})).valid);
}

TEST(ObjectiveTest, LogObjectiveValueMatchesFormula) {
  ObjectiveConfig config;
  config.threshold = 10.0;
  config.direction = ThresholdDirection::kAbove;
  config.c = 4.0;
  const RegionObjective obj([](const Region&) { return 110.0; }, config);
  const Region region({0.5, 0.5}, {0.2, 0.1});
  const FitnessValue fv = obj.Evaluate(region);
  ASSERT_TRUE(fv.valid);
  // J = log(100) - 4*(log(0.2)+log(0.1)).
  EXPECT_NEAR(fv.value,
              std::log(100.0) - 4.0 * (std::log(0.2) + std::log(0.1)),
              1e-12);
}

TEST(ObjectiveTest, BelowDirectionFlipsDifference) {
  ObjectiveConfig config;
  config.threshold = 10.0;
  config.direction = ThresholdDirection::kBelow;
  const RegionObjective obj([](const Region&) { return 4.0; }, config);
  const FitnessValue fv = obj.Evaluate(Region({0.5}, {0.25}));
  ASSERT_TRUE(fv.valid);
  EXPECT_NEAR(fv.value, std::log(6.0) - config.c * std::log(0.25), 1e-12);
  // Above the threshold it is invalid.
  const RegionObjective obj2([](const Region&) { return 14.0; }, config);
  EXPECT_FALSE(obj2.Evaluate(Region({0.5}, {0.25})).valid);
}

TEST(ObjectiveTest, SmallerRegionsScoreHigherUnderLog) {
  ObjectiveConfig config;
  config.threshold = 0.0;
  config.direction = ThresholdDirection::kAbove;
  const RegionObjective obj([](const Region&) { return 10.0; }, config);
  const double small = obj.Evaluate(Region({0.5}, {0.05})).value;
  const double large = obj.Evaluate(Region({0.5}, {0.4})).value;
  EXPECT_GT(small, large);
}

TEST(ObjectiveTest, CRegularizerStrengthensSizePenalty) {
  ObjectiveConfig weak;
  weak.threshold = 0.0;
  weak.c = 1.0;
  ObjectiveConfig strong = weak;
  strong.c = 4.0;
  const StatisticFn f = [](const Region&) { return 10.0; };
  const Region big({0.5}, {0.4});
  // log(0.4) < 0, so larger c *rewards* small boxes more relative to big
  // ones: compare the gap between small and big boxes under both c.
  const Region small({0.5}, {0.05});
  const double gap_weak = RegionObjective(f, weak).Evaluate(small).value -
                          RegionObjective(f, weak).Evaluate(big).value;
  const double gap_strong =
      RegionObjective(f, strong).Evaluate(small).value -
      RegionObjective(f, strong).Evaluate(big).value;
  EXPECT_GT(gap_strong, gap_weak);
}

TEST(ObjectiveTest, RatioObjectiveDefinedOutsideConstraint) {
  ObjectiveConfig config;
  config.threshold = 10.0;
  config.direction = ThresholdDirection::kAbove;
  config.use_log = false;
  const RegionObjective obj([](const Region&) { return 5.0; }, config);
  const FitnessValue fv = obj.Evaluate(Region({0.5}, {0.1}));
  // Eq. 2 stays defined (negative value) where Eq. 4 would be undefined.
  ASSERT_TRUE(fv.valid);
  EXPECT_LT(fv.value, 0.0);
}

TEST(ObjectiveTest, RatioObjectiveValueMatchesFormula) {
  ObjectiveConfig config;
  config.threshold = 2.0;
  config.direction = ThresholdDirection::kAbove;
  config.c = 2.0;
  config.use_log = false;
  const RegionObjective obj([](const Region&) { return 6.0; }, config);
  const FitnessValue fv = obj.Evaluate(Region({0.5}, {0.5}));
  ASSERT_TRUE(fv.valid);
  EXPECT_NEAR(fv.value, 4.0 / std::pow(0.5, 2.0), 1e-12);
}

TEST(ObjectiveTest, NanStatisticIsInvalid) {
  ObjectiveConfig config;
  const RegionObjective obj(
      [](const Region&) { return std::nan(""); }, config);
  EXPECT_FALSE(obj.Evaluate(Region({0.5}, {0.1})).valid);
}

TEST(ObjectiveTest, DegenerateRegionIsInvalid) {
  ObjectiveConfig config;
  config.threshold = 0.0;
  const RegionObjective obj([](const Region&) { return 10.0; }, config);
  EXPECT_FALSE(obj.Evaluate(Region({0.5}, {-0.1})).valid);
}

// --------------------------------------------------------- SolutionSpace

TEST(SolutionSpaceTest, SampleStaysInside) {
  const RegionSolutionSpace space = UnitSpace(3);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const Region r = space.Sample(&rng);
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_GE(r.center(j), 0.0);
      EXPECT_LE(r.center(j), 1.0);
      EXPECT_GE(r.half_length(j), space.min_half_length);
      EXPECT_LE(r.half_length(j), space.max_half_length);
    }
  }
}

TEST(SolutionSpaceTest, ForBoundsScalesByExtent) {
  const Bounds bounds({0.0, 0.0}, {10.0, 2.0});
  const RegionSolutionSpace space =
      RegionSolutionSpace::ForBounds(bounds, 0.01, 0.15);
  EXPECT_DOUBLE_EQ(space.min_half_length, 0.1);   // 1% of max extent 10
  EXPECT_DOUBLE_EQ(space.max_half_length, 1.5);
  EXPECT_EQ(space.flat_dims(), 4u);
}

TEST(SolutionSpaceTest, ClampPullsIntoSpace) {
  const RegionSolutionSpace space = UnitSpace(1);
  Region r({2.0}, {0.9});
  space.Clamp(&r);
  EXPECT_DOUBLE_EQ(r.center(0), 1.0);
  EXPECT_DOUBLE_EQ(r.half_length(0), 0.5);
}

TEST(SolutionSpaceTest, FlatDiagonalPositive) {
  EXPECT_GT(UnitSpace(2).FlatDiagonal(), 1.0);
}

// --------------------------------------------------------------- GSO

GaussianBumps ThreeBumps1d() {
  // Peaks in the (center, length) plane of a 1-d region space.
  GaussianBumps bumps;
  bumps.peaks = {{0.2, 0.1}, {0.5, 0.3}, {0.8, 0.15}};
  bumps.sigma = 0.08;
  bumps.validity_floor = 0.01;
  return bumps;
}

TEST(GsoTest, CapturesMultipleOptima) {
  const GaussianBumps bumps = ThreeBumps1d();
  GsoParams params;
  params.num_glowworms = 150;
  params.max_iterations = 150;
  params.seed = 3;
  const GlowwormSwarmOptimizer gso(params);
  const GsoResult result =
      gso.Optimize(bumps.AsFitnessFn(), UnitSpace(1));

  // Count how many distinct peaks hold at least one near-converged
  // particle — the multimodal capture property GSO exists for.
  std::set<int> captured;
  for (size_t i = 0; i < result.particles.size(); ++i) {
    if (!result.valid[i]) continue;
    if (bumps.DistanceToNearestPeak(result.particles[i]) < 0.1) {
      captured.insert(bumps.NearestPeak(result.particles[i]));
    }
  }
  EXPECT_EQ(captured.size(), 3u);
}

TEST(GsoTest, ValidFractionGrowsFromRandomStart) {
  const GaussianBumps bumps = ThreeBumps1d();
  GsoParams params;
  params.num_glowworms = 120;
  params.max_iterations = 100;
  params.seed = 4;
  const GlowwormSwarmOptimizer gso(params);
  const GsoResult result = gso.Optimize(bumps.AsFitnessFn(), UnitSpace(1));
  ASSERT_GE(result.history.valid_fraction.size(), 2u);
  EXPECT_GE(result.history.valid_fraction.back(),
            result.history.valid_fraction.front());
  EXPECT_GT(result.ValidFraction(), 0.3);
}

TEST(GsoTest, MeanFitnessImproves) {
  const GaussianBumps bumps = ThreeBumps1d();
  GsoParams params;
  params.num_glowworms = 100;
  params.max_iterations = 120;
  params.seed = 5;
  const GlowwormSwarmOptimizer gso(params);
  const GsoResult result = gso.Optimize(bumps.AsFitnessFn(), UnitSpace(1));
  const auto& curve = result.history.mean_fitness;
  ASSERT_GT(curve.size(), 10u);
  EXPECT_GT(curve.back(), curve.front());
}

TEST(GsoTest, DeterministicForSeed) {
  const GaussianBumps bumps = ThreeBumps1d();
  GsoParams params;
  params.num_glowworms = 50;
  params.max_iterations = 40;
  params.seed = 6;
  const GlowwormSwarmOptimizer gso(params);
  const GsoResult a = gso.Optimize(bumps.AsFitnessFn(), UnitSpace(1));
  const GsoResult b = gso.Optimize(bumps.AsFitnessFn(), UnitSpace(1));
  ASSERT_EQ(a.particles.size(), b.particles.size());
  for (size_t i = 0; i < a.particles.size(); ++i) {
    EXPECT_EQ(a.particles[i], b.particles[i]);
  }
}

TEST(GsoTest, EvaluationCountMatchesCostModel) {
  const GaussianBumps bumps = ThreeBumps1d();
  GsoParams params;
  params.num_glowworms = 40;
  params.max_iterations = 30;
  params.convergence_tol_frac = 0.0;  // disable early stop
  const GlowwormSwarmOptimizer gso(params);
  // Count the regions the fitness actually receives.
  uint64_t rows_received = 0;
  const FitnessFn scalar = bumps.AsFitnessFn();
  const BatchFitnessFn counting =
      [&](const std::vector<Region>& regions) {
        rows_received += regions.size();
        std::vector<FitnessValue> out;
        for (const Region& region : regions) out.push_back(scalar(region));
        return out;
      };
  const GsoResult result = gso.Optimize(counting, UnitSpace(1));
  EXPECT_EQ(result.objective_evaluations, rows_received);
  // Only moved particles are re-scored: fewer than the paper's T·L plus
  // one final refresh pass once particles settle.
  EXPECT_LT(result.objective_evaluations, 40u * 30u + 40u);
  EXPECT_GE(result.objective_evaluations, 40u);
}

TEST(GsoTest, InvalidParticlesStayIsolatedWithoutExploration) {
  // A landscape with a single tiny valid pocket most particles miss:
  // invalid particles must not move (paper semantics).
  GaussianBumps bumps;
  bumps.peaks = {{0.5, 0.25}};
  bumps.sigma = 0.02;
  bumps.validity_floor = 0.5;
  GsoParams params;
  params.num_glowworms = 60;
  params.max_iterations = 50;
  params.seed = 8;
  const GlowwormSwarmOptimizer gso(params);
  const GsoResult result = gso.Optimize(bumps.AsFitnessFn(), UnitSpace(1));
  // Some particles end up invalid (stationary, dim) — that's expected.
  EXPECT_LT(result.ValidFraction(), 1.0);
}

TEST(GsoTest, ExplorationRestartRecoversRareEvents) {
  GaussianBumps bumps;
  bumps.peaks = {{0.5, 0.25}};
  bumps.sigma = 0.03;
  bumps.validity_floor = 0.4;
  GsoParams params;
  params.num_glowworms = 80;
  params.max_iterations = 200;
  params.seed = 9;
  params.exploration_restart_prob = 0.2;
  const GlowwormSwarmOptimizer gso(params);
  const GsoResult result = gso.Optimize(bumps.AsFitnessFn(), UnitSpace(1));
  size_t valid = 0;
  for (bool v : result.valid) valid += v ? 1 : 0;
  EXPECT_GT(valid, 0u);
}

TEST(GsoTest, PaperScaledParamsFollowFormulas) {
  const GsoParams params = GsoParams::PaperScaled(4);
  EXPECT_EQ(params.num_glowworms, 200u);  // 50·d
  const double L = 200.0;
  EXPECT_NEAR(params.initial_radius_frac,
              std::pow(1.0 - std::pow(0.5, 1.0 / L), 1.0 / 4.0), 1e-12);
}

TEST(GsoTest, ConvergenceFlagFires) {
  // Single bump with a huge sigma: the swarm collapses quickly.
  GaussianBumps bumps;
  bumps.peaks = {{0.5, 0.25}};
  bumps.sigma = 0.5;
  bumps.validity_floor = -1.0;
  GsoParams params;
  params.num_glowworms = 40;
  params.max_iterations = 400;
  params.convergence_tol_frac = 1e-3;
  params.convergence_window = 5;
  params.seed = 10;
  const GlowwormSwarmOptimizer gso(params);
  const GsoResult result = gso.Optimize(bumps.AsFitnessFn(), UnitSpace(1));
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations_run, 400u);
}

// ------------------------------------------------------- golden swarms

/// FNV-1a over the bytes of everything a swarm reports except
/// `objective_evaluations`, which counts work rather than describing the
/// outcome. The golden values below were captured before GSO learned to
/// skip unmoved particles; the swarm itself must not have changed.
uint64_t SwarmHash(const GsoResult& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  auto mix_doubles = [&mix](const std::vector<double>& v) {
    const uint64_t n = v.size();
    mix(&n, sizeof(n));
    if (!v.empty()) mix(v.data(), v.size() * sizeof(double));
  };
  for (const Region& p : r.particles) {
    for (size_t j = 0; j < p.dims(); ++j) {
      const double c = p.center(j);
      const double l = p.half_length(j);
      mix(&c, sizeof(c));
      mix(&l, sizeof(l));
    }
  }
  mix_doubles(r.fitness);
  for (const bool v : r.valid) {
    const uint8_t b = v ? 1 : 0;
    mix(&b, 1);
  }
  mix_doubles(r.luciferin);
  mix_doubles(r.history.mean_fitness);
  mix_doubles(r.history.mean_movement);
  mix_doubles(r.history.valid_fraction);
  const uint64_t iterations = r.iterations_run;
  mix(&iterations, sizeof(iterations));
  const uint8_t flags = (r.converged ? 1 : 0) | (r.cancelled ? 2 : 0);
  mix(&flags, 1);
  return h;
}

struct GoldenSwarm {
  const char* name;
  GaussianBumps bumps;
  GsoParams params;
  uint64_t hash;
};

GsoParams SwarmParams(size_t glowworms, size_t iterations, uint64_t seed) {
  GsoParams params;
  params.num_glowworms = glowworms;
  params.max_iterations = iterations;
  params.seed = seed;
  return params;
}

GaussianBumps SinglePocket(double sigma, double floor) {
  GaussianBumps bumps;
  bumps.peaks = {{0.5, 0.25}};
  bumps.sigma = sigma;
  bumps.validity_floor = floor;
  return bumps;
}

TEST(GsoGoldenTest, LandscapeSwarmsMatchGoldenHashes) {
  // The GsoTest landscapes above, with their parameters.
  std::vector<GoldenSwarm> cases = {
      {"three_bumps_s3", ThreeBumps1d(), SwarmParams(150, 150, 3),
       0x6955bfbd9039022cull},
      {"three_bumps_s4", ThreeBumps1d(), SwarmParams(120, 100, 4),
       0x526203cffd08456bull},
      {"three_bumps_s5", ThreeBumps1d(), SwarmParams(100, 120, 5),
       0x503378bd0a259979ull},
      {"three_bumps_s6", ThreeBumps1d(), SwarmParams(50, 40, 6),
       0x4fd35d391af5d8e3ull},
      {"three_bumps_no_stop", ThreeBumps1d(), SwarmParams(40, 30, 99),
       0xea8c05bb22ab1d01ull},
      {"pocket_isolated", SinglePocket(0.02, 0.5), SwarmParams(60, 50, 8),
       0xb94b76938bf0932bull},
      {"pocket_restart", SinglePocket(0.03, 0.4), SwarmParams(80, 200, 9),
       0x3e42c8a4ce9f31c2ull},
      {"wide_converging", SinglePocket(0.5, -1.0), SwarmParams(40, 400, 10),
       0x8fa72c13d297336eull},
  };
  cases[4].params.convergence_tol_frac = 0.0;
  cases[6].params.exploration_restart_prob = 0.2;
  cases[7].params.convergence_tol_frac = 1e-3;
  cases[7].params.convergence_window = 5;
  for (const GoldenSwarm& c : cases) {
    const GsoResult result = GlowwormSwarmOptimizer(c.params).Optimize(
        c.bumps.AsFitnessFn(), UnitSpace(1));
    EXPECT_EQ(SwarmHash(result), c.hash)
        << c.name << ": 0x" << std::hex << SwarmHash(result);
  }
}

TEST(GsoGoldenTest, SurrogateBackedSwarmMatchesGoldenHash) {
  // A GBRT surrogate of a smooth "mass near a hotspot" statistic over a
  // 2-d domain, searched through the batched objective as the finder
  // does.
  RegionWorkload workload;
  workload.space = RegionSolutionSpace::ForBounds(
      Bounds({0.0, 0.0}, {1.0, 1.0}), 0.01, 0.3);
  workload.features = FeatureMatrix(4);
  Rng rng(71);
  for (size_t i = 0; i < 1500; ++i) {
    const std::vector<double> f =
        RegionFeatures(workload.space.Sample(&rng));
    const double dx = f[0] - 0.6;
    const double dy = f[1] - 0.4;
    workload.features.AddRow(f);
    workload.targets.push_back(400.0 * f[2] * f[3] *
                               std::exp(-(dx * dx + dy * dy) / 0.05));
  }
  SurrogateTrainOptions options;
  options.gbrt.n_estimators = 60;
  auto surrogate = Surrogate::Train(workload, options);
  ASSERT_TRUE(surrogate.ok());

  ObjectiveConfig config;
  config.threshold = 2.0;
  const RegionObjective objective(surrogate->AsStatisticFn(),
                                  surrogate->AsBatchStatisticFn(), config);
  const GsoResult result =
      GlowwormSwarmOptimizer(SwarmParams(60, 40, 12))
          .Optimize(objective.AsBatchFitnessFn(), workload.space);
  EXPECT_GT(result.ValidFraction(), 0.0);
  EXPECT_EQ(SwarmHash(result), 0x3602fc3adcb4ca0eull)
      << "0x" << std::hex << SwarmHash(result);
}

// ---------------------------------------------------------------- PSO

TEST(PsoTest, FindsSingleOptimum) {
  GaussianBumps bumps;
  bumps.peaks = {{0.3, 0.2}};
  bumps.sigma = 0.15;
  bumps.validity_floor = -1.0;
  PsoParams params;
  params.num_particles = 40;
  params.max_iterations = 80;
  const ParticleSwarmOptimizer pso(params);
  const PsoResult result = pso.Optimize(bumps.AsFitnessFn(), UnitSpace(1));
  ASSERT_TRUE(result.found_valid);
  EXPECT_LT(bumps.DistanceToNearestPeak(result.best), 0.05);
}

TEST(PsoTest, CollapsesToOneModeOnMultimodal) {
  // The motivating contrast with GSO: PSO returns exactly one region.
  const GaussianBumps bumps = ThreeBumps1d();
  PsoParams params;
  params.num_particles = 60;
  params.max_iterations = 100;
  const ParticleSwarmOptimizer pso(params);
  const PsoResult result = pso.Optimize(bumps.AsFitnessFn(), UnitSpace(1));
  ASSERT_TRUE(result.found_valid);
  EXPECT_LT(bumps.DistanceToNearestPeak(result.best), 0.1);
}

TEST(PsoTest, RastriginNearGlobal) {
  PsoParams params;
  params.num_particles = 80;
  params.max_iterations = 200;
  params.seed = 12;
  const ParticleSwarmOptimizer pso(params);
  const FitnessFn fn = InvertedRastrigin({0.5, 0.2}, 0.3);
  const PsoResult result = pso.Optimize(fn, UnitSpace(1));
  ASSERT_TRUE(result.found_valid);
  EXPECT_GT(result.best_fitness, -5.0);  // global max is 0
}

// ---------------------------------------------------------- Naive search

TEST(NaiveSearchTest, EnumeratesFullGrid) {
  ObjectiveConfig config;
  config.threshold = -1.0;  // everything valid
  const RegionObjective obj([](const Region&) { return 0.0; }, config);
  NaiveSearchParams params;
  params.centers_per_dim = 4;
  params.sizes_per_dim = 3;
  const NaiveSearch naive(params);
  const NaiveSearchResult result = naive.Run(obj, UnitSpace(2));
  EXPECT_EQ(result.total_candidates, 144u);  // (4·3)^2
  EXPECT_EQ(result.examined, 144u);
  EXPECT_FALSE(result.timed_out);
  EXPECT_DOUBLE_EQ(result.FractionExamined(), 1.0);
  EXPECT_EQ(result.viable.size(), 144u);
}

TEST(NaiveSearchTest, FindsPlantedHotRegion) {
  // Statistic: high only near x = 0.5.
  const StatisticFn f = [](const Region& r) {
    return std::exp(-50.0 * (r.center(0) - 0.5) * (r.center(0) - 0.5)) *
           100.0;
  };
  ObjectiveConfig config;
  config.threshold = 50.0;
  config.direction = ThresholdDirection::kAbove;
  const RegionObjective obj(f, config);
  NaiveSearchParams params;
  params.centers_per_dim = 11;
  params.sizes_per_dim = 3;
  const NaiveSearch naive(params);
  const NaiveSearchResult result = naive.Run(obj, UnitSpace(1));
  ASSERT_FALSE(result.viable.empty());
  for (const auto& v : result.viable) {
    EXPECT_NEAR(v.region.center(0), 0.5, 0.15);
    EXPECT_GT(v.statistic, 50.0);
  }
}

TEST(NaiveSearchTest, EvaluationCapTruncates) {
  ObjectiveConfig config;
  config.threshold = -1.0;
  const RegionObjective obj([](const Region&) { return 0.0; }, config);
  NaiveSearchParams params;
  params.centers_per_dim = 6;
  params.sizes_per_dim = 6;
  params.max_evaluations = 100;
  const NaiveSearch naive(params);
  const NaiveSearchResult result = naive.Run(obj, UnitSpace(2));
  EXPECT_EQ(result.examined, 100u);
  EXPECT_TRUE(result.timed_out);
  EXPECT_LT(result.FractionExamined(), 1.0);
}

// --------------------------------------------------- Distinct extraction

TEST(SelectDistinctRegionsTest, KeepsBestAndDropsOverlaps) {
  std::vector<ScoredRegion> candidates;
  auto add = [&](double cx, double half, double score) {
    ScoredRegion s;
    s.region = Region({cx}, {half});
    s.fitness = score;
    candidates.push_back(s);
  };
  add(0.30, 0.1, 5.0);
  add(0.31, 0.1, 4.0);  // overlaps the first
  add(0.80, 0.1, 3.0);  // distinct
  const auto kept = SelectDistinctRegions(candidates, 0.3, 10);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_DOUBLE_EQ(kept[0].fitness, 5.0);
  EXPECT_DOUBLE_EQ(kept[1].fitness, 3.0);
}

TEST(SelectDistinctRegionsTest, RespectsMaxRegions) {
  std::vector<ScoredRegion> candidates;
  for (int i = 0; i < 10; ++i) {
    ScoredRegion s;
    s.region = Region({0.1 * i}, {0.01});
    s.fitness = static_cast<double>(i);
    candidates.push_back(s);
  }
  const auto kept = SelectDistinctRegions(candidates, 0.3, 3);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_DOUBLE_EQ(kept[0].fitness, 9.0);  // sorted by score
}

TEST(SelectDistinctRegionsTest, EmptyInputIsFine) {
  EXPECT_TRUE(SelectDistinctRegions({}, 0.3, 5).empty());
}

// --------------------------------------------------------- TestFunctions

TEST(TestFunctionsTest, BumpValueAtPeak) {
  GaussianBumps bumps;
  bumps.peaks = {{0.5, 0.2}};
  bumps.sigma = 0.1;
  bumps.validity_floor = -1.0;
  const FitnessValue at_peak = bumps.Evaluate(Region({0.5}, {0.2}));
  EXPECT_NEAR(at_peak.value, 1.0, 1e-12);
  const FitnessValue far = bumps.Evaluate(Region({0.0}, {0.5}));
  EXPECT_LT(far.value, 0.01);
}

TEST(TestFunctionsTest, NearestPeakIndex) {
  GaussianBumps bumps = ThreeBumps1d();
  EXPECT_EQ(bumps.NearestPeak(Region({0.21}, {0.1})), 0);
  EXPECT_EQ(bumps.NearestPeak(Region({0.78}, {0.16})), 2);
}

TEST(TestFunctionsTest, RastriginMaxAtCenter) {
  const FitnessFn fn = InvertedRastrigin({0.5, 0.2}, 0.3);
  EXPECT_NEAR(fn(Region({0.5}, {0.2})).value, 0.0, 1e-9);
  EXPECT_LT(fn(Region({0.7}, {0.3})).value, 0.0);
}

}  // namespace
}  // namespace surf
