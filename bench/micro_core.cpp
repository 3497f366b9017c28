// Microbenchmarks (google-benchmark) for the hot paths every experiment
// leans on: surrogate prediction, GBRT tree traversal, KDE region-mass
// integrals, exact range queries on the scan and the grid, GSO
// iterations, and IoU math.
//
// Before the google-benchmark suite, main() runs the GBRT engine speedup
// report: the reworked engine (contiguous bins, sibling histogram
// subtraction, leaf-range boosting updates, blocked copy-free batch
// prediction) against a faithful port of the original single-thread
// implementation, at 1 and 8 threads, verifying bit-identical predictions
// across thread counts, plus PredictBatch at swarm sizes (30 and 150
// rows) against the depth-first walk it replaced. Results land in
// BENCH_gbrt.json (override the path with SURF_BENCH_JSON). Pass
// --speedup-only to skip the benchmark suite, e.g. in CI perf smoke jobs.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>

#include "accel/accel.h"
#include "bench_common.h"
#include "core/workload.h"
#include "legacy_gbrt.h"
#include "ml/gbrt.h"
#include "ml/kde.h"
#include "ml/tree.h"
#include "stats/grid_index.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace surf {
namespace {

/// Shared fixtures, built once.
struct MicroFixture {
  SyntheticDataset ds;
  std::unique_ptr<ScanEvaluator> scan;
  std::unique_ptr<GridIndexEvaluator> grid;
  Surrogate surrogate;
  std::unique_ptr<Kde> kde;
  RegionSolutionSpace space;
  std::vector<Region> probes;

  static MicroFixture& Get() {
    static MicroFixture* fixture = [] {
      auto* f = new MicroFixture();
      SyntheticSpec spec;
      spec.dims = 2;
      spec.num_gt_regions = 1;
      spec.statistic = SyntheticStatistic::kDensity;
      spec.num_background = 50000;
      spec.seed = 3;
      f->ds = SyntheticGenerator::Generate(spec);
      const Statistic stat = Statistic::Count(f->ds.region_cols);
      f->scan = std::make_unique<ScanEvaluator>(&f->ds.data, stat);
      f->grid =
          std::make_unique<GridIndexEvaluator>(&f->ds.data, stat, 16);

      WorkloadParams wparams;
      wparams.num_queries = 4000;
      const RegionWorkload workload = GenerateWorkload(
          *f->grid, f->ds.data.ComputeBounds(f->ds.region_cols), wparams);
      f->space = workload.space;
      auto surrogate = Surrogate::Train(workload, SurrogateTrainOptions{});
      f->surrogate = std::move(surrogate).value();

      Rng rng(4);
      std::vector<std::vector<double>> points;
      for (size_t r = 0; r < 2000; ++r) {
        points.push_back(
            {f->ds.data.Get(r, 0), f->ds.data.Get(r, 1)});
      }
      f->kde = std::make_unique<Kde>(Kde::Fit(points));
      for (int i = 0; i < 256; ++i) f->probes.push_back(
          f->space.Sample(&rng));
      return f;
    }();
    return *fixture;
  }
};

void BM_SurrogatePredict(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.surrogate.Predict(f.probes[i++ & 255]));
  }
}
BENCHMARK(BM_SurrogatePredict);

void BM_SurrogateEvaluateMany(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.surrogate.EvaluateMany(f.probes));
  }
}
BENCHMARK(BM_SurrogateEvaluateMany);

void BM_ScanEvaluate(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.scan->Evaluate(f.probes[i++ & 255]));
  }
}
BENCHMARK(BM_ScanEvaluate);

void BM_GridIndexEvaluate(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.grid->Evaluate(f.probes[i++ & 255]));
  }
}
BENCHMARK(BM_GridIndexEvaluate);

void BM_KdeRegionMass(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.kde->RegionMass(f.probes[i++ & 255]));
  }
}
BENCHMARK(BM_KdeRegionMass);

void BM_RegionIoU(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.probes[i & 255].IoU(f.probes[(i + 1) & 255]));
    ++i;
  }
}
BENCHMARK(BM_RegionIoU);

void BM_GsoIteration(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  ObjectiveConfig oconfig;
  oconfig.threshold = 1000.0;
  const RegionObjective objective(f.surrogate.AsStatisticFn(),
                                  f.surrogate.AsBatchStatisticFn(), oconfig);
  GsoParams params;
  params.num_glowworms = static_cast<size_t>(state.range(0));
  params.max_iterations = 1;
  params.convergence_tol_frac = 0.0;
  const GlowwormSwarmOptimizer gso(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gso.Optimize(objective.AsBatchFitnessFn(), f.space));
  }
}
BENCHMARK(BM_GsoIteration)->Arg(50)->Arg(100)->Arg(200);

void BM_GbrtTraining(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  WorkloadParams wparams;
  wparams.num_queries = static_cast<size_t>(state.range(0));
  const RegionWorkload workload = GenerateWorkload(
      *f.grid, f.ds.data.ComputeBounds(f.ds.region_cols), wparams);
  GbrtParams params;
  params.n_estimators = 50;
  for (auto _ : state) {
    GradientBoostedTrees model(params);
    benchmark::DoNotOptimize(
        model.Fit(workload.features, workload.targets));
  }
}
BENCHMARK(BM_GbrtTraining)->Arg(1000)->Arg(4000)->Unit(
    benchmark::kMillisecond);

void BM_GbrtPredictBatch(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  Rng rng(6);
  FeatureMatrix probes(2 * f.space.dims());
  const size_t n = static_cast<size_t>(state.range(0));
  probes.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    probes.AddRow(RegionFeatures(f.space.Sample(&rng)));
  }
  const auto* model =
      dynamic_cast<const GradientBoostedTrees*>(&f.surrogate.model());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->PredictBatch(probes));
  }
}
BENCHMARK(BM_GbrtPredictBatch)->Arg(1024)->Arg(16384)->Unit(
    benchmark::kMillisecond);

// ===================================================================
// GBRT engine speedup report (BENCH_gbrt.json)
// ===================================================================

constexpr size_t kReportThreads = 8;

// Training comparison shape.
constexpr size_t kTrainRows = 100000;
constexpr size_t kTrainFeatures = 6;
constexpr size_t kTrainTrees = 100;
constexpr size_t kTrainDepth = 8;

// Prediction comparison shape (big ensemble: the blocked traversal's
// cache behaviour is the whole story).
constexpr size_t kPredictTrees = 300;
constexpr size_t kPredictDepth = 9;
constexpr size_t kPredictRows = 30000;

double BenchTargetFn(const std::vector<double>& x) {
  double out = std::sin(6.0 * x[0]) + 0.7 * x[1] * x[1];
  for (size_t j = 2; j < x.size(); ++j) {
    out += 0.3 * std::cos(3.0 * x[j]) * x[(j - 1) % x.size()];
  }
  return out;
}

void MakeBenchProblem(size_t rows, size_t features, uint64_t seed,
                      FeatureMatrix* x, std::vector<double>* y) {
  Rng rng(seed);
  *x = FeatureMatrix(features);
  x->Reserve(rows);
  y->clear();
  y->reserve(rows);
  std::vector<double> row(features);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < features; ++j) row[j] = rng.Uniform();
    x->AddRow(row);
    y->push_back(BenchTargetFn(row) + 0.05 * rng.Gaussian());
  }
}

template <typename Fn>
double BestOfSeconds(size_t reps, const Fn& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < reps; ++i) {
    Stopwatch timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

struct SpeedupReport {
  double train_baseline_ms = 0.0;
  double train_engine_1t_ms = 0.0;
  double train_engine_mt_ms = 0.0;
  double predict_baseline_ms = 0.0;
  double predict_engine_1t_ms = 0.0;
  double predict_engine_mt_ms = 0.0;
  bool deterministic_across_threads = false;
  double predict_max_abs_diff_vs_baseline = 0.0;
};

GbrtParams EngineParams(size_t trees, size_t depth, size_t threads) {
  GbrtParams params;
  params.n_estimators = trees;
  params.max_depth = depth;
  params.num_threads = threads;
  params.seed = 11;
  return params;
}

SpeedupReport RunSpeedupReport() {
  SpeedupReport report;

  // ---- training ----
  FeatureMatrix train_x;
  std::vector<double> train_y;
  MakeBenchProblem(kTrainRows, kTrainFeatures, 91, &train_x, &train_y);

  report.train_baseline_ms = 1e3 * BestOfSeconds(2, [&] {
    bench::LegacyGbrt legacy;
    legacy.n_estimators = kTrainTrees;
    legacy.tree_params.max_depth = kTrainDepth;
    legacy.Fit(train_x, train_y);
    if (legacy.num_trees() != kTrainTrees) std::abort();
  });
  report.train_engine_1t_ms = 1e3 * BestOfSeconds(2, [&] {
    GradientBoostedTrees model(EngineParams(kTrainTrees, kTrainDepth, 1));
    if (!model.Fit(train_x, train_y).ok()) std::abort();
  });
  report.train_engine_mt_ms = 1e3 * BestOfSeconds(2, [&] {
    GradientBoostedTrees model(
        EngineParams(kTrainTrees, kTrainDepth, kReportThreads));
    if (!model.Fit(train_x, train_y).ok()) std::abort();
  });

  // Determinism: identical predictions for any thread count.
  {
    GradientBoostedTrees one(EngineParams(kTrainTrees, kTrainDepth, 1));
    GradientBoostedTrees many(
        EngineParams(kTrainTrees, kTrainDepth, kReportThreads));
    if (!one.Fit(train_x, train_y).ok()) std::abort();
    if (!many.Fit(train_x, train_y).ok()) std::abort();
    const std::vector<double> pa = one.PredictBatch(train_x);
    const std::vector<double> pb = many.PredictBatch(train_x);
    report.deterministic_across_threads = pa == pb;
  }

  // ---- batch prediction ----
  // One big ensemble, walked by both engines: the legacy predictor loads
  // the library model's serialized trees so the comparison is over the
  // identical ensemble.
  GradientBoostedTrees model(
      EngineParams(kPredictTrees, kPredictDepth, kReportThreads));
  if (!model.Fit(train_x, train_y).ok()) std::abort();

  bench::LegacyGbrt legacy_model;
  {
    const std::string tmp = "/tmp/surf_bench_gbrt.model";
    if (!model.Save(tmp).ok()) std::abort();
    std::ifstream is(tmp);
    std::string magic;
    size_t num_features = 0, n_trees = 0;
    double base_score = 0.0, lr = 0.0;
    is >> magic >> num_features >> base_score >> lr >> n_trees;
    legacy_model.LoadTrees(is, n_trees, base_score, lr, num_features);
    std::remove(tmp.c_str());
  }

  FeatureMatrix probe_x;
  std::vector<double> probe_y;
  MakeBenchProblem(kPredictRows, kTrainFeatures, 92, &probe_x, &probe_y);

  std::vector<double> legacy_out, engine_out_1t, engine_out_mt;
  report.predict_baseline_ms = 1e3 * BestOfSeconds(3, [&] {
    legacy_out = legacy_model.PredictBatch(probe_x);
  });
  model.set_num_threads(1);
  report.predict_engine_1t_ms = 1e3 * BestOfSeconds(3, [&] {
    engine_out_1t = model.PredictBatch(probe_x);
  });
  model.set_num_threads(kReportThreads);
  report.predict_engine_mt_ms = 1e3 * BestOfSeconds(3, [&] {
    engine_out_mt = model.PredictBatch(probe_x);
  });

  if (engine_out_1t != engine_out_mt) {
    report.deterministic_across_threads = false;
  }
  for (size_t r = 0; r < legacy_out.size(); ++r) {
    report.predict_max_abs_diff_vs_baseline =
        std::max(report.predict_max_abs_diff_vs_baseline,
                 std::fabs(legacy_out[r] - engine_out_1t[r]));
  }
  return report;
}

// ===================================================================
// Swarm-sized batch prediction (the "swarm_predict" object in the JSON)
// ===================================================================

// GSO scores one swarm per iteration: ~30 regions on surfd's warm path,
// 50·d = 150 for a paper-scaled 3-d search. The fixture surrogate is the
// default ensemble (100 trees, depth 6) over 2-d region features.
constexpr size_t kSwarmRows[] = {30, 150};
constexpr size_t kSwarmCallsPerRep = 2000;
constexpr size_t kSwarmReps = 7;

struct SwarmPredictTimes {
  size_t rows = 0;
  double image_us = 0.0;
  double depth_first_us = 0.0;
  bool bit_identical = false;
};

struct SwarmPredictReport {
  size_t trees = 0;
  std::vector<SwarmPredictTimes> shapes;
};

/// The ensemble's trees, walked depth-first one tree at a time over the
/// batch — how PredictBatch evaluated every ensemble before the
/// complete-tree image, and still does for trees deeper than its cap.
struct DepthFirstEnsemble {
  double base_score = 0.0;
  double learning_rate = 0.0;
  std::vector<RegressionTree> trees;

  std::vector<double> PredictBatch(const FeatureMatrix& x) const {
    std::vector<double> out(x.num_rows(), base_score);
    const std::vector<const double*> cols = x.ColPointers();
    for (const RegressionTree& tree : trees) {
      tree.AddPredictions(cols.data(), 0, x.num_rows(), learning_rate,
                          out.data());
    }
    return out;
  }
};

DepthFirstEnsemble LoadDepthFirst(const GradientBoostedTrees& model) {
  const std::string tmp = "/tmp/surf_bench_swarm.model";
  if (!model.Save(tmp).ok()) std::abort();
  std::ifstream is(tmp);
  std::string magic;
  size_t num_features = 0, n_trees = 0;
  DepthFirstEnsemble ensemble;
  is >> magic >> num_features >> ensemble.base_score >>
      ensemble.learning_rate >> n_trees;
  for (size_t t = 0; t < n_trees; ++t) {
    auto tree = RegressionTree::Deserialize(is);
    if (!tree.ok()) std::abort();
    ensemble.trees.push_back(std::move(tree).value());
  }
  std::remove(tmp.c_str());
  return ensemble;
}

SwarmPredictReport RunSwarmPredictReport() {
  MicroFixture& f = MicroFixture::Get();
  const auto& model =
      dynamic_cast<const GradientBoostedTrees&>(f.surrogate.model());
  const DepthFirstEnsemble depth_first = LoadDepthFirst(model);
  SwarmPredictReport report;
  report.trees = model.num_trees();
  double sink = 0.0;
  for (const size_t rows : kSwarmRows) {
    FeatureMatrix x(2 * f.space.dims());
    for (size_t i = 0; i < rows; ++i) {
      x.AddRow(RegionFeatures(f.probes[i % f.probes.size()]));
    }
    SwarmPredictTimes times;
    times.rows = rows;
    times.bit_identical =
        model.PredictBatch(x) == depth_first.PredictBatch(x);
    // Interleaved reps so drift hits both kernels alike; min-of-reps.
    double best_image = std::numeric_limits<double>::infinity();
    double best_depth_first = std::numeric_limits<double>::infinity();
    for (size_t rep = 0; rep < kSwarmReps; ++rep) {
      best_image = std::min(best_image, BestOfSeconds(1, [&] {
        for (size_t c = 0; c < kSwarmCallsPerRep; ++c) {
          sink += model.PredictBatch(x)[c % rows];
        }
      }));
      best_depth_first = std::min(best_depth_first, BestOfSeconds(1, [&] {
        for (size_t c = 0; c < kSwarmCallsPerRep; ++c) {
          sink += depth_first.PredictBatch(x)[c % rows];
        }
      }));
    }
    times.image_us = 1e6 * best_image / kSwarmCallsPerRep;
    times.depth_first_us = 1e6 * best_depth_first / kSwarmCallsPerRep;
    report.shapes.push_back(times);
  }
  if (sink == 0.5) std::printf("\n");  // keep `sink` observable
  return report;
}

// ===================================================================
// Accel kernel-level speedup section (the "accel" object in the JSON)
// ===================================================================

constexpr size_t kKernelRows = 1u << 21;  // 2M rows per kernel rep

struct AccelKernelTimes {
  std::string backend;
  double mask_range_ms = 0.0;
  double mask_count_ms = 0.0;
};

struct AccelReport {
  AccelSelection selection;
  double legacy_mask_range_ms = 0.0;
  double legacy_mask_count_ms = 0.0;
  std::vector<AccelKernelTimes> backends;
};

AccelReport RunAccelKernelReport() {
  AccelReport report;
  report.selection = CurrentAccelSelection();

  Rng rng(93);
  std::vector<double> col(kKernelRows);
  std::vector<uint8_t> mask(kKernelRows, 1), scratch_mask(kKernelRows);
  for (size_t i = 0; i < kKernelRows; ++i) col[i] = rng.Uniform(-10.0, 10.0);
  uint64_t sink = 0;

  report.legacy_mask_range_ms = 1e3 * BestOfSeconds(5, [&] {
    std::copy(mask.begin(), mask.end(), scratch_mask.begin());
    bench::LegacyMaskScan(col.data(), kKernelRows, -3.0, 3.0,
                          scratch_mask.data());
  });
  report.legacy_mask_count_ms = 1e3 * BestOfSeconds(5, [&] {
    sink += bench::LegacyMaskCount(scratch_mask.data(), kKernelRows);
  });

  for (int b = 0; b < kNumAccelBackends; ++b) {
    const AccelBackend backend = static_cast<AccelBackend>(b);
    if (!AccelSupported(backend)) continue;
    const AccelOps& ops = AccelOpsFor(backend);
    AccelKernelTimes times;
    times.backend = ops.name;
    times.mask_range_ms = 1e3 * BestOfSeconds(5, [&] {
      std::copy(mask.begin(), mask.end(), scratch_mask.begin());
      ops.mask_range_and(col.data(), kKernelRows, -3.0, 3.0,
                         scratch_mask.data());
    });
    times.mask_count_ms = 1e3 * BestOfSeconds(5, [&] {
      sink += ops.mask_count(scratch_mask.data(), kKernelRows);
    });
    report.backends.push_back(times);
  }
  if (sink == 0xdeadbeef) std::printf("\n");  // keep `sink` observable
  return report;
}

// ===================================================================
// Disabled-tracing overhead gate (the "trace_overhead" object)
// ===================================================================

// The disabled-mode cost contract: a TraceSpan with a null context is
// one branch in and one branch out, so instrumenting a hot loop at
// span-per-call granularity must stay within 2% of the uninstrumented
// loop. Span-per-call is far finer than any real site (the pipeline
// spans whole stages and batches), which makes this a sensitive canary:
// a regression that sneaks an allocation, a lock, or attr formatting
// into the disabled path fails the gate by an order of magnitude.
constexpr double kTraceOverheadMaxRatio = 1.02;
constexpr size_t kTraceOverheadIters = 50000;
constexpr size_t kTraceOverheadReps = 9;

struct TraceOverheadReport {
  double baseline_ms = 0.0;
  double disabled_ms = 0.0;
  double ratio = 0.0;
};

TraceOverheadReport RunTraceOverheadReport() {
  MicroFixture& f = MicroFixture::Get();
  TraceContext* const no_trace = nullptr;
  double sink = 0.0;

  const auto plain_rep = [&] {
    double acc = 0.0;
    size_t i = 0;
    for (size_t it = 0; it < kTraceOverheadIters; ++it) {
      acc += f.surrogate.Predict(f.probes[i++ & 255]);
    }
    sink += acc;
  };
  const auto traced_rep = [&] {
    double acc = 0.0;
    size_t i = 0;
    for (size_t it = 0; it < kTraceOverheadIters; ++it) {
      TraceSpan span(no_trace, "predict", TraceStage::kSearch);
      acc += f.surrogate.Predict(f.probes[i++ & 255]);
      span.Attr("iter", static_cast<uint64_t>(it));
      span.Attr("value", acc);
    }
    sink += acc;
  };

  // Interleave the paired reps so clock drift and thermal state hit
  // both sides equally; min-of-reps drops the (one-sided) noise.
  TraceOverheadReport report;
  double best_plain = std::numeric_limits<double>::infinity();
  double best_traced = std::numeric_limits<double>::infinity();
  plain_rep();   // warm caches before the first timed rep
  traced_rep();
  for (size_t rep = 0; rep < kTraceOverheadReps; ++rep) {
    {
      Stopwatch timer;
      plain_rep();
      best_plain = std::min(best_plain, timer.ElapsedSeconds());
    }
    {
      Stopwatch timer;
      traced_rep();
      best_traced = std::min(best_traced, timer.ElapsedSeconds());
    }
  }
  if (sink == 0.5) std::printf("\n");  // keep `sink` observable
  report.baseline_ms = 1e3 * best_plain;
  report.disabled_ms = 1e3 * best_traced;
  report.ratio = report.disabled_ms / report.baseline_ms;
  return report;
}

void WriteReportJson(const SpeedupReport& report, const AccelReport& accel,
                     const TraceOverheadReport& trace,
                     const SwarmPredictReport& swarm,
                     const std::string& path) {
  std::ofstream os(path);
  os.precision(6);
  os << "{\n";
  os << "  \"threads\": " << kReportThreads << ",\n";
  os << "  \"accel_backend\": \""
     << AccelBackendName(accel.selection.active) << "\",\n";
  os << "  \"accel\": {\n";
  os << "    \"rows\": " << kKernelRows << ",\n";
  os << "    \"legacy\": { \"mask_range_ms\": " << accel.legacy_mask_range_ms
     << ", \"mask_count_ms\": " << accel.legacy_mask_count_ms << " },\n";
  os << "    \"backends\": [\n";
  for (size_t i = 0; i < accel.backends.size(); ++i) {
    const AccelKernelTimes& t = accel.backends[i];
    os << "      { \"name\": \"" << t.backend
       << "\", \"mask_range_ms\": " << t.mask_range_ms
       << ", \"mask_count_ms\": " << t.mask_count_ms
       << ", \"mask_range_speedup_vs_legacy\": "
       << accel.legacy_mask_range_ms / t.mask_range_ms
       << ", \"mask_count_speedup_vs_legacy\": "
       << accel.legacy_mask_count_ms / t.mask_count_ms << " }"
       << (i + 1 < accel.backends.size() ? "," : "") << "\n";
  }
  os << "    ]\n";
  os << "  },\n";
  os << "  \"train\": {\n";
  os << "    \"rows\": " << kTrainRows << ",\n";
  os << "    \"features\": " << kTrainFeatures << ",\n";
  os << "    \"trees\": " << kTrainTrees << ",\n";
  os << "    \"max_depth\": " << kTrainDepth << ",\n";
  os << "    \"baseline_1t_ms\": " << report.train_baseline_ms << ",\n";
  os << "    \"engine_1t_ms\": " << report.train_engine_1t_ms << ",\n";
  os << "    \"engine_" << kReportThreads
     << "t_ms\": " << report.train_engine_mt_ms << ",\n";
  os << "    \"speedup_1t\": "
     << report.train_baseline_ms / report.train_engine_1t_ms << ",\n";
  os << "    \"speedup_" << kReportThreads << "t\": "
     << report.train_baseline_ms / report.train_engine_mt_ms << "\n";
  os << "  },\n";
  os << "  \"trace_overhead\": {\n";
  os << "    \"iterations\": " << kTraceOverheadIters << ",\n";
  os << "    \"baseline_ms\": " << trace.baseline_ms << ",\n";
  os << "    \"disabled_tracing_ms\": " << trace.disabled_ms << ",\n";
  os << "    \"ratio\": " << trace.ratio << ",\n";
  os << "    \"max_ratio\": " << kTraceOverheadMaxRatio << "\n";
  os << "  },\n";
  os << "  \"predict\": {\n";
  os << "    \"rows\": " << kPredictRows << ",\n";
  os << "    \"features\": " << kTrainFeatures << ",\n";
  os << "    \"trees\": " << kPredictTrees << ",\n";
  os << "    \"max_depth\": " << kPredictDepth << ",\n";
  os << "    \"baseline_1t_ms\": " << report.predict_baseline_ms << ",\n";
  os << "    \"engine_1t_ms\": " << report.predict_engine_1t_ms << ",\n";
  os << "    \"engine_" << kReportThreads
     << "t_ms\": " << report.predict_engine_mt_ms << ",\n";
  os << "    \"speedup_1t\": "
     << report.predict_baseline_ms / report.predict_engine_1t_ms << ",\n";
  os << "    \"speedup_" << kReportThreads << "t\": "
     << report.predict_baseline_ms / report.predict_engine_mt_ms << ",\n";
  os << "    \"max_abs_diff_vs_baseline\": "
     << report.predict_max_abs_diff_vs_baseline << "\n";
  os << "  },\n";
  os << "  \"swarm_predict\": {\n";
  os << "    \"trees\": " << swarm.trees << ",\n";
  os << "    \"shapes\": [\n";
  for (size_t i = 0; i < swarm.shapes.size(); ++i) {
    const SwarmPredictTimes& t = swarm.shapes[i];
    os << "      { \"rows\": " << t.rows << ", \"image_us\": " << t.image_us
       << ", \"depth_first_us\": " << t.depth_first_us
       << ", \"speedup\": " << t.depth_first_us / t.image_us
       << ", \"bit_identical\": " << (t.bit_identical ? "true" : "false")
       << " }" << (i + 1 < swarm.shapes.size() ? "," : "") << "\n";
  }
  os << "    ]\n";
  os << "  },\n";
  os << "  \"bit_identical_across_thread_counts\": "
     << (report.deterministic_across_threads ? "true" : "false") << "\n";
  os << "}\n";
}

}  // namespace
}  // namespace surf

int main(int argc, char** argv) {
  bool speedup_only = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--speedup-only") {
      speedup_only = true;
    } else {
      args.push_back(argv[i]);
    }
  }

  const char* json_env = std::getenv("SURF_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_gbrt.json";

  // Accel backend selection — reported up front, and a hard error when a
  // SURF_ACCEL override asked for a backend this host cannot deliver
  // (silently benchmarking the wrong kernels would poison the numbers).
  const surf::AccelSelection selection = surf::CurrentAccelSelection();
  std::printf("accel backend: %s%s\n",
              surf::AccelBackendName(selection.active),
              selection.override_requested ? " (SURF_ACCEL override)" : "");
  if (selection.override_requested && !selection.override_honored) {
    std::fprintf(stderr,
                 "error: SURF_ACCEL=%s requested but unavailable on this "
                 "host/build\n",
                 selection.requested.c_str());
    return 1;
  }

  std::printf("== accel kernel speedups (vs legacy scalar loops, %zu "
              "rows) ==\n",
              surf::kKernelRows);
  const surf::AccelReport accel = surf::RunAccelKernelReport();
  std::printf("legacy  : mask_range %.2f ms | mask_count %.2f ms\n",
              accel.legacy_mask_range_ms, accel.legacy_mask_count_ms);
  for (const surf::AccelKernelTimes& t : accel.backends) {
    std::printf("%-8s: mask_range %.2f ms (%.2fx) | mask_count %.2f ms "
                "(%.2fx)\n",
                t.backend.c_str(), t.mask_range_ms,
                accel.legacy_mask_range_ms / t.mask_range_ms,
                t.mask_count_ms,
                accel.legacy_mask_count_ms / t.mask_count_ms);
  }

  std::printf("\n== GBRT engine speedup report (vs legacy single-thread "
              "baseline) ==\n");
  const surf::SpeedupReport report = surf::RunSpeedupReport();
  std::printf("train   : baseline %.1f ms | engine 1t %.1f ms (%.2fx) | "
              "engine %zut %.1f ms (%.2fx)\n",
              report.train_baseline_ms, report.train_engine_1t_ms,
              report.train_baseline_ms / report.train_engine_1t_ms,
              surf::kReportThreads, report.train_engine_mt_ms,
              report.train_baseline_ms / report.train_engine_mt_ms);
  std::printf("predict : baseline %.1f ms | engine 1t %.1f ms (%.2fx) | "
              "engine %zut %.1f ms (%.2fx)\n",
              report.predict_baseline_ms, report.predict_engine_1t_ms,
              report.predict_baseline_ms / report.predict_engine_1t_ms,
              surf::kReportThreads, report.predict_engine_mt_ms,
              report.predict_baseline_ms / report.predict_engine_mt_ms);
  std::printf("bit-identical across thread counts: %s | max |Δ| vs "
              "baseline: %.3g\n",
              report.deterministic_across_threads ? "yes" : "NO",
              report.predict_max_abs_diff_vs_baseline);

  std::printf("\n== swarm-sized batch prediction (fixture surrogate) ==\n");
  const surf::SwarmPredictReport swarm = surf::RunSwarmPredictReport();
  bool swarm_identical = true;
  for (const surf::SwarmPredictTimes& t : swarm.shapes) {
    std::printf("%4zu rows: image %.1f us | depth-first %.1f us (%.2fx) | "
                "bit-identical: %s\n",
                t.rows, t.image_us, t.depth_first_us,
                t.depth_first_us / t.image_us, t.bit_identical ? "yes" : "NO");
    swarm_identical = swarm_identical && t.bit_identical;
  }

  std::printf("\n== disabled-tracing overhead gate (span per call) ==\n");
  const surf::TraceOverheadReport trace = surf::RunTraceOverheadReport();
  std::printf("plain %.2f ms | instrumented %.2f ms | ratio %.4f "
              "(max %.2f)\n",
              trace.baseline_ms, trace.disabled_ms, trace.ratio,
              surf::kTraceOverheadMaxRatio);

  surf::WriteReportJson(report, accel, trace, swarm, json_path);
  std::printf("wrote %s\n\n", json_path.c_str());
  if (!swarm_identical) {
    std::fprintf(stderr,
                 "error: complete-tree image predictions differ from the "
                 "depth-first walk\n");
    return 1;
  }
  if (trace.ratio > surf::kTraceOverheadMaxRatio) {
    std::fprintf(stderr,
                 "error: disabled tracing costs %.2f%% on a span-per-call "
                 "hot loop (budget %.0f%%) — the null-context TraceSpan "
                 "path must stay branch-only\n",
                 100.0 * (trace.ratio - 1.0),
                 100.0 * (surf::kTraceOverheadMaxRatio - 1.0));
    return 1;
  }
  if (speedup_only) return 0;

  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
