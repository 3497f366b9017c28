// Tutorial companion: the end-to-end walkthrough of docs/tutorial.md as
// one runnable program. Every numbered step below matches a section of
// the tutorial — keeping the docs' snippets compiling is this file's
// job (CI builds and runs it).
//
//   1. ingest a CSV dataset
//   2. generate a past-evaluation workload (and save/replay it)
//   3. train a surrogate and read its metrics
//   4. mine regions: threshold query and top-k query
//   5. stand up a MiningService and serve repeated queries
//   6. feed fresh evaluations back for a warm-start refresh
//
// Run:  ./build/example_tutorial_serve [--rows N]

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "core/surf.h"
#include "core/topk.h"
#include "serve/mining_service.h"
#include "util/cli.h"

using namespace surf;

namespace {

/// Writes a small CSV with a dense Gaussian pocket at (70, 30) over a
/// uniform background — the stand-in for "your data".
std::string WriteDemoCsv(size_t rows) {
  const std::string path = "/tmp/surf_tutorial_points.csv";
  std::ofstream os(path);
  os << "x,y\n";
  Rng rng(7);
  for (size_t i = 0; i < rows; ++i) {
    os << rng.Uniform(0.0, 100.0) << "," << rng.Uniform(0.0, 100.0) << "\n";
  }
  for (size_t i = 0; i < rows / 5; ++i) {
    os << 70.0 + 3.0 * rng.Gaussian() << "," << 30.0 + 3.0 * rng.Gaussian()
       << "\n";
  }
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const size_t rows = static_cast<size_t>(flags.GetInt("rows", 20000));

  // ---------------------------------------------------- 1. ingest a CSV
  const std::string csv_path = WriteDemoCsv(rows);
  auto data = Dataset::LoadCsv(csv_path);
  if (!data.ok()) {
    std::fprintf(stderr, "load: %s\n", data.status().ToString().c_str());
    return 1;
  }
  std::printf("1. ingested %zu rows x %zu cols from %s\n", data->num_rows(),
              data->num_cols(), csv_path.c_str());

  // A statistic task: COUNT over the (x, y) box columns.
  const Statistic statistic = Statistic::Count({0, 1});

  // ------------------------------- 2. generate (or replay) a workload
  // SuRF learns from past region evaluations. Without a real query log,
  // generate one: random regions labelled by an exact evaluator.
  const auto evaluator =
      MakeEvaluator(BackendKind::kGridIndex, &*data, statistic);
  WorkloadParams workload_params;
  workload_params.num_queries = 6000;
  const RegionWorkload workload = GenerateWorkload(
      *evaluator, data->ComputeBounds(statistic.region_cols),
      workload_params);
  std::printf("2. workload: %zu labelled region evaluations\n",
              workload.size());

  // Real past query logs round-trip through CSV the same way:
  const std::string log_path = "/tmp/surf_tutorial_workload.csv";
  if (auto st = SaveWorkload(workload, log_path); !st.ok()) {
    std::fprintf(stderr, "save: %s\n", st.ToString().c_str());
    return 1;
  }
  auto replayed = LoadWorkload(log_path);
  if (!replayed.ok() || replayed->size() != workload.size()) {
    std::fprintf(stderr, "replay mismatch\n");
    return 1;
  }
  std::printf("   replayed %zu evaluations from %s\n", replayed->size(),
              log_path.c_str());

  // ------------------------------------------ 3. train the surrogate
  SurrogateTrainOptions train_options;
  train_options.gbrt.n_estimators = 100;
  auto surrogate = Surrogate::Train(workload, train_options);
  if (!surrogate.ok()) {
    std::fprintf(stderr, "train: %s\n",
                 surrogate.status().ToString().c_str());
    return 1;
  }
  std::printf("3. surrogate: train RMSE %.1f, test RMSE %.1f, %.2fs\n",
              surrogate->metrics().train_rmse,
              surrogate->metrics().test_rmse,
              surrogate->metrics().train_seconds);

  // -------------------------- 4. mine: threshold query + top-k query
  FinderConfig finder_config;
  finder_config.gso.max_iterations = 60;
  SurfFinder finder(surrogate->AsStatisticFn(), surrogate->space(),
                    finder_config);
  finder.SetBatchEstimate(surrogate->AsBatchStatisticFn());
  finder.SetValidator(evaluator.get());
  const FindResult found =
      finder.Find(2.0 * static_cast<double>(rows) / 10.0,
                  ThresholdDirection::kAbove);
  std::printf("4. threshold query: %zu regions, %.0f%% true compliance\n",
              found.regions.size(), 100.0 * found.report.true_compliance);

  TopKConfig topk_config;
  topk_config.k = 2;
  topk_config.gso.max_iterations = 60;
  TopKFinder topk(surrogate->AsStatisticFn(), surrogate->space(),
                  topk_config);
  topk.SetBatchEstimate(surrogate->AsBatchStatisticFn());
  const TopKResult ranked = topk.Find();
  std::printf("   top-k query: %zu ranked regions, best estimate %.0f\n",
              ranked.regions.size(),
              ranked.regions.empty() ? 0.0 : ranked.regions[0].statistic);

  // ------------------------------- 5. serve repeated queries
  // One-shot pipelines retrain per invocation. The MiningService trains
  // once per (dataset, statistic, workload recipe, model recipe) key and
  // shares the cached surrogate across requests.
  MiningService service;
  if (auto st = service.RegisterCsvDataset("points", csv_path); !st.ok()) {
    std::fprintf(stderr, "register: %s\n", st.ToString().c_str());
    return 1;
  }

  // A request names the dataset and carries four recipes: what to mine
  // (query), how to search (search), the cache-keyed model recipe
  // (training), and per-request runtime policy (execution).
  v2::MineRequest request;
  request.dataset = "points";
  request.query.statistic = statistic;
  request.query.threshold = 2.0 * static_cast<double>(rows) / 10.0;
  request.training.workload = workload_params;
  request.training.surrogate = train_options;
  request.search.finder = finder_config;
  // Serving recipe: keep the cheap KDE-seeded initialization, skip the
  // per-iteration Eq. 8 guidance integrals.
  request.search.finder.use_kde_guidance = false;

  std::vector<v2::MineRequest> batch(8, request);
  const std::vector<v2::MineResponse> responses = service.MineBatch(batch);
  size_t hits = 0;
  for (const auto& response : responses) {
    if (!response.status.ok()) {
      std::fprintf(stderr, "serve: %s\n",
                   response.status.ToString().c_str());
      return 1;
    }
    if (response.cache_hit) ++hits;
  }
  std::printf("5. served %zu requests: %zu cache hits, surrogate trained "
              "on %zu evaluations (holdout RMSE %.1f)\n",
              responses.size(), hits,
              responses[0].provenance.training_set_size,
              responses[0].provenance.holdout_rmse);

  // ----------------------- 6. warm-start refresh from fresh traffic
  // New evaluations accumulate per cache key; past the retrain threshold
  // the entry re-boosts a copy and swaps it in while the old model keeps
  // serving.
  WorkloadParams fresh_params;
  fresh_params.num_queries = 600;  // default retrain threshold is 512
  fresh_params.seed = 99;
  const RegionWorkload fresh = GenerateWorkload(
      *evaluator, data->ComputeBounds(statistic.region_cols), fresh_params);
  if (auto st = service.AppendEvaluations(request, fresh); !st.ok()) {
    std::fprintf(stderr, "append: %s\n", st.ToString().c_str());
    return 1;
  }
  const v2::MineResponse refreshed = service.Mine(request);
  std::printf("6. after warm start: %zu total evaluations, %zu warm "
              "starts declared in provenance\n",
              refreshed.provenance.training_set_size,
              refreshed.provenance.warm_starts);

  const bool ok = !found.regions.empty() && !ranked.regions.empty() &&
                  hits == responses.size() - 1 &&
                  refreshed.provenance.warm_starts == 1;
  std::printf("%s\n", ok ? "tutorial pipeline OK" : "tutorial pipeline FAILED");
  return ok ? 0 : 1;
}
