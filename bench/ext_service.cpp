// Extension: multi-query serving throughput.
//
// SuRF's premise is amortization — past evaluations train a surrogate
// that answers many future region queries cheaply (§IV, §V-D). This
// bench quantifies the serving layer built on that premise: N mining
// requests with the same (dataset, statistic, workload, model) key run
// once through the one-shot path (Surf::Build per request, retraining
// every time) and once through MiningService (train once, share the
// cached surrogate, mine per request). Writes BENCH_service.json
// (override the path with SURF_BENCH_SERVICE_JSON).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/surf.h"
#include "data/synthetic.h"
#include "serve/mining_service.h"
#include "util/cli.h"
#include "util/stopwatch.h"

using namespace surf;

namespace {

struct ServiceBenchReport {
  size_t requests = 0;
  double oneshot_seconds = 0.0;
  double service_seconds = 0.0;
  double service_train_seconds = 0.0;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  bool results_identical = false;

  double oneshot_qps() const { return requests / oneshot_seconds; }
  double service_qps() const { return requests / service_seconds; }
  double speedup() const { return oneshot_seconds / service_seconds; }
};

void WriteJson(const ServiceBenchReport& r, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"requests\": %zu,\n"
               "  \"oneshot_seconds\": %.4f,\n"
               "  \"oneshot_qps\": %.3f,\n"
               "  \"service_seconds\": %.4f,\n"
               "  \"service_qps\": %.3f,\n"
               "  \"amortized_speedup\": %.2f,\n"
               "  \"service_train_seconds\": %.4f,\n"
               "  \"cache_hits\": %zu,\n"
               "  \"cache_misses\": %zu,\n"
               "  \"results_identical\": %s\n"
               "}\n",
               r.requests, r.oneshot_seconds, r.oneshot_qps(),
               r.service_seconds, r.service_qps(), r.speedup(),
               r.service_train_seconds, r.cache_hits, r.cache_misses,
               r.results_identical ? "true" : "false");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const size_t requests = static_cast<size_t>(flags.GetInt("requests", 32));
  const size_t queries = static_cast<size_t>(flags.GetInt("queries", 8000));
  const size_t threads = static_cast<size_t>(flags.GetInt("threads", 0));

  SyntheticSpec spec;
  spec.dims = 2;
  spec.num_gt_regions = 2;
  spec.statistic = SyntheticStatistic::kDensity;
  spec.num_background = 20000;
  spec.seed = 31;
  const SyntheticDataset ds = SyntheticGenerator::Generate(spec);

  // One request recipe shared by both arms: same workload, same model,
  // same finder, same validation — the only difference is whether the
  // surrogate is retrained per request or served from the cache.
  v2::MineRequest request;
  request.dataset = "bench";
  request.query.statistic = Statistic::Count(ds.region_cols);
  request.query.threshold = 1000.0;
  request.training.workload.num_queries = queries;
  request.training.surrogate.gbrt.n_estimators = 200;
  request.training.surrogate.gbrt.max_depth = 6;
  request.search.finder.gso.max_iterations = 50;
  // Serving recipe: keep the one-off KDE-seeded initialization, drop the
  // per-iteration Eq. 8 mass guidance — the latter costs one KDE
  // integral per particle per iteration and dwarfs every surrogate
  // evaluation, which would mask the training amortization this bench
  // measures. Both arms use the identical recipe.
  request.search.finder.use_kde_guidance = false;

  SurfOptions oneshot_options;
  oneshot_options.workload = request.training.workload;
  oneshot_options.surrogate = request.training.surrogate;
  oneshot_options.finder = request.search.finder;
  oneshot_options.backend = BackendKind::kGridIndex;

  std::printf("== amortized serving vs one-shot mining (%zu same-key "
              "requests) ==\n",
              requests);

  ServiceBenchReport report;
  report.requests = requests;

  // --- one-shot arm: Surf::Build per request (trains every time).
  std::vector<Region> oneshot_first;
  {
    Stopwatch timer;
    for (size_t i = 0; i < requests; ++i) {
      auto surf =
          Surf::Build(&ds.data, request.query.statistic, oneshot_options);
      if (!surf.ok()) {
        std::fprintf(stderr, "one-shot build failed: %s\n",
                     surf.status().ToString().c_str());
        return 1;
      }
      const FindResult result =
          surf->FindRegions(request.query.threshold, request.query.direction)
              .value();
      if (i == 0) {
        for (const auto& r : result.regions) oneshot_first.push_back(r.region);
      }
    }
    report.oneshot_seconds = timer.ElapsedSeconds();
  }
  std::printf("one-shot : %zu requests in %.2fs (%.2f req/s)\n", requests,
              report.oneshot_seconds, report.oneshot_qps());

  // --- service arm: one shared cache entry, per-request mining.
  {
    MiningService::Options options;
    options.num_threads = threads;
    MiningService service(options);
    if (auto st = service.RegisterDataset("bench", ds.data); !st.ok()) {
      std::fprintf(stderr, "register failed: %s\n", st.ToString().c_str());
      return 1;
    }
    Stopwatch timer;
    const std::vector<v2::MineResponse> responses =
        service.MineBatch(std::vector<v2::MineRequest>(requests, request));
    report.service_seconds = timer.ElapsedSeconds();
    for (const auto& response : responses) {
      if (!response.status.ok()) {
        std::fprintf(stderr, "service request failed: %s\n",
                     response.status.ToString().c_str());
        return 1;
      }
    }
    report.service_train_seconds = responses[0].provenance.train_seconds;
    report.cache_hits = service.cache().stats().hits;
    report.cache_misses = service.cache().stats().misses;

    // Same recipe + deterministic engine => the shared-surrogate results
    // must equal the one-shot results region-for-region.
    report.results_identical =
        responses[0].result.regions.size() == oneshot_first.size();
    if (report.results_identical) {
      for (size_t i = 0; i < oneshot_first.size(); ++i) {
        const Region& a = responses[0].result.regions[i].region;
        const Region& b = oneshot_first[i];
        for (size_t j = 0; j < a.dims(); ++j) {
          if (a.lo(j) != b.lo(j) || a.hi(j) != b.hi(j)) {
            report.results_identical = false;
          }
        }
      }
    }
  }
  std::printf("service  : %zu requests in %.2fs (%.2f req/s), train share "
              "%.2fs, %zu hits / %zu misses\n",
              requests, report.service_seconds, report.service_qps(),
              report.service_train_seconds, report.cache_hits,
              report.cache_misses);
  std::printf("amortized speedup: %.2fx | results identical to one-shot: "
              "%s\n",
              report.speedup(), report.results_identical ? "yes" : "NO");

  const char* json_env = std::getenv("SURF_BENCH_SERVICE_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_service.json";
  WriteJson(report, json_path);
  std::printf("wrote %s\n", json_path.c_str());

  // Enforce the acceptance contract so CI goes red on regressions
  // instead of silently uploading a broken report.
  if (!report.results_identical) {
    std::fprintf(stderr, "FAIL: service results diverge from one-shot\n");
    return 1;
  }
  constexpr double kMinSpeedup = 5.0;
  if (report.speedup() < kMinSpeedup) {
    std::fprintf(stderr, "FAIL: amortized speedup %.2fx below %.1fx floor\n",
                 report.speedup(), kMinSpeedup);
    return 1;
  }
  return 0;
}
