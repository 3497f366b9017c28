// Ablation: result extraction — greedy IoU non-max suppression (the
// SurfFinder default) vs DBSCAN clustering of the converged swarm.
//
// Both reduce ~L particles to a handful of distinct regions. NMS is
// greedy on fitness and needs no density parameters; DBSCAN respects the
// swarm's sub-population structure and drops noise particles, at the cost
// of an (eps, min_points) choice. This bench compares region counts,
// ground-truth coverage, and IoU on the multimodal k = 3 datasets.

#include <cstdio>

#include "bench_common.h"
#include "opt/clustering.h"
#include "util/cli.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace surf;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const size_t trials = static_cast<size_t>(flags.GetInt("trials", 3));

  std::printf("Ablation — swarm-to-regions extraction (NMS vs DBSCAN) on "
              "k=3 density data\n\n");
  TablePrinter table({"trial", "method", "regions", "GT matched (of 3)",
                      "avg IoU"});

  for (size_t trial = 0; trial < trials; ++trial) {
    SyntheticSpec spec;
    spec.dims = 2;
    spec.num_gt_regions = 3;
    spec.statistic = SyntheticStatistic::kDensity;
    spec.seed = 400 + trial;
    const SyntheticDataset ds = SyntheticGenerator::Generate(spec);

    SurfOptions options;
    options.workload.num_queries = 5000;
    options.workload.seed = 500 + trial;
    options.finder.gso.num_glowworms = 180;
    options.finder.gso.max_iterations = 120;
    options.validate_results = false;
    auto surf = Surf::Build(&ds.data, bench::StatisticFor(ds), options);
    if (!surf.ok()) continue;
    const FindResult result = surf->FindRegions(
        bench::ThresholdFor(ds), ThresholdDirection::kAbove).value();

    auto report = [&](const char* method,
                      const std::vector<Region>& regions) {
      size_t matched = 0;
      for (const auto& gt : ds.gt_regions) {
        for (const auto& r : regions) {
          if (r.IoU(gt) > 0.2) {
            ++matched;
            break;
          }
        }
      }
      table.AddRow({std::to_string(trial + 1), method,
                    std::to_string(regions.size()),
                    std::to_string(matched),
                    FormatDouble(bench::AverageIoU(regions, ds.gt_regions),
                                 3)});
    };

    // NMS regions come straight from the finder.
    std::vector<Region> nms_regions;
    for (const auto& r : result.regions) nms_regions.push_back(r.region);
    report("NMS", nms_regions);

    // DBSCAN over the same final swarm.
    const double eps = 0.08 * surf->space().FlatDiagonal();
    const auto clusters = ClusterSwarm(
        result.gso.particles, result.gso.fitness, result.gso.valid, eps, 4);
    std::vector<Region> dbscan_regions;
    for (const auto& cluster : clusters) {
      dbscan_regions.push_back(result.gso.particles[cluster.best_index]);
    }
    report("DBSCAN", dbscan_regions);
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\nExpected: both extractors recover the planted regions; "
              "DBSCAN suppresses stray particles more aggressively "
              "(fewer, cleaner regions), NMS is parameter-light and "
              "keeps isolated high-fitness finds.\n");
  return 0;
}
