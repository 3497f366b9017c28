// Quickstart: mine dense regions of a synthetic 2-D dataset with SuRF.
//
// The dataset plants three ground-truth boxes that are much denser than
// the uniform background (the paper's Fig. 2 density setting). We build
// the full SuRF pipeline — random past-query workload, GBRT surrogate,
// KDE prior, GSO mining — then ask for every region holding more than
// 1,000 points and compare the answers against the planted truth.
//
// Run:  ./build/examples/quickstart [--queries N] [--glowworms L]

#include <cstdio>

#include "core/surf.h"
#include "data/synthetic.h"
#include "util/cli.h"
#include "util/string_util.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  surf::CliFlags flags(argc, argv);

  // 1. Generate a dataset with k = 3 planted dense boxes in [0,1]^2.
  surf::SyntheticSpec spec;
  spec.dims = 2;
  spec.num_gt_regions = 3;
  spec.statistic = surf::SyntheticStatistic::kDensity;
  spec.num_background = 10000;
  spec.seed = 42;
  const surf::SyntheticDataset synthetic =
      surf::SyntheticGenerator::Generate(spec);
  std::printf("dataset: %zu points, %zu planted regions\n",
              synthetic.data.num_rows(), synthetic.gt_regions.size());

  // 2. Build the SuRF pipeline for the COUNT statistic over (a1, a2).
  surf::SurfOptions options;
  options.workload.num_queries =
      static_cast<size_t>(flags.GetInt("queries", 8000));
  options.finder.gso.num_glowworms =
      static_cast<size_t>(flags.GetInt("glowworms", 150));
  options.finder.gso.max_iterations = 120;

  auto surf_or = surf::Surf::Build(
      &synthetic.data, surf::Statistic::Count(synthetic.region_cols),
      options);
  if (!surf_or.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 surf_or.status().ToString().c_str());
    return 1;
  }
  const surf::Surf& surf_pipeline = *surf_or;
  std::printf("surrogate: test RMSE %.1f (train %.1f), trained in %.2fs\n",
              surf_pipeline.surrogate().metrics().test_rmse,
              surf_pipeline.surrogate().metrics().train_rmse,
              surf_pipeline.surrogate().metrics().train_seconds);

  // 3. Mine all regions with more than 1,000 points.
  const double threshold = flags.GetDouble("threshold", 1000.0);
  const surf::FindResult result = surf_pipeline.FindRegions(
      threshold, surf::ThresholdDirection::kAbove).value();

  std::printf(
      "mining: %.2fs, %zu iterations, %llu surrogate evaluations, "
      "%.0f%% of particles in valid space\n",
      result.report.seconds, result.report.iterations,
      static_cast<unsigned long long>(result.report.objective_evaluations),
      100.0 * result.report.particle_valid_fraction);

  // 4. Report, matching each found region to its closest planted box.
  surf::TablePrinter table(
      {"region", "estimate", "true count", "complies", "best IoU vs GT"});
  for (size_t i = 0; i < result.regions.size(); ++i) {
    const auto& found = result.regions[i];
    double best_iou = 0.0;
    for (const auto& gt : synthetic.gt_regions) {
      best_iou = std::max(best_iou, found.region.IoU(gt));
    }
    table.AddRow({"#" + std::to_string(i + 1),
                  surf::FormatDouble(found.estimate, 0),
                  surf::FormatDouble(found.true_value, 0),
                  found.complies_true ? "yes" : "no",
                  surf::FormatDouble(best_iou, 3)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("true-compliance of reported regions: %.0f%%\n",
              100.0 * result.report.true_compliance);
  return 0;
}
