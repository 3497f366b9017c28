// Activity regions: the paper's second §V-C experiment over a (simulated)
// smartphone accelerometer dataset.
//
// SuRF mines feature-space regions with a high ratio of the "stand"
// activity (ratio ≥ 0.3), which the paper shows to be a rare event under
// the region-statistic CDF (P(f > 0.3) ≈ 0.0035) — demonstrating that
// SuRF can pin-point statistically unlikely regions. The boxes it returns
// demarcate interpretable classification boundaries in (X, Y, Z).
//
// Run:  ./build/examples/activity_regions [--points N] [--ratio r]

#include <cstdio>

#include "core/surf.h"
#include "data/activity_sim.h"
#include "util/cli.h"
#include "util/string_util.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  surf::CliFlags flags(argc, argv);

  surf::ActivitySimSpec spec;
  spec.num_points = static_cast<size_t>(flags.GetInt("points", 25000));
  const surf::ActivityDataset activity = surf::SimulateActivity(spec);
  std::printf("activity: %zu accelerometer readings\n",
              activity.data.num_rows());

  // Ratio-of-"stand" statistic over the 3 accelerometer axes.
  const double stand_label =
      static_cast<double>(static_cast<int>(surf::Activity::kStanding));
  const surf::Statistic stat =
      surf::Statistic::LabelRatio({0, 1, 2}, 3, stand_label);

  surf::SurfOptions options;
  options.workload.num_queries = 12000;
  options.finder.gso.num_glowworms = 200;
  options.finder.gso.max_iterations = 150;
  // Ratios live in [0, 1]; the default c = 4 over-penalizes the tiny
  // log-differences, so relax the size regularizer a little.
  options.finder.c = 2.0;

  auto surf_or = surf::Surf::Build(&activity.data, stat, options);
  if (!surf_or.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 surf_or.status().ToString().c_str());
    return 1;
  }
  const surf::Surf& pipeline = *surf_or;

  // How unlikely is the requested ratio? (paper: P ≈ 0.0035 for 0.3)
  const double target_ratio = flags.GetDouble("ratio", 0.3);
  const surf::Ecdf ecdf = pipeline.SampleStatisticEcdf(4000, 13);
  std::printf("P(ratio(stand) > %.2f) over random regions = %.4f\n",
              target_ratio, ecdf.Exceedance(target_ratio));

  const surf::FindResult result =
      pipeline.FindRegions(target_ratio, surf::ThresholdDirection::kAbove)
          .value();

  surf::TablePrinter table(
      {"region", "center (x,y,z)", "est. ratio", "true ratio", "complies"});
  for (size_t i = 0; i < result.regions.size(); ++i) {
    const auto& r = result.regions[i];
    table.AddRow({"#" + std::to_string(i + 1),
                  "(" + surf::FormatDouble(r.region.center(0), 2) + "," +
                      surf::FormatDouble(r.region.center(1), 2) + "," +
                      surf::FormatDouble(r.region.center(2), 2) + ")",
                  surf::FormatDouble(r.estimate, 3),
                  surf::FormatDouble(r.true_value, 3),
                  r.complies_true ? "yes" : "no"});
  }
  std::printf("%s", table.ToString().c_str());

  // Ground-truth check: the simulation's "stand" signature mean.
  const auto& stand_mean =
      activity.class_means[static_cast<size_t>(surf::Activity::kStanding)];
  std::printf("(simulation's stand signature is centred at "
              "(%.2f, %.2f, %.2f))\n",
              stand_mean[0], stand_mean[1], stand_mean[2]);
  std::printf("compliance with the true ratio: %.0f%% of %zu regions\n",
              100.0 * result.report.true_compliance,
              result.regions.size());
  return 0;
}
