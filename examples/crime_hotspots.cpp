// Crime hot-spots: the paper's §V-C qualitative experiment over a
// (simulated) Chicago-crimes spatial dataset.
//
// SuRF is asked for regions whose incident count exceeds the 3rd quartile
// of the region-count distribution (y_R = Q3, estimated by sampling random
// regions — paper Fig. 5). The example prints the mined regions, checks
// them against the true counts, and reports the compliance rate the paper
// quotes (100 % of proposed regions satisfied f > y_R).
//
// Run:  ./build/examples/crime_hotspots [--points N] [--csv out.csv]

#include <cstdio>

#include "core/surf.h"
#include "data/crimes_sim.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  surf::CliFlags flags(argc, argv);

  // 1. Simulated crimes data: Gaussian hot-spots over a uniform city.
  surf::CrimesSimSpec spec;
  spec.num_points = static_cast<size_t>(flags.GetInt("points", 40000));
  const surf::CrimesDataset crimes = surf::SimulateCrimes(spec);
  std::printf("crimes: %zu incidents, %zu hot-spots planted\n",
              crimes.data.num_rows(), crimes.hotspots.size());

  // 2. SuRF over the COUNT statistic on (x, y).
  surf::SurfOptions options;
  options.workload.num_queries = 10000;
  options.finder.gso.num_glowworms = 150;
  options.finder.gso.max_iterations = 120;
  auto surf_or = surf::Surf::Build(&crimes.data,
                                   surf::Statistic::Count({0, 1}), options);
  if (!surf_or.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 surf_or.status().ToString().c_str());
    return 1;
  }
  const surf::Surf& pipeline = *surf_or;

  // 3. Threshold = Q3 of the statistic over random regions (paper: y_R =
  //    the 3rd quartile of a random set of regions).
  const surf::Ecdf ecdf = pipeline.SampleStatisticEcdf(2000, 77);
  const double q3 = ecdf.Quantile(0.75);
  std::printf("region-count quartiles: Q1=%.0f  median=%.0f  Q3=%.0f\n",
              ecdf.Quantile(0.25), ecdf.Quantile(0.5), q3);

  const surf::FindResult result =
      pipeline.FindRegions(q3, surf::ThresholdDirection::kAbove).value();

  surf::TablePrinter table({"region", "center", "half-size", "estimate",
                            "true count", "complies f>Q3"});
  for (size_t i = 0; i < result.regions.size(); ++i) {
    const auto& r = result.regions[i];
    table.AddRow({"#" + std::to_string(i + 1),
                  "(" + surf::FormatDouble(r.region.center(0), 2) + "," +
                      surf::FormatDouble(r.region.center(1), 2) + ")",
                  "(" + surf::FormatDouble(r.region.half_length(0), 2) +
                      "," + surf::FormatDouble(r.region.half_length(1), 2) +
                      ")",
                  surf::FormatDouble(r.estimate, 0),
                  surf::FormatDouble(r.true_value, 0),
                  r.complies_true ? "yes" : "no"});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("compliance with the true f: %.0f%% of %zu regions "
              "(mined in %.2fs)\n",
              100.0 * result.report.true_compliance, result.regions.size(),
              result.report.seconds);

  // 4. Optional heat-map dump (Fig. 5's surrogate-vs-true panels).
  const std::string csv_path = flags.GetString("csv", "");
  if (!csv_path.empty()) {
    surf::CsvWriter csv({"x", "y", "surrogate", "true"});
    const double half = 0.05;
    for (int gx = 0; gx < 20; ++gx) {
      for (int gy = 0; gy < 20; ++gy) {
        const double cx = (gx + 0.5) / 20.0, cy = (gy + 0.5) / 20.0;
        const surf::Region cell({cx, cy}, {half, half});
        csv.AddRow({cx, cy, pipeline.surrogate().Predict(cell),
                    pipeline.evaluator().Evaluate(cell)});
      }
    }
    if (auto st = csv.Write(csv_path); !st.ok()) {
      std::fprintf(stderr, "csv write failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("heat-map written to %s\n", csv_path.c_str());
  }
  return 0;
}
