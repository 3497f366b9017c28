// Figure 9: GSO convergence — expected objective E[J] vs iterations for
// region-space dimensionality 2d ∈ {2, 4, 6, 8, 10} (d ∈ 1..5) and
// k ∈ {1, 3} GT regions, with the paper's §V-G scaling (L = 50·d,
// r0 = (1 − ½^{1/L})^{1/d}).
//
// The paper's headline: the average number of iterations to convergence
// across settings is ≈ 63, never exceeding 250.

#include <cstdio>

#include "bench_common.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/summary.h"
#include "util/table_printer.h"

using namespace surf;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool full = flags.GetBool("full", false);
  const size_t max_dim = static_cast<size_t>(
      flags.GetInt("max-dim", full ? 5 : 3));

  std::printf("Figure 9 — GSO convergence under the paper's §V-G "
              "scaling\n\n");
  TablePrinter table({"k", "2d", "L", "iters to converge", "E[J] first",
                      "E[J] last", "valid %"});
  CsvWriter csv({"k", "flat_dims", "iterations", "mean_J_last"});
  RunningStats iteration_stats;

  for (size_t k : {1u, 3u}) {
    for (size_t d = 1; d <= max_dim; ++d) {
      SyntheticSpec spec;
      spec.dims = d;
      spec.num_gt_regions = k;
      spec.statistic = SyntheticStatistic::kDensity;
      spec.seed = 60 + d + 10 * k;
      const SyntheticDataset ds = SyntheticGenerator::Generate(spec);

      SurfOptions options;
      options.workload.num_queries = 1500 * d + 1500;
      options.finder.gso = GsoParams::PaperScaled(d);
      options.finder.gso.max_iterations = 250;
      options.finder.gso.convergence_tol_frac = 5e-4;
      options.validate_results = false;
      auto surf = Surf::Build(&ds.data, bench::StatisticFor(ds), options);
      if (!surf.ok()) {
        std::fprintf(stderr, "%s\n", surf.status().ToString().c_str());
        continue;
      }
      const FindResult result = surf->FindRegions(
          bench::ThresholdFor(ds), ThresholdDirection::kAbove).value();

      const auto& curve = result.gso.history.mean_fitness;
      iteration_stats.Add(static_cast<double>(result.report.iterations));
      table.AddRow(
          {std::to_string(k), std::to_string(2 * d),
           std::to_string(options.finder.gso.num_glowworms),
           std::to_string(result.report.iterations),
           curve.empty() ? "-" : FormatDouble(curve.front(), 2),
           curve.empty() ? "-" : FormatDouble(curve.back(), 2),
           FormatDouble(100.0 * result.report.particle_valid_fraction,
                        0)});
      csv.AddRow({static_cast<double>(k), static_cast<double>(2 * d),
                  static_cast<double>(result.report.iterations),
                  curve.empty() ? 0.0 : curve.back()});
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\naverage iterations to convergence: %.0f "
              "(paper: ~63, max 250)\n",
              iteration_stats.mean());

  const std::string csv_path = flags.GetString("csv", "");
  if (!csv_path.empty()) {
    if (auto st = csv.Write(csv_path); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
