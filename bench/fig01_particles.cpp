// Figure 1: final GSO particle positions in the 2-dim region solution
// space (center x1, half-length l1) over a d=1 density dataset, with the
// fraction of particles that converged to constraint-satisfying regions
// (the paper reports 84 % at y_R = 1080).
//
// Emits an ASCII density plot of the final particle positions plus an
// optional CSV (--csv) with one row per particle for re-plotting.

#include <cstdio>

#include "bench_common.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/string_util.h"

using namespace surf;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const double threshold = flags.GetDouble("threshold", 1080.0);

  SyntheticSpec spec;
  spec.dims = 1;
  spec.num_gt_regions = 3;
  spec.statistic = SyntheticStatistic::kDensity;
  spec.gt_target_count = 2400;
  spec.seed = 4;
  const SyntheticDataset ds = SyntheticGenerator::Generate(spec);

  SurfOptions options;
  options.workload.num_queries = 4000;
  options.finder.gso.num_glowworms = 200;
  options.finder.gso.max_iterations = 150;
  options.validate_results = true;
  auto surf = Surf::Build(&ds.data, Statistic::Count({0}), options);
  if (!surf.ok()) {
    std::fprintf(stderr, "%s\n", surf.status().ToString().c_str());
    return 1;
  }
  const FindResult result =
      surf->FindRegions(threshold, ThresholdDirection::kAbove).value();

  // ASCII scatter of the final particles over (x1, l1).
  const int W = 64, H = 20;
  std::vector<std::string> canvas(H, std::string(W, '.'));
  const RegionSolutionSpace& space = surf->space();
  for (size_t i = 0; i < result.gso.particles.size(); ++i) {
    const Region& p = result.gso.particles[i];
    const int cx = std::min(
        W - 1, static_cast<int>(p.center(0) * W));
    const double l_frac = (p.half_length(0) - space.min_half_length) /
                          (space.max_half_length - space.min_half_length);
    const int cy =
        std::min(H - 1, std::max(0, static_cast<int>((1.0 - l_frac) * H)));
    canvas[static_cast<size_t>(cy)][static_cast<size_t>(cx)] =
        result.gso.valid[i] ? 'x' : 'o';
  }
  std::printf("Figure 1 — final particle positions (x = valid region, "
              "o = undefined objective); y_R = %.0f\n\n",
              threshold);
  std::printf("  l1 (high)\n");
  for (const auto& line : canvas) std::printf("  |%s|\n", line.c_str());
  std::printf("  l1 (low)    x1: 0 %*s 1\n\n", W - 8, "");

  std::printf("ground-truth region centers:");
  for (const auto& gt : ds.gt_regions) {
    std::printf(" %.2f", gt.center(0));
  }
  std::printf("\nconverged-to-valid fraction: %.1f%% (paper: 84%%)\n",
              100.0 * result.gso.ValidFraction());
  std::printf("true-compliance of reported regions: %.0f%%\n",
              100.0 * result.report.true_compliance);

  const std::string csv_path = flags.GetString("csv", "");
  if (!csv_path.empty()) {
    CsvWriter csv({"x1", "l1", "fitness", "valid"});
    for (size_t i = 0; i < result.gso.particles.size(); ++i) {
      const Region& p = result.gso.particles[i];
      csv.AddRow({p.center(0), p.half_length(0), result.gso.fitness[i],
                  result.gso.valid[i] ? 1.0 : 0.0});
    }
    if (auto st = csv.Write(csv_path); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("particles written to %s\n", csv_path.c_str());
  }
  return 0;
}
