// Classification boundaries: the intro's ML use case (paper §I-A) —
// find regions with a very high ratio of one class, which "implicitly
// suggest classification boundaries" an analyst can adopt as a baseline
// classifier or investigate further.
//
// We synthesize a two-class 2-D problem (two positive clusters inside a
// negative background), mine regions with ratio(class=1) above 0.9, and
// then measure how well the mined boxes work as a rule-based classifier.
//
// Run:  ./build/examples/classification_boundaries [--points N]

#include <algorithm>
#include <cstdio>

#include "core/surf.h"
#include "data/dataset.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

/// Two Gaussian positive clusters over a uniform negative background.
surf::Dataset MakeTwoClassData(size_t n, uint64_t seed) {
  surf::Rng rng(seed);
  surf::Dataset data({"f1", "f2", "label"});
  data.Reserve(n);
  const double centers[2][2] = {{0.25, 0.7}, {0.75, 0.3}};
  for (size_t i = 0; i < n; ++i) {
    const bool positive = rng.Bernoulli(0.35);
    std::vector<double> row(3);
    if (positive) {
      const auto& c = centers[rng.UniformInt(2)];
      row[0] = std::clamp(rng.Gaussian(c[0], 0.06), 0.0, 1.0);
      row[1] = std::clamp(rng.Gaussian(c[1], 0.06), 0.0, 1.0);
      row[2] = 1.0;
    } else {
      row[0] = rng.Uniform();
      row[1] = rng.Uniform();
      row[2] = 0.0;
    }
    data.AddRow(row);
  }
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  surf::CliFlags flags(argc, argv);
  const size_t n = static_cast<size_t>(flags.GetInt("points", 20000));
  const surf::Dataset data = MakeTwoClassData(n, 3);
  std::printf("two-class data: %zu points\n", data.num_rows());

  surf::SurfOptions options;
  options.workload.num_queries = 10000;
  options.finder.gso.num_glowworms = 150;
  options.finder.gso.max_iterations = 120;
  options.finder.c = 2.0;
  // High-purity requests are rare events; let stuck invalid particles
  // re-seed so the swarm can still discover the valid pockets.
  options.finder.gso.exploration_restart_prob = 0.05;

  const surf::Statistic stat = surf::Statistic::LabelRatio({0, 1}, 2, 1.0);
  auto surf_or = surf::Surf::Build(&data, stat, options);
  if (!surf_or.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 surf_or.status().ToString().c_str());
    return 1;
  }
  const double min_purity = flags.GetDouble("purity", 0.85);
  const surf::FindResult result =
      surf_or->FindRegions(min_purity, surf::ThresholdDirection::kAbove)
          .value();

  surf::TablePrinter table(
      {"rule", "box (f1, f2)", "est. purity", "true purity"});
  for (size_t i = 0; i < result.regions.size(); ++i) {
    const auto& r = result.regions[i];
    table.AddRow(
        {"#" + std::to_string(i + 1),
         "[" + surf::FormatDouble(r.region.lo(0), 2) + "," +
             surf::FormatDouble(r.region.hi(0), 2) + "] x [" +
             surf::FormatDouble(r.region.lo(1), 2) + "," +
             surf::FormatDouble(r.region.hi(1), 2) + "]",
         surf::FormatDouble(r.estimate, 3),
         surf::FormatDouble(r.true_value, 3)});
  }
  std::printf("%s", table.ToString().c_str());

  // Evaluate the mined boxes as a rule classifier: predict positive
  // inside any box, negative outside.
  size_t tp = 0, fp = 0, fn = 0;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    const std::vector<double> p{data.Get(r, 0), data.Get(r, 1)};
    bool inside = false;
    for (const auto& found : result.regions) {
      if (found.region.Contains(p)) {
        inside = true;
        break;
      }
    }
    const bool positive = data.Get(r, 2) == 1.0;
    if (inside && positive) ++tp;
    if (inside && !positive) ++fp;
    if (!inside && positive) ++fn;
  }
  const double precision =
      tp + fp > 0 ? static_cast<double>(tp) / static_cast<double>(tp + fp)
                  : 0.0;
  const double recall =
      tp + fn > 0 ? static_cast<double>(tp) / static_cast<double>(tp + fn)
                  : 0.0;
  std::printf("as a rule classifier: precision=%.2f recall=%.2f "
              "(%zu rules, %.2fs to mine)\n",
              precision, recall, result.regions.size(),
              result.report.seconds);
  return 0;
}
