// Figure 5 (+ the §V-C activity experiment): the qualitative real-data
// scenarios over the simulated Crimes and Human-Activity datasets.
//
// Left: a side-by-side surrogate-vs-true density heat-map summary plus
// the identified regions and their compliance with f > Q3 (the paper
// reports 100 % compliance). Right: the activity-ratio rare-event
// experiment with its exceedance probability (paper: P ≈ 0.0035).

#include <cstdio>

#include "bench_common.h"
#include "data/activity_sim.h"
#include "data/crimes_sim.h"
#include "util/cli.h"
#include "util/string_util.h"
#include "util/summary.h"
#include "util/table_printer.h"

using namespace surf;

namespace {

void RunCrimes(bool full) {
  CrimesSimSpec spec;
  spec.num_points = full ? 100000 : 30000;
  const CrimesDataset crimes = SimulateCrimes(spec);

  SurfOptions options;
  options.workload.num_queries = full ? 20000 : 8000;
  options.finder.gso.num_glowworms = 150;
  options.finder.gso.max_iterations = 120;
  auto surf = Surf::Build(&crimes.data, Statistic::Count({0, 1}), options);
  if (!surf.ok()) {
    std::fprintf(stderr, "%s\n", surf.status().ToString().c_str());
    return;
  }

  const Ecdf ecdf = surf->SampleStatisticEcdf(2000, 9);
  const double q3 = ecdf.Quantile(0.75);
  const FindResult result =
      surf->FindRegions(q3, ThresholdDirection::kAbove).value();

  // Heat-map agreement: correlation between surrogate and true counts on
  // a grid of probe cells (the visual Fig. 5 claim, quantified).
  std::vector<double> est, truth;
  for (int gx = 0; gx < 15; ++gx) {
    for (int gy = 0; gy < 15; ++gy) {
      const Region cell({(gx + 0.5) / 15.0, (gy + 0.5) / 15.0},
                        {0.06, 0.06});
      est.push_back(surf->surrogate().Predict(cell));
      truth.push_back(surf->evaluator().Evaluate(cell));
    }
  }
  std::printf("Fig. 5 (crimes): y_R = Q3 = %.0f\n", q3);
  std::printf("surrogate-vs-true heat-map correlation: %.3f "
              "(coarse approximation is expected, paper: 'coarse "
              "grained')\n",
              PearsonCorrelation(est, truth));

  TablePrinter table({"region", "estimate", "true", "complies"});
  for (size_t i = 0; i < result.regions.size(); ++i) {
    const auto& r = result.regions[i];
    table.AddRow({"#" + std::to_string(i + 1),
                  FormatDouble(r.estimate, 0),
                  FormatDouble(r.true_value, 0),
                  r.complies_true ? "yes" : "no"});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("compliance: %.0f%% (paper: 100%%), mined in %.2fs\n\n",
              100.0 * result.report.true_compliance,
              result.report.seconds);
}

void RunActivity(bool full) {
  ActivitySimSpec spec;
  spec.num_points = full ? 60000 : 20000;
  const ActivityDataset activity = SimulateActivity(spec);
  const double stand =
      static_cast<double>(static_cast<int>(Activity::kStanding));

  SurfOptions options;
  options.workload.num_queries = full ? 20000 : 8000;
  options.finder.gso.num_glowworms = 180;
  options.finder.gso.max_iterations = 150;
  options.finder.c = 2.0;
  auto surf = Surf::Build(&activity.data,
                          Statistic::LabelRatio({0, 1, 2}, 3, stand),
                          options);
  if (!surf.ok()) {
    std::fprintf(stderr, "%s\n", surf.status().ToString().c_str());
    return;
  }
  const Ecdf ecdf = surf->SampleStatisticEcdf(full ? 10000 : 4000, 10);
  const double y_r = 0.3;
  std::printf("§V-C (activity): P(ratio(stand) > %.1f) = %.4f "
              "(paper: 0.0035 — a rare event)\n",
              y_r, ecdf.Exceedance(y_r));

  const FindResult result =
      surf->FindRegions(y_r, ThresholdDirection::kAbove).value();
  std::printf("regions found: %zu, compliance %.0f%%, best true ratio "
              "%.2f\n",
              result.regions.size(),
              100.0 * result.report.true_compliance,
              result.regions.empty() ? 0.0
                                     : result.regions[0].true_value);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool full = flags.GetBool("full", false);
  std::printf("Figure 5 + §V-C — qualitative real-data experiments "
              "(%s configuration)\n\n",
              full ? "paper" : "quick");
  RunCrimes(full);
  RunActivity(full);
  return 0;
}
