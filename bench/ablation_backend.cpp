// Ablation: exact back-end choice for serving true-statistic evaluations
// — full scan vs uniform grid index vs the shard-parallel scan at 1, 2
// and 8 shards, over dims 2–5 × {count, avg, median}.
//
// The back-end determines the cost of (a) labelling the training workload
// and (b) the f+GlowWorm comparison arm. SuRF itself never touches it
// after training — which is the point of the paper.
//
// Every arm labels the same regions, so each row also prints a label
// checksum (the sum of the defined labels) and the number of defined
// labels. Count and avg are exact on every arm: a count checksum must
// equal the scan's bit for bit, an avg checksum to 1e-9 relative (the
// grid and the range-partitioned shards sum rows in a different order).
// The median rides the quantile sketch, whose answer depends on row
// order once a region holds more than its buffer, so its checksum is
// printed but not gated. The bench exits 1 on a gated mismatch.
//
//   bench_ablation_backend [--points N] [--queries Q] [--runs R] [--full]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "stats/sharded_evaluator.h"
#include "util/cli.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace surf;

namespace {

struct Arm {
  const char* name;
  std::function<std::unique_ptr<RegionEvaluator>(const Dataset*,
                                                 const Statistic&)>
      make;
};

/// A ShardedScanEvaluator exactly as MakeEvaluator builds one for
/// `shards` >= 2, except that one shard keeps the natural row order (the
/// configuration that reproduces the scan bit for bit).
std::unique_ptr<RegionEvaluator> MakeSharded(const Dataset* data,
                                             const Statistic& stat,
                                             size_t shards) {
  if (shards >= 2) {
    return MakeEvaluator(BackendKind::kScan, data, stat, shards);
  }
  ShardingOptions options;
  options.columns = stat.region_cols;
  if (stat.needs_value_column()) {
    options.columns.push_back(static_cast<size_t>(stat.value_col));
  }
  return std::make_unique<ShardedScanEvaluator>(
      ShardedDataset::Partition(*data, options), stat);
}

struct Checksum {
  double sum = 0.0;
  size_t defined = 0;
};

Checksum ChecksumOf(const RegionWorkload& workload) {
  Checksum c;
  for (double y : workload.targets) {
    if (std::isnan(y)) continue;
    c.sum += y;
    ++c.defined;
  }
  return c;
}

bool Matches(StatisticKind kind, const Checksum& arm,
             const Checksum& scan) {
  if (kind == StatisticKind::kMedian) return true;
  if (arm.defined != scan.defined) return false;
  if (kind == StatisticKind::kCount) return arm.sum == scan.sum;
  return std::fabs(arm.sum - scan.sum) <=
         1e-9 * std::max(1.0, std::fabs(scan.sum));
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool full = flags.GetBool("full", false);
  const size_t n = static_cast<size_t>(
      flags.GetInt("points", full ? 2000000 : 200000));
  const size_t queries = static_cast<size_t>(
      flags.GetInt("queries", full ? 5000 : 1000));
  const size_t runs =
      std::max<size_t>(1, static_cast<size_t>(flags.GetInt("runs", 1)));

  const std::vector<Arm> arms = {
      {"scan",
       [](const Dataset* d, const Statistic& s) {
         return MakeEvaluator(BackendKind::kScan, d, s);
       }},
      {"grid",
       [](const Dataset* d, const Statistic& s) {
         return MakeEvaluator(BackendKind::kGridIndex, d, s);
       }},
      {"sharded x1",
       [](const Dataset* d, const Statistic& s) {
         return MakeSharded(d, s, 1);
       }},
      {"sharded x2",
       [](const Dataset* d, const Statistic& s) {
         return MakeSharded(d, s, 2);
       }},
      {"sharded x8",
       [](const Dataset* d, const Statistic& s) {
         return MakeSharded(d, s, 8);
       }},
  };

  std::printf("Ablation — exact back-end cost on N = %zu points, %zu "
              "random region queries, median of %zu run(s)\n\n",
              n, queries, runs);
  TablePrinter table({"dims", "stat", "backend", "build (s)",
                      "label workload (s)", "queries/s", "defined",
                      "label checksum", "agrees"});

  bool all_agree = true;
  for (size_t dims = 2; dims <= 5; ++dims) {
    SyntheticSpec spec;
    spec.dims = dims;
    spec.num_gt_regions = 1;
    spec.statistic = SyntheticStatistic::kAggregate;
    spec.seed = 44;
    SyntheticDataset ds = SyntheticGenerator::Generate(spec);
    Rng inflate_rng(9);
    ds.data = ds.data.InflateTo(n, 0.002, &inflate_rng);
    const Bounds domain = ds.data.ComputeBounds(ds.region_cols);
    const size_t value_col = static_cast<size_t>(ds.value_col);

    for (const Statistic& stat :
         {Statistic::Count(ds.region_cols),
          Statistic::Average(ds.region_cols, value_col),
          Statistic::MedianOf(ds.region_cols, value_col)}) {
      const std::string stat_name = StatisticKindName(stat.kind);
      Checksum scan_checksum;
      for (const Arm& arm : arms) {
        std::vector<double> build_secs, label_secs;
        Checksum checksum;
        for (size_t run = 0; run < runs; ++run) {
          Stopwatch build_timer;
          auto evaluator = arm.make(&ds.data, stat);
          build_secs.push_back(build_timer.ElapsedSeconds());

          WorkloadParams wparams;
          wparams.num_queries = queries;
          wparams.seed = 5;
          Stopwatch label_timer;
          const RegionWorkload workload =
              GenerateWorkload(*evaluator, domain, wparams);
          label_secs.push_back(label_timer.ElapsedSeconds());
          checksum = ChecksumOf(workload);
        }
        if (&arm == &arms.front()) scan_checksum = checksum;
        const bool agrees = Matches(stat.kind, checksum, scan_checksum);
        all_agree = all_agree && agrees;

        std::sort(build_secs.begin(), build_secs.end());
        std::sort(label_secs.begin(), label_secs.end());
        const double build = build_secs[build_secs.size() / 2];
        const double label = label_secs[label_secs.size() / 2];
        char sum[32];
        std::snprintf(sum, sizeof(sum), "%.10f", checksum.sum);
        table.AddRow({std::to_string(dims), stat_name, arm.name,
                      FormatDouble(build, 3), FormatDouble(label, 3),
                      FormatDouble(static_cast<double>(queries) / label, 0),
                      std::to_string(checksum.defined), sum,
                      stat.kind == StatisticKind::kMedian ? "-"
                      : agrees                               ? "yes"
                                                             : "NO"});
      }
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\ncount/avg checksums agree with the scan: %s\n",
              all_agree ? "yes" : "NO");
  std::printf("Expected: the grid builds in O(N) once and then serves "
              "queries 10-100x faster than the per-query scan — it "
              "accelerates workload labelling, not SuRF's mining, which "
              "is data-free by construction.\n");
  return all_agree ? 0 : 1;
}
