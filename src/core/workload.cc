#include "core/workload.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <span>

#include "stats/sharded_evaluator.h"

namespace surf {

Region RegionWorkload::RegionAt(size_t i) const {
  assert(i < size());
  return Region::FromFlat(features.Row(i));
}

std::vector<double> RegionFeatures(const Region& region) {
  return region.ToFlat();
}

RegionWorkload GenerateWorkload(const RegionEvaluator& evaluator,
                                const Bounds& domain,
                                const WorkloadParams& params,
                                CancelToken cancel, TraceContext* trace) {
  assert(params.min_length_frac > 0.0 &&
         params.min_length_frac < params.max_length_frac);
  const size_t d = domain.dims();
  Rng rng(params.seed);

  RegionWorkload workload;
  workload.statistic = evaluator.statistic();
  workload.space = RegionSolutionSpace::ForBounds(
      domain, params.min_length_frac, params.max_length_frac);
  workload.features = FeatureMatrix(2 * d);
  workload.features.Reserve(params.num_queries);
  workload.targets.reserve(params.num_queries);

  TraceSpan gen_span(trace, "workload_gen", TraceStage::kWorkloadGen);
  // Labelling children: one span per 256-query batch (aligned with the
  // cancellation poll below) rather than per query, so the trace stays
  // bounded. On the sharded backend each batch span also carries the
  // evaluator's prune/block/scan counter deltas for that batch. The
  // counters belong to the evaluator, which the serving layer shares
  // across requests, so concurrent work on it lands in the deltas too.
  const ShardedScanEvaluator* sharded =
      trace == nullptr
          ? nullptr
          : dynamic_cast<const ShardedScanEvaluator*>(&evaluator);
  int32_t batch = -1;
  uint64_t pruned0 = 0, merged0 = 0, scanned0 = 0;
  auto close_batch = [&] {
    if (batch < 0) return;
    if (sharded != nullptr) {
      trace->AddAttr(batch, "shards_pruned",
                     std::to_string(sharded->shards_pruned() - pruned0));
      trace->AddAttr(
          batch, "shards_block_merged",
          std::to_string(sharded->shards_block_merged() - merged0));
      trace->AddAttr(batch, "shards_scanned",
                     std::to_string(sharded->shards_scanned() - scanned0));
    }
    trace->EndSpan(batch);
    batch = -1;
  };

  // Draw every region up front. The RNG sequence is label-independent
  // (center then half per dimension, exactly as the historical
  // draw-then-label loop interleaved them), so the generated regions are
  // draw-for-draw identical — only the labelling below changed shape.
  std::vector<Region> regions;
  regions.reserve(params.num_queries);
  std::vector<double> center(d), half(d);
  for (size_t q = 0; q < params.num_queries; ++q) {
    for (size_t i = 0; i < d; ++i) {
      center[i] = rng.Uniform(domain.lo(i), domain.hi(i));
      // Per-dimension extent scaling (the paper's % of data domain).
      half[i] = rng.Uniform(params.min_length_frac * domain.Extent(i),
                            params.max_length_frac * domain.Extent(i));
    }
    regions.emplace_back(center, half);
  }

  // Label in 256-query batches through EvaluateBatch — the seam that
  // lets the distributed backend ship one RPC per batch instead of one
  // per region; the default implementation loops Evaluate, so in-process
  // backends label the same regions in the same order as ever. The token
  // is polled per batch here and rides into the evaluator too (sharded
  // scans poll it per shard, so cancellation lands mid-evaluation on
  // huge datasets instead of waiting for the batch boundary).
  constexpr size_t kLabelBatch = 256;
  for (size_t start = 0; start < regions.size(); start += kLabelBatch) {
    if (cancel.cancelled()) break;
    const size_t count = std::min(kLabelBatch, regions.size() - start);
    if (trace != nullptr) {
      close_batch();
      batch = trace->BeginSpan("label_batch", TraceStage::kLabelling);
      if (sharded != nullptr) {
        pruned0 = sharded->shards_pruned();
        merged0 = sharded->shards_block_merged();
        scanned0 = sharded->shards_scanned();
      }
    }
    const std::span<const Region> chunk(regions.data() + start, count);
    const std::vector<double> labels = evaluator.EvaluateBatch(chunk, cancel);
    for (size_t k = 0; k < labels.size(); ++k) {
      if (params.drop_undefined && std::isnan(labels[k])) continue;
      workload.features.AddRow(RegionFeatures(chunk[k]));
      workload.targets.push_back(labels[k]);
    }
    // A short batch is the cancellation signature: every returned label
    // is complete (and kept), the rest were never computed.
    if (labels.size() < count) break;
  }
  close_batch();
  gen_span.Attr("labelled", static_cast<uint64_t>(workload.size()));
  return workload;
}

Status SaveWorkload(const RegionWorkload& workload,
                    const std::string& path) {
  std::ofstream os(path);
  if (!os) return Status::IOError("cannot write " + path);
  os.precision(17);
  const size_t d = workload.space.dims();
  os << "# surf-workload-v1 dims=" << d
     << " min_len=" << workload.space.min_half_length
     << " max_len=" << workload.space.max_half_length;
  for (size_t i = 0; i < d; ++i) {
    os << " b" << i << "=" << workload.space.bounds.lo(i) << ":"
       << workload.space.bounds.hi(i);
  }
  os << "\n";
  for (size_t r = 0; r < workload.size(); ++r) {
    for (size_t j = 0; j < workload.features.num_features(); ++j) {
      os << workload.features.Get(r, j) << ",";
    }
    os << workload.targets[r] << "\n";
  }
  if (!os) return Status::IOError("short write to " + path);
  return Status::OK();
}

StatusOr<RegionWorkload> LoadWorkload(const std::string& path) {
  std::ifstream is(path);
  if (!is) return Status::IOError("cannot open " + path);
  std::string magic, dims_kv;
  is >> magic >> magic;  // skip '#', read tag
  if (magic != "surf-workload-v1") {
    return Status::IOError("bad workload header in " + path);
  }
  RegionWorkload workload;
  size_t d = 0;
  {
    std::string kv;
    is >> kv;  // dims=N
    d = static_cast<size_t>(std::strtoull(kv.c_str() + 5, nullptr, 10));
    if (d == 0) return Status::IOError("bad dims in " + path);
    is >> kv;  // min_len=
    workload.space.min_half_length = std::strtod(kv.c_str() + 8, nullptr);
    is >> kv;  // max_len=
    workload.space.max_half_length = std::strtod(kv.c_str() + 8, nullptr);
    std::vector<double> lo(d), hi(d);
    for (size_t i = 0; i < d; ++i) {
      is >> kv;  // bI=lo:hi
      const size_t eq = kv.find('=');
      const size_t colon = kv.find(':');
      if (eq == std::string::npos || colon == std::string::npos) {
        return Status::IOError("bad bounds in " + path);
      }
      lo[i] = std::strtod(kv.substr(eq + 1, colon - eq - 1).c_str(),
                          nullptr);
      hi[i] = std::strtod(kv.substr(colon + 1).c_str(), nullptr);
    }
    workload.space.bounds = Bounds(lo, hi);
  }
  workload.features = FeatureMatrix(2 * d);
  std::string line;
  std::getline(is, line);  // consume the header's newline
  size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::vector<double> row;
    const char* p = line.c_str();
    char* end = nullptr;
    for (;;) {
      const double v = std::strtod(p, &end);
      if (end == p) break;
      row.push_back(v);
      p = (*end == ',') ? end + 1 : end;
      if (*end == '\0') break;
    }
    if (row.size() != 2 * d + 1) {
      return Status::IOError("bad row at line " + std::to_string(line_no) +
                             " of " + path);
    }
    workload.targets.push_back(row.back());
    row.pop_back();
    workload.features.AddRow(row);
  }
  return workload;
}

Status MergeWorkloads(RegionWorkload* base, const RegionWorkload& extra) {
  assert(base != nullptr);
  if (base->features.num_features() != extra.features.num_features()) {
    return Status::InvalidArgument("workload feature width mismatch");
  }
  for (size_t r = 0; r < extra.size(); ++r) {
    base->features.AddRow(extra.features.Row(r));
    base->targets.push_back(extra.targets[r]);
  }
  return Status::OK();
}

}  // namespace surf
