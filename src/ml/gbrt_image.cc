// The complete-tree image behind GradientBoostedTrees::PredictBatch.
// Compiled like the accel generic TU — baseline ISA, no FP contraction —
// because its sums must match the scalar tree walk bit for bit.

#include <algorithm>
#include <cassert>
#include <limits>

#include "ml/gbrt.h"

namespace surf {

namespace {

/// Rows walked together: eight independent index chains overlap their
/// load latencies, as in the depth-first walk.
constexpr size_t kLanes = 8;

template <typename Feature>
std::vector<Feature> Narrow(const std::vector<uint32_t>& dense) {
  return std::vector<Feature>(dense.begin(), dense.end());
}

}  // namespace

GradientBoostedTrees::CompleteTreeImage::CompleteTreeImage(
    const std::vector<RegressionTree>& trees, double scale) {
  if (trees.empty()) return;
  size_t num_nodes = 0;
  size_t num_internal = 0;
  for (const RegressionTree& tree : trees) {
    const size_t levels = tree.SplitLevels();
    if (levels > kMaxLevels) return;
    num_internal += (size_t{1} << levels) - 1;
    num_nodes += (size_t{2} << levels) - 1;
  }

  levels_.resize(trees.size());
  nodes_.resize(num_nodes);
  std::vector<uint32_t> features(num_internal);
  double* node = nodes_.data();
  uint32_t* feature = features.data();
  for (size_t t = 0; t < trees.size(); ++t) {
    const size_t levels = trees[t].SplitLevels();
    const size_t internal = (size_t{1} << levels) - 1;
    levels_[t] = static_cast<uint8_t>(levels);
    trees[t].FillComplete(scale, node, feature, node + internal);
    node += 2 * internal + 1;
    feature += internal;
  }

  // Dense feature indices: a group gathers only the columns some split
  // (or padding copy) reads, however wide the matrix is. Each split
  // stores its dense index times kLanes, the offset of its feature's
  // lane block in the group buffer.
  used_features_ = features;
  std::sort(used_features_.begin(), used_features_.end());
  used_features_.erase(
      std::unique(used_features_.begin(), used_features_.end()),
      used_features_.end());
  used_features_.shrink_to_fit();
  for (uint32_t& f : features) {
    f = kLanes * static_cast<uint32_t>(std::lower_bound(used_features_.begin(),
                                                        used_features_.end(),
                                                        f) -
                                       used_features_.begin());
  }
  const size_t max_offset = kLanes * (used_features_.size() - 1);
  if (max_offset <= std::numeric_limits<uint8_t>::max()) {
    features_ = Narrow<uint8_t>(features);
  } else if (max_offset <= std::numeric_limits<uint16_t>::max()) {
    features_ = Narrow<uint16_t>(features);
  } else {
    features_ = std::move(features);
  }
}

void GradientBoostedTrees::CompleteTreeImage::AddPredictions(
    const double* const* cols, size_t begin, size_t end, double* out) const {
  std::visit(
      [&](const auto& features) { Walk(features, cols, begin, end, out); },
      features_);
}

template <typename Feature>
void GradientBoostedTrees::CompleteTreeImage::Walk(
    const std::vector<Feature>& features, const double* const* cols,
    size_t begin, size_t end, double* out) const {
  if (begin >= end) return;
  // The group's features, gathered once: lane k of dense feature u sits
  // at x[u * kLanes + k], so a split's stored offset plus the lane is
  // one addressing mode. A short last group repeats its last row in the
  // unused lanes and drops their sums.
  std::vector<double> group(kLanes * used_features_.size());
  const double* x = group.data();
  for (size_t r0 = begin; r0 < end; r0 += kLanes) {
    size_t row[kLanes];
    double sum[kLanes];
    for (size_t k = 0; k < kLanes; ++k) {
      row[k] = std::min(r0 + k, end - 1);
      sum[k] = out[row[k] - begin];
    }
    for (size_t u = 0; u < used_features_.size(); ++u) {
      const double* col = cols[used_features_[u]];
      for (size_t k = 0; k < kLanes; ++k) group[u * kLanes + k] = col[row[k]];
    }
    const double* tree = nodes_.data();
    const Feature* split = features.data();
    for (const uint8_t levels : levels_) {
      size_t i[kLanes] = {};
      for (size_t lvl = 0; lvl < levels; ++lvl) {
        for (size_t k = 0; k < kLanes; ++k) {
          i[k] = 2 * i[k] + 1 +
                 static_cast<size_t>(!(x[split[i[k]] + k] <= tree[i[k]]));
        }
      }
      // After `levels` steps every index is a leaf slot; leaves follow
      // the internal slots, so the heap index addresses them directly.
      for (size_t k = 0; k < kLanes; ++k) sum[k] += tree[i[k]];
      const size_t internal = (size_t{1} << levels) - 1;
      tree += 2 * internal + 1;
      split += internal;
    }
    const size_t lanes = std::min(kLanes, end - r0);
    for (size_t k = 0; k < lanes; ++k) out[r0 + k - begin] = sum[k];
  }
}

}  // namespace surf
