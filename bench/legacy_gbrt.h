#ifndef SURF_BENCH_LEGACY_GBRT_H_
#define SURF_BENCH_LEGACY_GBRT_H_

// Reference single-thread GBRT implementation — a faithful port of the
// original (pre-engine-rework) trainer and predictor. It exists solely as
// the baseline of bench/micro_core's speedup report: nested-vector bin
// storage, a full histogram rebuild (gradients, hessians and counts) at
// every node, per-round prediction updates that copy each row into a
// scratch buffer and walk the fresh tree, and a batch predictor that
// gathers every row before walking every tree. Not used by the library.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <istream>
#include <numeric>
#include <vector>

#include "ml/binning.h"
#include "ml/matrix.h"
#include "ml/tree.h"

namespace surf {
namespace bench {

class LegacyTree {
 public:
  struct Node {
    int32_t left = -1;  // -1 for leaf
    int32_t right = -1;
    uint32_t feature = 0;
    double threshold = 0.0;
    double value = 0.0;
  };

  void Fit(const std::vector<std::vector<uint16_t>>& binned,
           const FeatureBinner& binner, const std::vector<double>& grad,
           const std::vector<double>& hess, const std::vector<size_t>& rows,
           const TreeParams& params) {
    nodes_.clear();
    std::vector<size_t> features(binner.num_features());
    std::iota(features.begin(), features.end(), 0);
    std::vector<size_t> mutable_rows = rows;
    BuildNode(binned, binner, grad, hess, &mutable_rows, 0,
              mutable_rows.size(), 0, params, features);
  }

  double Predict(const double* x) const {
    assert(!nodes_.empty());
    int32_t idx = 0;
    for (;;) {
      const Node& node = nodes_[static_cast<size_t>(idx)];
      if (node.left < 0) return node.value;
      idx = x[node.feature] <= node.threshold ? node.left : node.right;
    }
  }

  /// Parses one tree from the library's serialized text format, so the
  /// prediction benchmark walks the exact same model through both
  /// engines.
  static LegacyTree Parse(std::istream& is) {
    LegacyTree tree;
    size_t n = 0;
    is >> n;
    tree.nodes_.resize(n);
    for (auto& node : tree.nodes_) {
      long long left, right;
      is >> left >> right >> node.feature >> node.threshold >> node.value;
      node.left = static_cast<int32_t>(left);
      node.right = static_cast<int32_t>(right);
    }
    return tree;
  }

  size_t num_nodes() const { return nodes_.size(); }

 private:
  struct SplitDecision {
    bool found = false;
    size_t feature = 0;
    uint16_t bin = 0;
    double threshold = 0.0;
    double gain = 0.0;
  };

  static double NodeScore(double g, double h, double lambda) {
    return (g * g) / (h + lambda);
  }

  int32_t BuildNode(const std::vector<std::vector<uint16_t>>& binned,
                    const FeatureBinner& binner,
                    const std::vector<double>& grad,
                    const std::vector<double>& hess,
                    std::vector<size_t>* rows, size_t begin, size_t end,
                    size_t depth, const TreeParams& params,
                    const std::vector<size_t>& features) {
    const int32_t idx = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();

    double g_sum = 0.0, h_sum = 0.0;
    for (size_t i = begin; i < end; ++i) {
      g_sum += grad[(*rows)[i]];
      h_sum += hess[(*rows)[i]];
    }

    auto make_leaf = [&]() {
      nodes_[static_cast<size_t>(idx)].value =
          -g_sum / (h_sum + params.reg_lambda);
      return idx;
    };

    if (depth >= params.max_depth ||
        end - begin < 2 * params.min_samples_leaf ||
        h_sum < 2.0 * params.min_child_weight) {
      return make_leaf();
    }

    const SplitDecision split = FindBestSplit(
        binned, binner, grad, hess, *rows, begin, end, params, features);
    if (!split.found) return make_leaf();

    const auto& fcol = binned[split.feature];
    const auto pivot = std::partition(
        rows->begin() + static_cast<long>(begin),
        rows->begin() + static_cast<long>(end),
        [&](size_t r) { return fcol[r] <= split.bin; });
    const size_t mid = static_cast<size_t>(pivot - rows->begin());
    if (mid == begin || mid == end) return make_leaf();

    const int32_t left = BuildNode(binned, binner, grad, hess, rows, begin,
                                   mid, depth + 1, params, features);
    const int32_t right = BuildNode(binned, binner, grad, hess, rows, mid,
                                    end, depth + 1, params, features);
    Node& node = nodes_[static_cast<size_t>(idx)];
    node.left = left;
    node.right = right;
    node.feature = static_cast<uint32_t>(split.feature);
    node.threshold = split.threshold;
    return idx;
  }

  SplitDecision FindBestSplit(
      const std::vector<std::vector<uint16_t>>& binned,
      const FeatureBinner& binner, const std::vector<double>& grad,
      const std::vector<double>& hess, const std::vector<size_t>& rows,
      size_t begin, size_t end, const TreeParams& params,
      const std::vector<size_t>& features) const {
    SplitDecision best;
    double g_total = 0.0, h_total = 0.0;
    size_t n_total = 0;
    for (size_t i = begin; i < end; ++i) {
      g_total += grad[rows[i]];
      h_total += hess[rows[i]];
      ++n_total;
    }
    const double parent_score =
        NodeScore(g_total, h_total, params.reg_lambda);

    std::vector<double> bin_g, bin_h;
    std::vector<size_t> bin_n;
    for (size_t f : features) {
      const size_t n_bins = binner.num_bins(f);
      if (n_bins < 2) continue;
      bin_g.assign(n_bins, 0.0);
      bin_h.assign(n_bins, 0.0);
      bin_n.assign(n_bins, 0);
      const auto& fcol = binned[f];
      for (size_t i = begin; i < end; ++i) {
        const size_t r = rows[i];
        const uint16_t b = fcol[r];
        bin_g[b] += grad[r];
        bin_h[b] += hess[r];
        bin_n[b] += 1;
      }

      double g_left = 0.0, h_left = 0.0;
      size_t n_left = 0;
      for (size_t b = 0; b + 1 < n_bins; ++b) {
        g_left += bin_g[b];
        h_left += bin_h[b];
        n_left += bin_n[b];
        const double g_right = g_total - g_left;
        const double h_right = h_total - h_left;
        const size_t n_right = n_total - n_left;
        if (n_left < params.min_samples_leaf ||
            n_right < params.min_samples_leaf) {
          continue;
        }
        if (h_left < params.min_child_weight ||
            h_right < params.min_child_weight) {
          continue;
        }
        const double gain =
            0.5 * (NodeScore(g_left, h_left, params.reg_lambda) +
                   NodeScore(g_right, h_right, params.reg_lambda) -
                   parent_score);
        if (gain > best.gain + 1e-12 && gain > params.min_split_gain) {
          best.found = true;
          best.feature = f;
          best.bin = static_cast<uint16_t>(b);
          best.threshold = binner.BinUpperEdge(f, b);
          best.gain = gain;
        }
      }
    }
    return best;
  }

  std::vector<Node> nodes_;
};

/// The original boosting loop: nested-vector bins, per-round prediction
/// refresh that copies every row into a scratch buffer before walking the
/// new tree.
class LegacyGbrt {
 public:
  double learning_rate = 0.1;
  size_t n_estimators = 100;
  TreeParams tree_params;
  size_t max_bins = 256;

  void Fit(const FeatureMatrix& x, const std::vector<double>& y) {
    trees_.clear();
    num_features_ = x.num_features();
    base_score_ = 0.0;
    for (double v : y) base_score_ += v;
    base_score_ /= static_cast<double>(y.size());

    const FeatureBinner binner(x, max_bins);
    const auto binned = binner.BinMatrix(x);

    std::vector<double> pred(x.num_rows(), base_score_);
    std::vector<double> grad(x.num_rows()), hess(x.num_rows(), 1.0);
    std::vector<size_t> rows(x.num_rows());
    std::iota(rows.begin(), rows.end(), 0);

    std::vector<size_t> tree_rows;
    for (size_t round = 0; round < n_estimators; ++round) {
      for (size_t r : rows) grad[r] = pred[r] - y[r];
      tree_rows = rows;
      LegacyTree tree;
      tree.Fit(binned, binner, grad, hess, tree_rows, tree_params);

      std::vector<double> row_buf(num_features_);
      for (size_t r = 0; r < x.num_rows(); ++r) {
        for (size_t j = 0; j < num_features_; ++j) row_buf[j] = x.Get(r, j);
        pred[r] += learning_rate * tree.Predict(row_buf.data());
      }
      trees_.push_back(std::move(tree));
    }
  }

  /// The original batch predictor: gather each row, then walk every tree.
  std::vector<double> PredictBatch(const FeatureMatrix& x) const {
    std::vector<double> out(x.num_rows(), base_score_);
    std::vector<double> row(num_features_);
    for (size_t r = 0; r < x.num_rows(); ++r) {
      for (size_t j = 0; j < num_features_; ++j) row[j] = x.Get(r, j);
      double acc = base_score_;
      for (const auto& tree : trees_) {
        acc += learning_rate * tree.Predict(row.data());
      }
      out[r] = acc;
    }
    return out;
  }

  /// Loads the tree set of an already-fitted library model (via its text
  /// serialization), so both predictors walk the identical ensemble.
  void LoadTrees(std::istream& is, size_t n_trees, double base_score,
                 double lr, size_t num_features) {
    trees_.clear();
    trees_.reserve(n_trees);
    for (size_t t = 0; t < n_trees; ++t) {
      trees_.push_back(LegacyTree::Parse(is));
    }
    base_score_ = base_score;
    learning_rate = lr;
    num_features_ = num_features;
  }

  size_t num_trees() const { return trees_.size(); }

 private:
  double base_score_ = 0.0;
  size_t num_features_ = 0;
  std::vector<LegacyTree> trees_;
};

// ------------------------------------------------------------------
// Legacy scalar forms of the two accel-layer hot loops, exactly as
// they appeared inline before the dispatch layer existed. They are the
// baselines of micro_core's kernel-level speedup section: the accel
// generic backend must match them in time (it IS the same loop), and
// the native backends must beat them.

/// The pre-accel branchless membership scan from EvalShard.
inline void LegacyMaskScan(const double* col, size_t n, double lo, double hi,
                           uint8_t* mask) {
  for (size_t r = 0; r < n; ++r) {
    mask[r] &= static_cast<uint8_t>(!(col[r] < lo)) &
               static_cast<uint8_t>(!(col[r] > hi));
  }
}

/// The pre-accel mask popcount (plain byte sum).
inline uint64_t LegacyMaskCount(const uint8_t* mask, size_t n) {
  uint64_t sum = 0;
  for (size_t r = 0; r < n; ++r) sum += mask[r];
  return sum;
}

}  // namespace bench
}  // namespace surf

#endif  // SURF_BENCH_LEGACY_GBRT_H_
