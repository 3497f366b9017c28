#ifndef SURF_ML_TREE_H_
#define SURF_ML_TREE_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "ml/binning.h"
#include "ml/matrix.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace surf {

/// \brief Hyper-parameters of a single boosted regression tree.
///
/// These mirror the XGBoost knobs the paper sweeps in §V-E/§V-H:
/// `max_depth`, L2 leaf regularization `reg_lambda`, plus the usual
/// structural guards.
struct TreeParams {
  size_t max_depth = 6;
  size_t min_samples_leaf = 1;
  /// Minimum sum of hessians per child (XGBoost's min_child_weight).
  double min_child_weight = 1.0;
  /// L2 regularization on leaf weights (XGBoost's reg_lambda / λ).
  double reg_lambda = 1.0;
  /// Minimum split gain (XGBoost's gamma / γ).
  double min_split_gain = 0.0;
  /// Fraction of features considered per tree (colsample_bytree).
  double colsample = 1.0;
  /// Derive the larger child's histogram by subtracting the smaller
  /// child's from the parent's instead of rebuilding it. Off switches to
  /// direct per-node builds (reference path for equivalence tests).
  bool use_sibling_subtraction = true;
};

/// \brief One regression tree trained on gradient/hessian pairs
/// (second-order boosting; for squared loss g = pred − y, h = 1).
///
/// Training is histogram-based over the contiguous pre-binned matrix;
/// prediction walks raw double thresholds, so a fitted tree is independent
/// of the binner. Nodes are packed 16 bytes each with the left child
/// stored implicitly at `index + 1` (depth-first layout), which halves the
/// traversal working set versus a naive five-field node.
class RegressionTree {
 public:
  /// Row span of one leaf in the (partitioned) training row array, plus
  /// the leaf's output value. Lets boosting update training predictions
  /// with one add per row instead of a full tree walk.
  struct LeafRange {
    uint32_t begin = 0;
    uint32_t end = 0;
    double value = 0.0;
  };

  /// Fits the tree on `*rows` (indices into the binned matrix), which is
  /// partitioned in place so that on return each leaf owns a contiguous
  /// span of it (see leaf_ranges()). An empty `hess` means unit hessians
  /// (squared loss), enabling the count-only histogram fast path. When
  /// `pool` is non-null, per-feature histograms build in parallel; results
  /// are bit-identical for any thread count (each feature is accumulated
  /// by exactly one task, in row order).
  void Fit(const BinnedMatrix& binned, const FeatureBinner& binner,
           const std::vector<double>& grad, const std::vector<double>& hess,
           std::vector<uint32_t>* rows, const TreeParams& params, Rng* rng,
           ThreadPool* pool = nullptr);

  /// Leaf value for one raw feature vector.
  double Predict(const std::vector<double>& x) const;
  double Predict(const double* x) const;

  /// Copy-free depth-first traversal: adds `scale * leaf(r)` to
  /// `out[r - begin]` for every row r in [begin, end), reading features
  /// straight out of column-major storage (`cols[j][r]` is feature j of
  /// row r — see FeatureMatrix::ColPointers()). Ensembles predict through
  /// their complete-tree image instead; this walk serves training-time
  /// holdout rows and trees too deep for the image.
  void AddPredictions(const double* const* cols, size_t begin, size_t end,
                      double scale, double* out) const;

  /// Split levels on the longest root-to-leaf path (Depth() - 1; 0 for a
  /// single leaf).
  size_t SplitLevels() const { return depth_ > 1 ? depth_ - 1 : 0; }

  /// Lays the tree out as a complete tree of L = SplitLevels() levels in
  /// heap order (node h has children 2h+1 and 2h+2): `thresholds` and
  /// `features` receive the 2^L - 1 internal slots and `leaves` the 2^L
  /// leaf slots, each `scale * value`. A leaf above the last level is
  /// copied into every slot of its padded subtree, so the comparisons
  /// made there cannot change which value is reached.
  void FillComplete(double scale, double* thresholds, uint32_t* features,
                    double* leaves) const;

  /// Leaf spans over the row array passed to Fit (training-time only;
  /// empty for deserialized trees).
  const std::vector<LeafRange>& leaf_ranges() const { return leaf_ranges_; }

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_leaves() const;
  size_t Depth() const;

  /// Largest feature index referenced by any split (0 for leaf-only
  /// trees); loaders validate this against the model's feature width.
  size_t MaxFeatureIndex() const;

  /// Text (de)serialization for model persistence. Deserialize validates
  /// the node count, record fields, and tree shape, and returns
  /// Status::IOError on malformed input instead of trusting it.
  void Serialize(std::ostream& os) const;
  static StatusOr<RegressionTree> Deserialize(std::istream& is);

 private:
  /// Packed 16-byte node. Internal node: `tv` is the split threshold
  /// (go left if x[feature] <= tv), `right` is the right-child index and
  /// the left child lives at the next index. Leaf: `tv` is NaN and
  /// `right` points at the node itself, so the traversal select
  /// `x <= tv ? idx+1 : right` self-loops branch-free at leaves
  /// (`v <= NaN` is false for every v, including NaN and ±inf). Leaf
  /// values live in the parallel `values_` array, read once per row.
  struct Node {
    double tv = 0.0;
    int32_t right = -1;
    uint32_t feature = 0;
  };
  static_assert(sizeof(Node) == 16, "prediction hot path expects packed nodes");

  bool IsLeaf(size_t idx) const {
    return nodes_[idx].right == static_cast<int32_t>(idx);
  }

  struct SplitDecision {
    bool found = false;
    size_t feature = 0;
    uint16_t bin = 0;
    double threshold = 0.0;
    double gain = 0.0;
    // Totals of the left child at the chosen bin (right = parent - left),
    // so children inherit their sums without another pass over rows.
    double g_left = 0.0;
    double h_left = 0.0;
    size_t n_left = 0;
  };

  struct TrainState;  // defined in tree.cc

  int32_t BuildNode(TrainState& st, int hist_id, size_t begin, size_t end,
                    size_t depth, double g_sum, double h_sum);

  SplitDecision FindBestSplit(const TrainState& st, int hist_id,
                              double g_total, double h_total,
                              size_t n_total) const;

  std::vector<Node> nodes_;
  /// Leaf output per node index (0.0 at internal nodes).
  std::vector<double> values_;
  std::vector<LeafRange> leaf_ranges_;
  /// Cached Depth() of the fitted/loaded tree: the depth-first walk runs
  /// interleaved row groups for exactly depth-1 levels (leaves
  /// self-loop), overlapping the per-level load latencies.
  size_t depth_ = 0;
};

}  // namespace surf

#endif  // SURF_ML_TREE_H_
