#ifndef SURF_ML_GBRT_H_
#define SURF_ML_GBRT_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "ml/regressor.h"
#include "ml/tree.h"
#include "util/cancel.h"
#include "util/status.h"
#include "util/trace.h"

namespace surf {

/// \brief Hyper-parameters of the gradient-boosted ensemble. Field names
/// follow XGBoost so the grid the paper hypertunes in §V-E
/// (learning_rate ∈ {0.1, 0.01, 0.001}, max_depth ∈ {3,5,7,9},
/// n_estimators ∈ {100, 200, 300}, reg_lambda ∈ {1, 0.1, 0.01, 0.001})
/// maps one-to-one.
struct GbrtParams {
  double learning_rate = 0.1;
  size_t n_estimators = 100;
  size_t max_depth = 6;
  double reg_lambda = 1.0;
  double min_child_weight = 1.0;
  double min_split_gain = 0.0;
  size_t min_samples_leaf = 1;
  /// Row subsampling per tree (stochastic gradient boosting).
  double subsample = 1.0;
  /// Column subsampling per tree.
  double colsample = 1.0;
  /// Histogram resolution.
  size_t max_bins = 256;
  /// Worker threads for histogram building and blocked batch prediction
  /// (0 = hardware concurrency). Results are bit-identical for any value:
  /// parallel work is partitioned per feature / per row block with a
  /// fixed reduction order.
  size_t num_threads = 1;
  /// Derive each larger child's histogram by subtracting the smaller
  /// sibling's from the parent's (off = direct rebuild, the reference
  /// path for equivalence tests).
  bool use_sibling_subtraction = true;
  /// Early stopping: stop when the held-out RMSE has not improved for
  /// `early_stopping_rounds` trees (0 disables; requires
  /// validation_fraction > 0).
  size_t early_stopping_rounds = 0;
  double validation_fraction = 0.0;
  uint64_t seed = 1234;

  /// Short display form (the four §V-E grid axes only).
  std::string ToString() const;

  /// Canonical full serialization of every *model-relevant* field, used by
  /// the serving layer to fingerprint cache keys. Two parameter sets with
  /// equal canonical strings train bit-identical ensembles on the same
  /// data. Runtime-only knobs (`num_threads`, `use_sibling_subtraction`)
  /// are excluded: they never change the fitted model.
  std::string CanonicalString() const;
};

/// \brief Gradient-boosted regression trees with squared-error loss —
/// the from-scratch stand-in for the paper's XGBoost surrogate (§IV).
///
/// Second-order boosting: per round the gradient of ½(pred−y)² is
/// (pred − y) and the hessian is 1, so leaf weights reduce to the familiar
/// -Σresidual / (n + λ). Trees are trained histogram-style on quantile
/// bins; prediction sums raw-threshold tree walks. Batch prediction runs
/// on a complete-tree image of the ensemble, compiled whenever the trees
/// change (Fit, ContinueFit, Load).
class GradientBoostedTrees : public Regressor {
 public:
  GradientBoostedTrees() = default;
  explicit GradientBoostedTrees(GbrtParams params)
      : params_(std::move(params)) {}

  Status Fit(const FeatureMatrix& x, const std::vector<double>& y) override;

  /// Warm-start continuation: appends `extra_trees` boosting rounds fitted
  /// to this model's residuals on (x, y) — the mechanism behind
  /// Surrogate::Update, which folds freshly observed region evaluations
  /// into an already-deployed surrogate without retraining from scratch.
  /// Requires a trained model with matching feature width.
  Status ContinueFit(const FeatureMatrix& x, const std::vector<double>& y,
                     size_t extra_trees);

  double Predict(const std::vector<double>& x) const override;

  /// Blocked batch prediction through the ensemble's complete-tree image
  /// (groups of 8 rows, every tree, branch-free steps); ensembles with a
  /// tree deeper than the image's level cap take the depth-first walk
  /// instead. Blocks run in parallel when `num_threads > 1`; output is
  /// bitwise equal to per-row Predict for any thread count, NaN and ±inf
  /// features included.
  std::vector<double> PredictBatch(const FeatureMatrix& x) const override;

  bool trained() const override { return trained_; }
  std::string Name() const override { return "gbrt"; }

  /// Attaches a cooperative-cancellation token polled between boosting
  /// rounds: Fit/ContinueFit return Cancelled within one round of the
  /// token firing, leaving the model untrained (Fit) or unchanged beyond
  /// the rounds already appended (ContinueFit, which keeps predicting
  /// with them). The token is runtime-only
  /// state — it never affects a completed fit's results and is excluded
  /// from fingerprints. Reset it (default token) before reusing the model
  /// object for an unrelated fit.
  void SetCancelToken(CancelToken cancel) { cancel_ = std::move(cancel); }

  /// Attaches a trace context recording one "boost_rounds" span per
  /// block of boosting rounds during Fit. Like the cancel token this is
  /// runtime-only, per-request state (tracing never changes the fitted
  /// ensemble); reset it (nullptr) before reusing the model object.
  void SetTrace(TraceContext* trace) { trace_ = trace; }

  const GbrtParams& params() const { return params_; }
  /// Prediction-time parallelism is a runtime choice: retargeting the
  /// thread count never changes results (blocks reduce in a fixed order).
  void set_num_threads(size_t n) { params_.num_threads = n; }
  size_t num_trees() const { return trees_.size(); }
  double base_score() const { return base_score_; }

  /// Training RMSE per boosting round (for learning-curve reports).
  const std::vector<double>& train_curve() const { return train_curve_; }

  /// Model persistence (plain text).
  Status Save(const std::string& path) const;
  static StatusOr<GradientBoostedTrees> Load(const std::string& path);

 private:
  /// \brief Prediction-only image of the ensemble: each tree of L split
  /// levels padded to an implicit complete tree in heap order (node i has
  /// children 2i+1 and 2i+2), all trees in one exactly-sized buffer.
  ///
  /// Per tree, `nodes_` holds 2^L - 1 thresholds followed by 2^L leaf
  /// values pre-multiplied by the learning rate (the same product the
  /// scalar path forms), and the feature buffer holds 2^L - 1 split
  /// features. A leaf above level L fills its whole padded subtree, so
  /// every row takes exactly L steps `i = 2i + 1 + !(x[f[i]] <= t[i])`
  /// and lands on a leaf slot. The compare is the scalar walk's, so NaN
  /// and ±inf route identically.
  class CompleteTreeImage {
   public:
    /// Padding grows as 2^L per tree: an ensemble with a deeper tree is
    /// not compiled and keeps the depth-first walk.
    static constexpr size_t kMaxLevels = 10;

    CompleteTreeImage() = default;
    /// Compiles `trees` (leaf values scaled by `scale`); stays empty when
    /// `trees` is empty or any tree has more than kMaxLevels levels.
    CompleteTreeImage(const std::vector<RegressionTree>& trees,
                      double scale);

    bool empty() const { return levels_.empty(); }

    /// Adds every tree's scaled leaf to `out[r - begin]` for rows
    /// [begin, end) of column-major `cols`, in tree order.
    void AddPredictions(const double* const* cols, size_t begin,
                        size_t end, double* out) const;

   private:
    template <typename Feature>
    void Walk(const std::vector<Feature>& features, const double* const* cols,
              size_t begin, size_t end, double* out) const;

    /// Split levels per tree, in ensemble order.
    std::vector<uint8_t> levels_;
    std::vector<double> nodes_;
    /// Split feature per internal slot: its index into `used_features_`
    /// times the lane count (the feature's offset in a gathered row
    /// group), in the narrowest type that holds every offset.
    std::variant<std::vector<uint8_t>, std::vector<uint16_t>,
                 std::vector<uint32_t>>
        features_;
    /// Matrix column of each dense feature index: a row gathers only the
    /// columns some split reads.
    std::vector<uint32_t> used_features_;
  };

  /// Recompiles `image_` from `trees_`; every path that changes the
  /// trees calls it before returning.
  void CompileImage();

  GbrtParams params_;
  CancelToken cancel_;
  TraceContext* trace_ = nullptr;
  double base_score_ = 0.0;
  std::vector<RegressionTree> trees_;
  CompleteTreeImage image_;
  std::vector<double> train_curve_;
  size_t num_features_ = 0;
  bool trained_ = false;
};

}  // namespace surf

#endif  // SURF_ML_GBRT_H_
