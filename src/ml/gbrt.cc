#include "ml/gbrt.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>

#include "ml/metrics.h"
#include "util/summary.h"

namespace surf {

namespace {

/// Rows per prediction block: small enough that one block of every
/// touched column stays cache-resident, large enough to amortize the
/// per-tree setup across rows.
constexpr size_t kPredictBlockRows = 1024;

/// Batches below this predict serially: PredictBatch spins up a pool per
/// call (the model stays copyable and trivially thread-safe), so the
/// block work must dwarf the ~0.1 ms spawn/join cost. Optimizer swarms
/// (hundreds of regions) always take the serial path.
constexpr size_t kMinParallelPredictRows = 8 * kPredictBlockRows;

constexpr size_t kMaxModelTrees = 1u << 20;
constexpr size_t kMaxModelFeatures = 1u << 20;

// Unit hessians (squared loss) are signalled by an empty vector, which
// switches the tree trainer to its count-only histogram fast path.
const std::vector<double> kUnitHess;

size_t ResolveThreads(const GbrtParams& params) {
  return params.num_threads == 0 ? ThreadPool::DefaultThreadCount()
                                 : params.num_threads;
}

TreeParams MakeTreeParams(const GbrtParams& params) {
  TreeParams tree_params;
  tree_params.max_depth = params.max_depth;
  tree_params.min_samples_leaf = params.min_samples_leaf;
  tree_params.min_child_weight = params.min_child_weight;
  tree_params.reg_lambda = params.reg_lambda;
  tree_params.min_split_gain = params.min_split_gain;
  tree_params.colsample = params.colsample;
  tree_params.use_sibling_subtraction = params.use_sibling_subtraction;
  return tree_params;
}

/// Folds one fitted tree into the running predictions. Rows the tree was
/// trained on are updated straight from its leaf ranges (one add per row,
/// no traversal); remaining rows (validation holdout, subsample dropouts)
/// take a copy-free column-major walk.
void ApplyTreeToPredictions(const RegressionTree& tree,
                            const std::vector<uint32_t>& tree_rows,
                            const std::vector<const double*>& cols,
                            double learning_rate, size_t num_rows,
                            std::vector<uint8_t>* covered,
                            std::vector<double>* pred) {
  for (const auto& leaf : tree.leaf_ranges()) {
    const double delta = learning_rate * leaf.value;
    for (uint32_t i = leaf.begin; i < leaf.end; ++i) {
      (*pred)[tree_rows[i]] += delta;
    }
  }
  if (tree_rows.size() == num_rows) return;
  covered->assign(num_rows, 0);
  for (uint32_t r : tree_rows) (*covered)[r] = 1;
  for (size_t r = 0; r < num_rows; ++r) {
    if (!(*covered)[r]) {
      tree.AddPredictions(cols.data(), r, r + 1, learning_rate,
                          pred->data() + r);
    }
  }
}

}  // namespace

std::string GbrtParams::ToString() const {
  std::ostringstream os;
  os << "lr=" << learning_rate << " trees=" << n_estimators
     << " depth=" << max_depth << " lambda=" << reg_lambda;
  return os.str();
}

std::string GbrtParams::CanonicalString() const {
  std::ostringstream os;
  os.precision(17);
  os << "lr=" << learning_rate << ";trees=" << n_estimators
     << ";depth=" << max_depth << ";lambda=" << reg_lambda
     << ";mcw=" << min_child_weight << ";msg=" << min_split_gain
     << ";msl=" << min_samples_leaf << ";subsample=" << subsample
     << ";colsample=" << colsample << ";bins=" << max_bins
     << ";esr=" << early_stopping_rounds << ";vf=" << validation_fraction
     << ";seed=" << seed;
  return os.str();
}

Status GradientBoostedTrees::Fit(const FeatureMatrix& x,
                                 const std::vector<double>& y) {
  if (x.num_rows() == 0) {
    return Status::InvalidArgument("empty training matrix");
  }
  if (x.num_rows() != y.size()) {
    return Status::InvalidArgument("feature/target row mismatch");
  }
  for (double v : y) {
    if (std::isnan(v)) {
      return Status::InvalidArgument("NaN target in training data");
    }
  }

  trees_.clear();
  image_ = CompleteTreeImage();
  train_curve_.clear();
  trained_ = false;
  num_features_ = x.num_features();
  Rng rng(params_.seed);

  // Optional validation holdout for early stopping.
  std::vector<uint32_t> train_rows(x.num_rows());
  std::iota(train_rows.begin(), train_rows.end(), 0);
  std::vector<uint32_t> valid_rows;
  if (params_.early_stopping_rounds > 0 &&
      params_.validation_fraction > 0.0 && x.num_rows() >= 10) {
    rng.Shuffle(&train_rows);
    const size_t n_valid = std::max<size_t>(
        1, static_cast<size_t>(params_.validation_fraction *
                               static_cast<double>(x.num_rows())));
    valid_rows.assign(train_rows.end() - static_cast<long>(n_valid),
                      train_rows.end());
    train_rows.resize(train_rows.size() - n_valid);
  }

  base_score_ = 0.0;
  for (uint32_t r : train_rows) base_score_ += y[r];
  base_score_ /= static_cast<double>(train_rows.size());

  const FeatureBinner binner(x, params_.max_bins);
  const BinnedMatrix binned = binner.Bin(x);
  const std::vector<const double*> cols = x.ColPointers();

  std::vector<double> pred(x.num_rows(), base_score_);
  std::vector<double> grad(x.num_rows(), 0.0);
  std::vector<uint8_t> covered;

  const TreeParams tree_params = MakeTreeParams(params_);
  const size_t num_threads = ResolveThreads(params_);
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads);

  double best_valid_rmse = std::numeric_limits<double>::infinity();
  size_t rounds_since_best = 0;
  size_t best_round = 0;

  // One trace span per block of boosting rounds (not per round — a
  // 300-estimator fit would flood the trace). Stage kNone: the parent
  // "training" span already accounts this time in the stage histograms.
  constexpr size_t kRoundsPerSpan = 25;
  int32_t rounds_span = -1;
  size_t rounds_span_start = 0;
  auto close_rounds_span = [&](size_t next_round) {
    if (rounds_span < 0) return;
    trace_->AddAttr(rounds_span, "rounds",
                    std::to_string(rounds_span_start) + ".." +
                        std::to_string(next_round - 1));
    trace_->EndSpan(rounds_span);
    rounds_span = -1;
  };

  std::vector<uint32_t> tree_rows;
  for (size_t round = 0; round < params_.n_estimators; ++round) {
    if (cancel_.cancelled()) {
      close_rounds_span(round);
      trees_.clear();
      train_curve_.clear();
      return Status::Cancelled("surrogate training cancelled");
    }
    if (trace_ != nullptr && round % kRoundsPerSpan == 0) {
      close_rounds_span(round);
      rounds_span = trace_->BeginSpan("boost_rounds", TraceStage::kNone);
      rounds_span_start = round;
    }
    // Squared loss: g = pred − y, h = 1.
    for (uint32_t r : train_rows) grad[r] = pred[r] - y[r];

    // Row subsampling.
    if (params_.subsample < 1.0) {
      tree_rows.clear();
      for (uint32_t r : train_rows) {
        if (rng.Bernoulli(params_.subsample)) tree_rows.push_back(r);
      }
      if (tree_rows.empty()) tree_rows = train_rows;
    } else {
      tree_rows = train_rows;
    }

    RegressionTree tree;
    tree.Fit(binned, binner, grad, kUnitHess, &tree_rows, tree_params, &rng,
             pool.get());
    ApplyTreeToPredictions(tree, tree_rows, cols, params_.learning_rate,
                           x.num_rows(), &covered, &pred);
    trees_.push_back(std::move(tree));

    // Learning curve on the training rows.
    double se = 0.0;
    for (uint32_t r : train_rows) se += (pred[r] - y[r]) * (pred[r] - y[r]);
    train_curve_.push_back(
        std::sqrt(se / static_cast<double>(train_rows.size())));

    // Early stopping.
    if (!valid_rows.empty()) {
      double vse = 0.0;
      for (uint32_t r : valid_rows) {
        vse += (pred[r] - y[r]) * (pred[r] - y[r]);
      }
      const double vrmse =
          std::sqrt(vse / static_cast<double>(valid_rows.size()));
      if (vrmse + 1e-12 < best_valid_rmse) {
        best_valid_rmse = vrmse;
        best_round = round;
        rounds_since_best = 0;
      } else if (++rounds_since_best >= params_.early_stopping_rounds) {
        trees_.resize(best_round + 1);
        break;
      }
    }
  }
  close_rounds_span(trees_.size());

  CompileImage();
  trained_ = true;
  return Status::OK();
}

Status GradientBoostedTrees::ContinueFit(const FeatureMatrix& x,
                                         const std::vector<double>& y,
                                         size_t extra_trees) {
  if (!trained_) return Status::FailedPrecondition("model not trained");
  if (x.num_features() != num_features_) {
    return Status::InvalidArgument("feature width mismatch");
  }
  if (x.num_rows() == 0 || x.num_rows() != y.size()) {
    return Status::InvalidArgument("empty or mismatched update batch");
  }
  for (double v : y) {
    if (std::isnan(v)) {
      return Status::InvalidArgument("NaN target in update batch");
    }
  }

  Rng rng(params_.seed + trees_.size());
  const FeatureBinner binner(x, params_.max_bins);
  const BinnedMatrix binned = binner.Bin(x);
  const std::vector<const double*> cols = x.ColPointers();

  std::vector<double> pred = PredictBatch(x);
  std::vector<double> grad(x.num_rows(), 0.0);
  std::vector<uint32_t> rows(x.num_rows());
  std::vector<uint8_t> covered;

  const TreeParams tree_params = MakeTreeParams(params_);
  const size_t num_threads = ResolveThreads(params_);
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads);

  for (size_t round = 0; round < extra_trees; ++round) {
    if (cancel_.cancelled()) {
      // The rounds already appended stay, so the image must cover them.
      CompileImage();
      return Status::Cancelled("warm-start continuation cancelled");
    }
    for (size_t r = 0; r < x.num_rows(); ++r) grad[r] = pred[r] - y[r];
    std::iota(rows.begin(), rows.end(), 0);
    RegressionTree tree;
    tree.Fit(binned, binner, grad, kUnitHess, &rows, tree_params, &rng,
             pool.get());
    ApplyTreeToPredictions(tree, rows, cols, params_.learning_rate,
                           x.num_rows(), &covered, &pred);
    trees_.push_back(std::move(tree));

    double se = 0.0;
    for (size_t r = 0; r < x.num_rows(); ++r) {
      se += (pred[r] - y[r]) * (pred[r] - y[r]);
    }
    train_curve_.push_back(
        std::sqrt(se / static_cast<double>(x.num_rows())));
  }
  CompileImage();
  return Status::OK();
}

void GradientBoostedTrees::CompileImage() {
  image_ = CompleteTreeImage(trees_, params_.learning_rate);
}

double GradientBoostedTrees::Predict(const std::vector<double>& x) const {
  assert(trained_);
  assert(x.size() == num_features_);
  double out = base_score_;
  for (const auto& tree : trees_) {
    out += params_.learning_rate * tree.Predict(x.data());
  }
  return out;
}

std::vector<double> GradientBoostedTrees::PredictBatch(
    const FeatureMatrix& x) const {
  assert(trained_);
  const size_t n = x.num_rows();
  std::vector<double> out(n, base_score_);
  if (trees_.empty() || n == 0) return out;

  const std::vector<const double*> cols = x.ColPointers();
  const double lr = params_.learning_rate;
  // All trees over one block of rows before moving on, so the block's
  // rows stay cache-resident while the ensemble streams past them.
  auto run_range = [&](size_t b0, size_t b1) {
    if (!image_.empty()) {
      image_.AddPredictions(cols.data(), b0, b1, out.data() + b0);
      return;
    }
    for (const auto& tree : trees_) {
      tree.AddPredictions(cols.data(), b0, b1, lr, out.data() + b0);
    }
  };

  const size_t num_threads = ResolveThreads(params_);
  if (num_threads > 1 && n >= kMinParallelPredictRows) {
    // Disjoint blocks, each summed tree-by-tree in a fixed order, so the
    // result is bit-identical to the serial path.
    ThreadPool pool(num_threads);
    const size_t num_blocks =
        (n + kPredictBlockRows - 1) / kPredictBlockRows;
    ParallelFor(&pool, num_blocks, [&](size_t b) {
      const size_t b0 = b * kPredictBlockRows;
      run_range(b0, std::min(n, b0 + kPredictBlockRows));
    });
  } else {
    for (size_t b0 = 0; b0 < n; b0 += kPredictBlockRows) {
      run_range(b0, std::min(n, b0 + kPredictBlockRows));
    }
  }
  return out;
}

Status GradientBoostedTrees::Save(const std::string& path) const {
  if (!trained_) return Status::FailedPrecondition("model not trained");
  std::ofstream os(path);
  if (!os) return Status::IOError("cannot write " + path);
  os.precision(17);
  os << "surf-gbrt-v1\n";
  os << num_features_ << " " << base_score_ << " " << params_.learning_rate
     << " " << trees_.size() << "\n";
  for (const auto& tree : trees_) tree.Serialize(os);
  if (!os) return Status::IOError("short write to " + path);
  return Status::OK();
}

StatusOr<GradientBoostedTrees> GradientBoostedTrees::Load(
    const std::string& path) {
  std::ifstream is(path);
  if (!is) return Status::IOError("cannot open " + path);
  std::string magic;
  is >> magic;
  if (magic != "surf-gbrt-v1") {
    return Status::IOError("bad model header in " + path);
  }
  GradientBoostedTrees model;
  long long num_features = 0, n_trees = 0;
  is >> num_features >> model.base_score_ >> model.params_.learning_rate >>
      n_trees;
  if (!is) return Status::IOError("truncated model file " + path);
  if (num_features <= 0 ||
      static_cast<size_t>(num_features) > kMaxModelFeatures) {
    return Status::IOError("feature count out of range in " + path);
  }
  if (n_trees < 0 || static_cast<size_t>(n_trees) > kMaxModelTrees) {
    return Status::IOError("tree count out of range in " + path);
  }
  if (!std::isfinite(model.base_score_) ||
      !std::isfinite(model.params_.learning_rate)) {
    return Status::IOError("non-finite model header field in " + path);
  }
  model.num_features_ = static_cast<size_t>(num_features);
  model.trees_.reserve(static_cast<size_t>(n_trees));
  for (long long t = 0; t < n_trees; ++t) {
    auto tree = RegressionTree::Deserialize(is);
    if (!tree.ok()) return tree.status();
    if (tree->MaxFeatureIndex() >= model.num_features_) {
      return Status::IOError("tree split feature out of range in " + path);
    }
    model.trees_.push_back(std::move(tree).value());
  }
  if (!is) return Status::IOError("truncated model file " + path);
  model.params_.n_estimators = static_cast<size_t>(n_trees);
  model.CompileImage();
  model.trained_ = true;
  return model;
}

}  // namespace surf
