#include "core/surrogate.h"

#include <cassert>
#include <fstream>

#include "ml/cv.h"
#include "ml/metrics.h"
#include "util/stopwatch.h"

namespace surf {

namespace {

/// Gathers a fold into matrix/target form.
void GatherFold(const RegionWorkload& workload,
                const std::vector<size_t>& rows, FeatureMatrix* x,
                std::vector<double>* y) {
  *x = workload.features.Gather(rows);
  y->clear();
  y->reserve(rows.size());
  for (size_t r : rows) y->push_back(workload.targets[r]);
}

/// The holdout fit every surrogate class shares: fits `model` on the
/// seeded training split of `workload` (`test_fraction` held out, 0.2
/// when unset) and measures the RMSE of both splits.
StatusOr<SurrogateMetrics> FitOnSplit(Regressor* model,
                                      const RegionWorkload& workload,
                                      double test_fraction, uint64_t seed) {
  Rng rng(seed);
  Fold split = TrainTestSplit(
      workload.size(), test_fraction > 0.0 ? test_fraction : 0.2, &rng);
  FeatureMatrix train_x;
  std::vector<double> train_y;
  GatherFold(workload, split.train, &train_x, &train_y);
  SURF_RETURN_IF_ERROR(model->Fit(train_x, train_y));

  SurrogateMetrics metrics;
  metrics.num_train_examples = split.train.size();
  metrics.train_rmse = Rmse(model->PredictBatch(train_x), train_y);
  FeatureMatrix test_x;
  std::vector<double> test_y;
  GatherFold(workload, split.test, &test_x, &test_y);
  metrics.test_rmse = Rmse(model->PredictBatch(test_x), test_y);
  return metrics;
}

}  // namespace

StatusOr<Surrogate> Surrogate::Train(const RegionWorkload& workload,
                                     const SurrogateTrainOptions& options,
                                     ThreadPool* pool, CancelToken cancel,
                                     TraceContext* trace) {
  if (workload.size() == 0) {
    return Status::InvalidArgument("empty workload");
  }
  if (cancel.cancelled()) return cancel.ToStatus();
  // The training stage span lives here, not in the serving layer, so
  // library callers get the same stage accounting as surfd requests.
  TraceSpan training_span(trace, "training", TraceStage::kTraining);
  Stopwatch timer;

  GbrtParams params = options.gbrt;
  bool hypertuned = false;
  if (options.hypertune) {
    TraceSpan span(trace, "hypertune");
    const GridSearchResult grid =
        GridSearchCV(workload.features, workload.targets, options.grid,
                     options.gbrt, options.cv_folds, options.seed, pool);
    params = grid.best_params;
    hypertuned = true;
  }

  auto model = std::make_unique<GradientBoostedTrees>(params);
  model->SetCancelToken(cancel);
  model->SetTrace(trace);
  // Holdout split for out-of-sample RMSE reporting.
  auto metrics =
      FitOnSplit(model.get(), workload, options.test_fraction, options.seed);
  if (!metrics.ok()) return metrics.status();
  // The token and trace are per-request state; a later warm-start
  // continuation of this model must not observe them.
  model->SetCancelToken(CancelToken());
  model->SetTrace(nullptr);

  Surrogate surrogate;
  surrogate.model_ = std::move(model);
  surrogate.space_ = workload.space;
  surrogate.statistic_ = workload.statistic;
  surrogate.metrics_ = *metrics;
  surrogate.metrics_.hypertuned = hypertuned;
  surrogate.metrics_.chosen_params = params;
  surrogate.metrics_.train_seconds = timer.ElapsedSeconds();
  return surrogate;
}

StatusOr<Surrogate> Surrogate::TrainWithModel(
    std::unique_ptr<Regressor> model, const RegionWorkload& workload,
    double test_fraction, uint64_t seed) {
  if (workload.size() == 0) {
    return Status::InvalidArgument("empty workload");
  }
  if (model == nullptr) {
    return Status::InvalidArgument("null model");
  }
  Stopwatch timer;
  auto metrics = FitOnSplit(model.get(), workload, test_fraction, seed);
  if (!metrics.ok()) return metrics.status();

  Surrogate surrogate;
  surrogate.model_ = std::move(model);
  surrogate.space_ = workload.space;
  surrogate.statistic_ = workload.statistic;
  surrogate.metrics_ = *metrics;
  surrogate.metrics_.train_seconds = timer.ElapsedSeconds();
  return surrogate;
}

double Surrogate::Predict(const Region& region) const {
  assert(trained());
  return model_->Predict(RegionFeatures(region));
}

namespace {

/// Shared batched-evaluation kernel: one feature-matrix fill, one
/// blocked PredictBatch.
std::vector<double> PredictRegions(const Regressor& model,
                                   const std::vector<Region>& regions) {
  if (regions.empty()) return {};
  FeatureMatrix features(2 * regions[0].dims());
  features.Reserve(regions.size());
  for (const Region& region : regions) {
    features.AddRow(RegionFeatures(region));
  }
  return model.PredictBatch(features);
}

}  // namespace

std::vector<double> Surrogate::EvaluateMany(
    const std::vector<Region>& regions) const {
  assert(trained());
  return PredictRegions(*model_, regions);
}

Status Surrogate::Update(const RegionWorkload& fresh_workload,
                         size_t extra_trees) {
  if (!trained()) return Status::FailedPrecondition("surrogate not trained");
  auto* gbrt = dynamic_cast<GradientBoostedTrees*>(model_.get());
  if (gbrt == nullptr) {
    return Status::FailedPrecondition(
        "incremental updates require a GBRT surrogate");
  }
  if (fresh_workload.size() == 0) {
    return Status::InvalidArgument("empty update workload");
  }
  Stopwatch timer;
  SURF_RETURN_IF_ERROR(gbrt->ContinueFit(
      fresh_workload.features, fresh_workload.targets, extra_trees));
  metrics_.train_seconds += timer.ElapsedSeconds();
  metrics_.num_train_examples += fresh_workload.size();
  return Status::OK();
}

StatusOr<Surrogate> Surrogate::WarmStarted(
    const RegionWorkload& fresh_workload, size_t extra_trees) const {
  if (!trained()) return Status::FailedPrecondition("surrogate not trained");
  const auto* gbrt = dynamic_cast<const GradientBoostedTrees*>(model_.get());
  if (gbrt == nullptr) {
    return Status::FailedPrecondition(
        "warm-start updates require a GBRT surrogate");
  }
  if (fresh_workload.size() == 0) {
    return Status::InvalidArgument("empty update workload");
  }
  Stopwatch timer;
  auto clone = std::make_shared<GradientBoostedTrees>(*gbrt);

  // Hold a slice of the fresh batch out of the fit so the refreshed
  // model's out-of-sample fidelity can be re-declared — otherwise the
  // provenance would keep reporting the pre-refresh holdout RMSE. Tiny
  // batches (< 5) train whole and keep the previous figure.
  Surrogate warmed = *this;
  if (fresh_workload.size() >= 5) {
    Rng rng(1 + metrics_.num_train_examples);
    const Fold split = TrainTestSplit(fresh_workload.size(), 0.2, &rng);
    FeatureMatrix train_x;
    std::vector<double> train_y;
    GatherFold(fresh_workload, split.train, &train_x, &train_y);
    SURF_RETURN_IF_ERROR(clone->ContinueFit(train_x, train_y, extra_trees));
    FeatureMatrix test_x;
    std::vector<double> test_y;
    GatherFold(fresh_workload, split.test, &test_x, &test_y);
    if (!test_y.empty()) {
      warmed.metrics_.test_rmse = Rmse(clone->PredictBatch(test_x), test_y);
    }
    warmed.metrics_.num_train_examples += split.train.size();
  } else {
    SURF_RETURN_IF_ERROR(clone->ContinueFit(
        fresh_workload.features, fresh_workload.targets, extra_trees));
    warmed.metrics_.num_train_examples += fresh_workload.size();
  }
  warmed.model_ = std::move(clone);
  warmed.metrics_.train_seconds += timer.ElapsedSeconds();
  return warmed;
}

StatisticFn Surrogate::AsStatisticFn() const {
  assert(trained());
  // Capture the shared model so the adapter stays valid if the Surrogate
  // object is copied or moved around by callers.
  auto model = model_;
  return [model](const Region& region) {
    return model->Predict(RegionFeatures(region));
  };
}

BatchStatisticFn Surrogate::AsBatchStatisticFn() const {
  assert(trained());
  auto model = model_;
  return [model](const std::vector<Region>& regions) {
    return PredictRegions(*model, regions);
  };
}

Status Surrogate::Save(const std::string& path) const {
  if (!trained()) return Status::FailedPrecondition("surrogate not trained");
  const auto* gbrt = dynamic_cast<const GradientBoostedTrees*>(model_.get());
  if (gbrt == nullptr) {
    return Status::FailedPrecondition(
        "only GBRT surrogates support persistence");
  }
  std::ofstream os(path);
  if (!os) return Status::IOError("cannot write " + path);
  os.precision(17);
  os << "surf-surrogate-v1\n";
  const size_t d = space_.dims();
  os << d << " " << space_.min_half_length << " " << space_.max_half_length
     << "\n";
  for (size_t i = 0; i < d; ++i) {
    os << space_.bounds.lo(i) << " " << space_.bounds.hi(i) << "\n";
  }
  os << static_cast<int>(statistic_.kind) << " " << statistic_.value_col
     << " " << statistic_.label_value << " "
     << statistic_.region_cols.size();
  for (size_t c : statistic_.region_cols) os << " " << c;
  os << "\n";
  os.close();

  // Append the model body via the GBRT's own serializer.
  std::ofstream app(path, std::ios::app);
  std::string model_path = path + ".model";
  SURF_RETURN_IF_ERROR(gbrt->Save(model_path));
  std::ifstream model_in(model_path);
  app << model_in.rdbuf();
  std::remove(model_path.c_str());
  if (!app) return Status::IOError("short write to " + path);
  return Status::OK();
}

StatusOr<Surrogate> Surrogate::Load(const std::string& path) {
  std::ifstream is(path);
  if (!is) return Status::IOError("cannot open " + path);
  std::string magic;
  is >> magic;
  if (magic != "surf-surrogate-v1") {
    return Status::IOError("bad surrogate header in " + path);
  }
  Surrogate surrogate;
  size_t d = 0;
  double min_len = 0.0, max_len = 0.0;
  is >> d >> min_len >> max_len;
  std::vector<double> lo(d), hi(d);
  for (size_t i = 0; i < d; ++i) is >> lo[i] >> hi[i];
  surrogate.space_.bounds = Bounds(lo, hi);
  surrogate.space_.min_half_length = min_len;
  surrogate.space_.max_half_length = max_len;

  int kind = 0, value_col = -1;
  double label = 0.0;
  size_t n_cols = 0;
  is >> kind >> value_col >> label >> n_cols;
  surrogate.statistic_.kind = static_cast<StatisticKind>(kind);
  surrogate.statistic_.value_col = value_col;
  surrogate.statistic_.label_value = label;
  surrogate.statistic_.region_cols.resize(n_cols);
  for (auto& c : surrogate.statistic_.region_cols) is >> c;
  if (!is) return Status::IOError("truncated surrogate file " + path);

  // Remaining stream is the GBRT body; hand it to the model loader via a
  // temp copy of the remainder.
  std::string rest((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  const std::string tmp = path + ".tmp-load";
  {
    std::ofstream out(tmp);
    // Skip leading whitespace/newline.
    size_t start = rest.find_first_not_of(" \n\t\r");
    out << (start == std::string::npos ? "" : rest.substr(start));
  }
  auto model = GradientBoostedTrees::Load(tmp);
  std::remove(tmp.c_str());
  if (!model.ok()) return model.status();
  surrogate.model_ =
      std::make_shared<GradientBoostedTrees>(std::move(model).value());
  return surrogate;
}

}  // namespace surf
