#include "net/json_codec.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "api/api.h"

namespace surf {

namespace {

// ---------------------------------------------------------------- readers
// Field readers share one convention: an absent key keeps the caller's
// default (so minimal HTTP payloads work), a present key of the wrong
// type is an InvalidArgument.

Status TypeError(const char* key, const char* expected) {
  return Status::InvalidArgument(std::string("field '") + key +
                                 "' must be " + expected);
}

Status ReadBool(const JsonValue& obj, const char* key, bool* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_bool()) return TypeError(key, "a boolean");
  *out = v->bool_value();
  return Status::OK();
}

Status ReadDouble(const JsonValue& obj, const char* key, double* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_number()) return TypeError(key, "a number");
  *out = v->number_value();
  return Status::OK();
}

/// null ⇒ NaN (the encoding WriteJson gives non-finite doubles).
Status ReadDoubleOrNull(const JsonValue& obj, const char* key, double* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (v->is_null()) {
    *out = std::numeric_limits<double>::quiet_NaN();
    return Status::OK();
  }
  if (!v->is_number()) return TypeError(key, "a number or null");
  *out = v->number_value();
  return Status::OK();
}

Status ReadU64(const JsonValue& obj, const char* key, uint64_t* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_number()) return TypeError(key, "a non-negative integer");
  const double d = v->number_value();
  if (d < 0 || d != std::floor(d) || d > 9.007199254740992e15) {
    return TypeError(key, "a non-negative integer (within 2^53)");
  }
  *out = static_cast<uint64_t>(d);
  return Status::OK();
}

Status ReadSize(const JsonValue& obj, const char* key, size_t* out) {
  uint64_t v = *out;
  SURF_RETURN_IF_ERROR(ReadU64(obj, key, &v));
  *out = static_cast<size_t>(v);
  return Status::OK();
}

Status ReadString(const JsonValue& obj, const char* key, std::string* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_string()) return TypeError(key, "a string");
  *out = v->string_value();
  return Status::OK();
}

StatusOr<std::vector<double>> NumberArray(const JsonValue& v,
                                          const char* key) {
  if (!v.is_array()) return TypeError(key, "an array of numbers");
  std::vector<double> out;
  out.reserve(v.array().size());
  for (const JsonValue& e : v.array()) {
    if (!e.is_number()) return TypeError(key, "an array of numbers");
    out.push_back(e.number_value());
  }
  return out;
}

Status ReadDoubleArray(const JsonValue& obj, const char* key,
                       std::vector<double>* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  auto parsed = NumberArray(*v, key);
  if (!parsed.ok()) return parsed.status();
  *out = std::move(parsed).value();
  return Status::OK();
}

/// True when a JSON number is a non-negative integer small enough to
/// cast to an unsigned type without UB (the same 2^53 exactness bound
/// ReadU64 enforces).
bool IsCastableIndex(const JsonValue& v) {
  return v.is_number() && v.number_value() >= 0 &&
         v.number_value() == std::floor(v.number_value()) &&
         v.number_value() <= 9.007199254740992e15;
}

Status ReadSizeArray(const JsonValue& obj, const char* key,
                     std::vector<size_t>* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_array()) return TypeError(key, "an array of integers");
  std::vector<size_t> parsed;
  parsed.reserve(v->array().size());
  for (const JsonValue& e : v->array()) {
    if (!IsCastableIndex(e)) {
      return TypeError(key, "an array of non-negative integers");
    }
    parsed.push_back(static_cast<size_t>(e.number_value()));
  }
  *out = std::move(parsed);
  return Status::OK();
}

JsonValue DoubleArray(const std::vector<double>& v) {
  JsonValue arr = JsonValue::Array();
  for (double x : v) arr.Append(JsonValue(x));
  return arr;
}

JsonValue SizeArray(const std::vector<size_t>& v) {
  JsonValue arr = JsonValue::Array();
  for (size_t x : v) arr.Append(JsonValue(static_cast<double>(x)));
  return arr;
}

// ------------------------------------------------------------------ enums

const char* DirectionName(ThresholdDirection d) {
  return d == ThresholdDirection::kBelow ? "below" : "above";
}

StatusOr<ThresholdDirection> DirectionFromName(const std::string& name) {
  if (name == "above") return ThresholdDirection::kAbove;
  if (name == "below") return ThresholdDirection::kBelow;
  return Status::InvalidArgument("unknown direction '" + name +
                                 "' (above|below)");
}

const char* QueryKindName(v2::QueryKind kind) {
  return kind == v2::QueryKind::kTopK ? "topk" : "threshold";
}

StatusOr<v2::QueryKind> QueryKindFromName(const std::string& name) {
  if (name == "threshold") return v2::QueryKind::kThreshold;
  if (name == "topk") return v2::QueryKind::kTopK;
  return Status::InvalidArgument("unknown query kind '" + name +
                                 "' (threshold|topk)");
}

const char* BackendName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kScan: return "scan";
    case BackendKind::kGridIndex: return "grid_index";
  }
  return "grid_index";
}

StatusOr<BackendKind> BackendFromName(const std::string& name) {
  if (name == "scan") return BackendKind::kScan;
  if (name == "grid_index") return BackendKind::kGridIndex;
  return Status::InvalidArgument(
      "unknown backend '" + name + "' (scan|grid_index)");
}

StatusOr<StatisticKind> StatisticKindFromName(const std::string& name) {
  if (name == "count") return StatisticKind::kCount;
  if (name == "avg" || name == "average") return StatisticKind::kAverage;
  if (name == "sum") return StatisticKind::kSum;
  if (name == "median") return StatisticKind::kMedian;
  if (name == "variance" || name == "var") return StatisticKind::kVariance;
  if (name == "ratio" || name == "label_ratio") {
    return StatisticKind::kLabelRatio;
  }
  return Status::InvalidArgument("unknown statistic kind '" + name + "'");
}

// ----------------------------------------------------- nested struct codecs

JsonValue GsoToJson(const GsoParams& p) {
  JsonValue obj = JsonValue::Object();
  obj.Set("num_glowworms", JsonValue(static_cast<double>(p.num_glowworms)));
  obj.Set("max_iterations", JsonValue(static_cast<double>(p.max_iterations)));
  obj.Set("luciferin_decay", JsonValue(p.luciferin_decay));
  obj.Set("luciferin_gain", JsonValue(p.luciferin_gain));
  obj.Set("initial_luciferin", JsonValue(p.initial_luciferin));
  obj.Set("initial_radius_frac", JsonValue(p.initial_radius_frac));
  obj.Set("sensor_radius_frac", JsonValue(p.sensor_radius_frac));
  obj.Set("radius_beta", JsonValue(p.radius_beta));
  obj.Set("desired_neighbors",
          JsonValue(static_cast<double>(p.desired_neighbors)));
  obj.Set("step_frac", JsonValue(p.step_frac));
  obj.Set("convergence_tol_frac", JsonValue(p.convergence_tol_frac));
  obj.Set("convergence_window",
          JsonValue(static_cast<double>(p.convergence_window)));
  obj.Set("exploration_restart_prob",
          JsonValue(p.exploration_restart_prob));
  obj.Set("kde_seeded_fraction", JsonValue(p.kde_seeded_fraction));
  obj.Set("kde_mass_guidance", JsonValue(p.kde_mass_guidance));
  obj.Set("seed", JsonValue(static_cast<double>(p.seed)));
  return obj;
}

Status GsoFromJson(const JsonValue& obj, GsoParams* p) {
  if (!obj.is_object()) return TypeError("gso", "an object");
  SURF_RETURN_IF_ERROR(ReadSize(obj, "num_glowworms", &p->num_glowworms));
  SURF_RETURN_IF_ERROR(ReadSize(obj, "max_iterations", &p->max_iterations));
  SURF_RETURN_IF_ERROR(ReadDouble(obj, "luciferin_decay", &p->luciferin_decay));
  SURF_RETURN_IF_ERROR(ReadDouble(obj, "luciferin_gain", &p->luciferin_gain));
  SURF_RETURN_IF_ERROR(
      ReadDouble(obj, "initial_luciferin", &p->initial_luciferin));
  SURF_RETURN_IF_ERROR(
      ReadDouble(obj, "initial_radius_frac", &p->initial_radius_frac));
  SURF_RETURN_IF_ERROR(
      ReadDouble(obj, "sensor_radius_frac", &p->sensor_radius_frac));
  SURF_RETURN_IF_ERROR(ReadDouble(obj, "radius_beta", &p->radius_beta));
  SURF_RETURN_IF_ERROR(
      ReadSize(obj, "desired_neighbors", &p->desired_neighbors));
  SURF_RETURN_IF_ERROR(ReadDouble(obj, "step_frac", &p->step_frac));
  SURF_RETURN_IF_ERROR(
      ReadDouble(obj, "convergence_tol_frac", &p->convergence_tol_frac));
  SURF_RETURN_IF_ERROR(
      ReadSize(obj, "convergence_window", &p->convergence_window));
  SURF_RETURN_IF_ERROR(ReadDouble(obj, "exploration_restart_prob",
                                  &p->exploration_restart_prob));
  SURF_RETURN_IF_ERROR(
      ReadDouble(obj, "kde_seeded_fraction", &p->kde_seeded_fraction));
  SURF_RETURN_IF_ERROR(
      ReadBool(obj, "kde_mass_guidance", &p->kde_mass_guidance));
  SURF_RETURN_IF_ERROR(ReadU64(obj, "seed", &p->seed));
  return Status::OK();
}

JsonValue GbrtToJson(const GbrtParams& p) {
  JsonValue obj = JsonValue::Object();
  obj.Set("learning_rate", JsonValue(p.learning_rate));
  obj.Set("n_estimators", JsonValue(static_cast<double>(p.n_estimators)));
  obj.Set("max_depth", JsonValue(static_cast<double>(p.max_depth)));
  obj.Set("reg_lambda", JsonValue(p.reg_lambda));
  obj.Set("min_child_weight", JsonValue(p.min_child_weight));
  obj.Set("min_split_gain", JsonValue(p.min_split_gain));
  obj.Set("min_samples_leaf",
          JsonValue(static_cast<double>(p.min_samples_leaf)));
  obj.Set("subsample", JsonValue(p.subsample));
  obj.Set("colsample", JsonValue(p.colsample));
  obj.Set("max_bins", JsonValue(static_cast<double>(p.max_bins)));
  obj.Set("early_stopping_rounds",
          JsonValue(static_cast<double>(p.early_stopping_rounds)));
  obj.Set("validation_fraction", JsonValue(p.validation_fraction));
  obj.Set("seed", JsonValue(static_cast<double>(p.seed)));
  return obj;
}

Status GbrtFromJson(const JsonValue& obj, GbrtParams* p) {
  if (!obj.is_object()) return TypeError("gbrt", "an object");
  SURF_RETURN_IF_ERROR(ReadDouble(obj, "learning_rate", &p->learning_rate));
  SURF_RETURN_IF_ERROR(ReadSize(obj, "n_estimators", &p->n_estimators));
  SURF_RETURN_IF_ERROR(ReadSize(obj, "max_depth", &p->max_depth));
  SURF_RETURN_IF_ERROR(ReadDouble(obj, "reg_lambda", &p->reg_lambda));
  SURF_RETURN_IF_ERROR(
      ReadDouble(obj, "min_child_weight", &p->min_child_weight));
  SURF_RETURN_IF_ERROR(ReadDouble(obj, "min_split_gain", &p->min_split_gain));
  SURF_RETURN_IF_ERROR(
      ReadSize(obj, "min_samples_leaf", &p->min_samples_leaf));
  SURF_RETURN_IF_ERROR(ReadDouble(obj, "subsample", &p->subsample));
  SURF_RETURN_IF_ERROR(ReadDouble(obj, "colsample", &p->colsample));
  SURF_RETURN_IF_ERROR(ReadSize(obj, "max_bins", &p->max_bins));
  SURF_RETURN_IF_ERROR(
      ReadSize(obj, "early_stopping_rounds", &p->early_stopping_rounds));
  SURF_RETURN_IF_ERROR(
      ReadDouble(obj, "validation_fraction", &p->validation_fraction));
  SURF_RETURN_IF_ERROR(ReadU64(obj, "seed", &p->seed));
  return Status::OK();
}

JsonValue GridToJson(const GridSearchSpace& g) {
  JsonValue obj = JsonValue::Object();
  obj.Set("learning_rates", DoubleArray(g.learning_rates));
  obj.Set("max_depths", SizeArray(g.max_depths));
  obj.Set("n_estimators", SizeArray(g.n_estimators));
  obj.Set("reg_lambdas", DoubleArray(g.reg_lambdas));
  return obj;
}

Status GridFromJson(const JsonValue& obj, GridSearchSpace* g) {
  if (!obj.is_object()) return TypeError("grid", "an object");
  SURF_RETURN_IF_ERROR(
      ReadDoubleArray(obj, "learning_rates", &g->learning_rates));
  SURF_RETURN_IF_ERROR(ReadSizeArray(obj, "max_depths", &g->max_depths));
  SURF_RETURN_IF_ERROR(ReadSizeArray(obj, "n_estimators", &g->n_estimators));
  SURF_RETURN_IF_ERROR(ReadDoubleArray(obj, "reg_lambdas", &g->reg_lambdas));
  return Status::OK();
}

JsonValue WorkloadToJson(const WorkloadParams& w) {
  JsonValue obj = JsonValue::Object();
  obj.Set("num_queries", JsonValue(static_cast<double>(w.num_queries)));
  obj.Set("min_length_frac", JsonValue(w.min_length_frac));
  obj.Set("max_length_frac", JsonValue(w.max_length_frac));
  obj.Set("drop_undefined", JsonValue(w.drop_undefined));
  obj.Set("seed", JsonValue(static_cast<double>(w.seed)));
  return obj;
}

Status WorkloadFromJson(const JsonValue& obj, WorkloadParams* w) {
  if (!obj.is_object()) return TypeError("workload", "an object");
  SURF_RETURN_IF_ERROR(ReadSize(obj, "num_queries", &w->num_queries));
  SURF_RETURN_IF_ERROR(
      ReadDouble(obj, "min_length_frac", &w->min_length_frac));
  SURF_RETURN_IF_ERROR(
      ReadDouble(obj, "max_length_frac", &w->max_length_frac));
  SURF_RETURN_IF_ERROR(ReadBool(obj, "drop_undefined", &w->drop_undefined));
  SURF_RETURN_IF_ERROR(ReadU64(obj, "seed", &w->seed));
  return Status::OK();
}

JsonValue SurrogateOptionsToJson(const SurrogateTrainOptions& s) {
  JsonValue obj = JsonValue::Object();
  obj.Set("gbrt", GbrtToJson(s.gbrt));
  obj.Set("hypertune", JsonValue(s.hypertune));
  obj.Set("grid", GridToJson(s.grid));
  obj.Set("cv_folds", JsonValue(static_cast<double>(s.cv_folds)));
  obj.Set("test_fraction", JsonValue(s.test_fraction));
  obj.Set("seed", JsonValue(static_cast<double>(s.seed)));
  return obj;
}

Status SurrogateOptionsFromJson(const JsonValue& obj,
                                SurrogateTrainOptions* s) {
  if (!obj.is_object()) return TypeError("surrogate", "an object");
  if (const JsonValue* gbrt = obj.Find("gbrt")) {
    SURF_RETURN_IF_ERROR(GbrtFromJson(*gbrt, &s->gbrt));
  }
  SURF_RETURN_IF_ERROR(ReadBool(obj, "hypertune", &s->hypertune));
  if (const JsonValue* grid = obj.Find("grid")) {
    SURF_RETURN_IF_ERROR(GridFromJson(*grid, &s->grid));
  }
  SURF_RETURN_IF_ERROR(ReadSize(obj, "cv_folds", &s->cv_folds));
  SURF_RETURN_IF_ERROR(ReadDouble(obj, "test_fraction", &s->test_fraction));
  SURF_RETURN_IF_ERROR(ReadU64(obj, "seed", &s->seed));
  return Status::OK();
}

JsonValue FinderToJson(const FinderConfig& f) {
  JsonValue obj = JsonValue::Object();
  obj.Set("gso", GsoToJson(f.gso));
  obj.Set("auto_scale_gso", JsonValue(f.auto_scale_gso));
  obj.Set("c", JsonValue(f.c));
  obj.Set("use_log_objective", JsonValue(f.use_log_objective));
  obj.Set("nms_max_iou", JsonValue(f.nms_max_iou));
  obj.Set("max_regions", JsonValue(static_cast<double>(f.max_regions)));
  obj.Set("use_kde_guidance", JsonValue(f.use_kde_guidance));
  obj.Set("use_kde_seeding", JsonValue(f.use_kde_seeding));
  return obj;
}

Status FinderFromJson(const JsonValue& obj, FinderConfig* f) {
  if (!obj.is_object()) return TypeError("finder", "an object");
  if (const JsonValue* gso = obj.Find("gso")) {
    SURF_RETURN_IF_ERROR(GsoFromJson(*gso, &f->gso));
  }
  SURF_RETURN_IF_ERROR(ReadBool(obj, "auto_scale_gso", &f->auto_scale_gso));
  SURF_RETURN_IF_ERROR(ReadDouble(obj, "c", &f->c));
  SURF_RETURN_IF_ERROR(
      ReadBool(obj, "use_log_objective", &f->use_log_objective));
  SURF_RETURN_IF_ERROR(ReadDouble(obj, "nms_max_iou", &f->nms_max_iou));
  SURF_RETURN_IF_ERROR(ReadSize(obj, "max_regions", &f->max_regions));
  SURF_RETURN_IF_ERROR(
      ReadBool(obj, "use_kde_guidance", &f->use_kde_guidance));
  SURF_RETURN_IF_ERROR(ReadBool(obj, "use_kde_seeding", &f->use_kde_seeding));
  return Status::OK();
}

JsonValue TopKToJson(const TopKConfig& t) {
  JsonValue obj = JsonValue::Object();
  obj.Set("k", JsonValue(static_cast<double>(t.k)));
  obj.Set("c", JsonValue(t.c));
  obj.Set("nms_max_iou", JsonValue(t.nms_max_iou));
  obj.Set("gso", GsoToJson(t.gso));
  return obj;
}

Status TopKFromJson(const JsonValue& obj, TopKConfig* t) {
  if (!obj.is_object()) return TypeError("topk", "an object");
  SURF_RETURN_IF_ERROR(ReadSize(obj, "k", &t->k));
  SURF_RETURN_IF_ERROR(ReadDouble(obj, "c", &t->c));
  SURF_RETURN_IF_ERROR(ReadDouble(obj, "nms_max_iou", &t->nms_max_iou));
  if (const JsonValue* gso = obj.Find("gso")) {
    SURF_RETURN_IF_ERROR(GsoFromJson(*gso, &t->gso));
  }
  return Status::OK();
}

JsonValue StatisticToJson(const Statistic& s) {
  JsonValue obj = JsonValue::Object();
  obj.Set("kind", JsonValue(StatisticKindName(s.kind)));
  obj.Set("region_cols", SizeArray(s.region_cols));
  obj.Set("value_col", JsonValue(static_cast<double>(s.value_col)));
  obj.Set("label_value", JsonValue(s.label_value));
  return obj;
}

Status StatisticFromJson(const JsonValue& obj, const std::string& dataset,
                         const ColumnResolver* resolver, Statistic* s) {
  if (!obj.is_object()) return TypeError("statistic", "an object");
  std::string kind = StatisticKindName(s->kind);
  SURF_RETURN_IF_ERROR(ReadString(obj, "kind", &kind));
  auto parsed_kind = StatisticKindFromName(kind);
  if (!parsed_kind.ok()) return parsed_kind.status();
  s->kind = *parsed_kind;

  if (const JsonValue* cols = obj.Find("region_cols")) {
    if (!cols->is_array()) {
      return TypeError("region_cols", "an array of indices or column names");
    }
    std::vector<size_t> indices;
    indices.reserve(cols->array().size());
    for (const JsonValue& e : cols->array()) {
      if (IsCastableIndex(e)) {
        indices.push_back(static_cast<size_t>(e.number_value()));
      } else if (e.is_string()) {
        if (resolver == nullptr) {
          return Status::InvalidArgument(
              "region_cols by name requires a registered dataset");
        }
        const int idx = (*resolver)(dataset, e.string_value());
        if (idx < 0) {
          return Status::InvalidArgument("unknown column '" +
                                         e.string_value() + "' in dataset '" +
                                         dataset + "'");
        }
        indices.push_back(static_cast<size_t>(idx));
      } else {
        return TypeError("region_cols",
                         "an array of indices or column names");
      }
    }
    s->region_cols = std::move(indices);
  }

  if (const JsonValue* vc = obj.Find("value_col")) {
    // -1 is the legal "no value column" sentinel; anything else must be
    // a castable column index.
    if (vc->is_number() && vc->number_value() == -1.0) {
      s->value_col = -1;
    } else if (IsCastableIndex(*vc) &&
               vc->number_value() <= 2147483647.0) {
      s->value_col = static_cast<int>(vc->number_value());
    } else if (vc->is_string()) {
      if (resolver == nullptr) {
        return Status::InvalidArgument(
            "value_col by name requires a registered dataset");
      }
      const int idx = (*resolver)(dataset, vc->string_value());
      if (idx < 0) {
        return Status::InvalidArgument("unknown column '" +
                                       vc->string_value() + "' in dataset '" +
                                       dataset + "'");
      }
      s->value_col = idx;
    } else {
      return TypeError("value_col", "an index or column name");
    }
  }
  SURF_RETURN_IF_ERROR(ReadDouble(obj, "label_value", &s->label_value));
  return Status::OK();
}

JsonValue FoundRegionToJson(const FoundRegion& r) {
  JsonValue obj = JsonValue::Object();
  obj.Set("region", RegionToJson(r.region));
  obj.Set("fitness", JsonValue(r.fitness));
  obj.Set("estimate", JsonValue(r.estimate));
  obj.Set("true_value", JsonValue(r.true_value));
  obj.Set("complies_true", JsonValue(r.complies_true));
  return obj;
}

StatusOr<FoundRegion> FoundRegionFromJson(const JsonValue& obj) {
  if (!obj.is_object()) return TypeError("regions[]", "an object");
  FoundRegion r;
  const JsonValue* region = obj.Find("region");
  if (region == nullptr) return TypeError("region", "present");
  auto parsed = RegionFromJson(*region);
  if (!parsed.ok()) return parsed.status();
  r.region = std::move(parsed).value();
  SURF_RETURN_IF_ERROR(ReadDouble(obj, "fitness", &r.fitness));
  SURF_RETURN_IF_ERROR(ReadDouble(obj, "estimate", &r.estimate));
  SURF_RETURN_IF_ERROR(ReadDoubleOrNull(obj, "true_value", &r.true_value));
  SURF_RETURN_IF_ERROR(ReadBool(obj, "complies_true", &r.complies_true));
  return r;
}

JsonValue ReportToJson(const FindReport& r) {
  JsonValue obj = JsonValue::Object();
  obj.Set("seconds", JsonValue(r.seconds));
  obj.Set("iterations", JsonValue(static_cast<double>(r.iterations)));
  obj.Set("objective_evaluations",
          JsonValue(static_cast<double>(r.objective_evaluations)));
  obj.Set("particle_valid_fraction", JsonValue(r.particle_valid_fraction));
  obj.Set("converged", JsonValue(r.converged));
  obj.Set("cancelled", JsonValue(r.cancelled));
  obj.Set("true_compliance", JsonValue(r.true_compliance));
  return obj;
}

Status ReportFromJson(const JsonValue& obj, FindReport* r) {
  if (!obj.is_object()) return TypeError("report", "an object");
  SURF_RETURN_IF_ERROR(ReadDouble(obj, "seconds", &r->seconds));
  SURF_RETURN_IF_ERROR(ReadSize(obj, "iterations", &r->iterations));
  uint64_t evals = r->objective_evaluations;
  SURF_RETURN_IF_ERROR(ReadU64(obj, "objective_evaluations", &evals));
  r->objective_evaluations = evals;
  SURF_RETURN_IF_ERROR(ReadDouble(obj, "particle_valid_fraction",
                                  &r->particle_valid_fraction));
  SURF_RETURN_IF_ERROR(ReadBool(obj, "converged", &r->converged));
  SURF_RETURN_IF_ERROR(ReadBool(obj, "cancelled", &r->cancelled));
  SURF_RETURN_IF_ERROR(
      ReadDouble(obj, "true_compliance", &r->true_compliance));
  return Status::OK();
}

}  // namespace

// ------------------------------------------------------------ status codes

int HttpStatusFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kOutOfRange: return 400;
    case StatusCode::kFailedPrecondition: return 412;
    case StatusCode::kIOError: return 500;
    case StatusCode::kTimedOut: return 408;
    case StatusCode::kInternal: return 500;
    case StatusCode::kAlreadyExists: return 409;
    // Cancellation surfaces as 408: the dominant producer is a deadline
    // (transport or execution.deadline_seconds) firing mid-request.
    case StatusCode::kCancelled: return 408;
    // Fail-fast refusals (open circuit breaker): the client should back
    // off and retry later (Retry-After rides along on the response).
    case StatusCode::kUnavailable: return 503;
  }
  return 500;
}

std::string StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kOutOfRange: return "out_of_range";
    case StatusCode::kFailedPrecondition: return "failed_precondition";
    case StatusCode::kIOError: return "io_error";
    case StatusCode::kTimedOut: return "timed_out";
    case StatusCode::kInternal: return "internal";
    case StatusCode::kAlreadyExists: return "already_exists";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kUnavailable: return "unavailable";
  }
  return "internal";
}

namespace {

StatusOr<StatusCode> StatusCodeFromName(const std::string& name) {
  if (name == "ok") return StatusCode::kOk;
  if (name == "invalid_argument") return StatusCode::kInvalidArgument;
  if (name == "not_found") return StatusCode::kNotFound;
  if (name == "out_of_range") return StatusCode::kOutOfRange;
  if (name == "failed_precondition") return StatusCode::kFailedPrecondition;
  if (name == "io_error") return StatusCode::kIOError;
  if (name == "timed_out") return StatusCode::kTimedOut;
  if (name == "internal") return StatusCode::kInternal;
  if (name == "already_exists") return StatusCode::kAlreadyExists;
  if (name == "cancelled") return StatusCode::kCancelled;
  if (name == "unavailable") return StatusCode::kUnavailable;
  return Status::InvalidArgument("unknown status code '" + name + "'");
}

}  // namespace

JsonValue StatusToJson(const Status& status) {
  JsonValue obj = JsonValue::Object();
  obj.Set("code", JsonValue(StatusCodeName(status.code())));
  obj.Set("message", JsonValue(status.message()));
  return obj;
}

Status StatusFromJson(const JsonValue& json, Status* out) {
  if (!json.is_object()) return TypeError("status", "an object");
  std::string code = "ok";
  std::string message;
  SURF_RETURN_IF_ERROR(ReadString(json, "code", &code));
  SURF_RETURN_IF_ERROR(ReadString(json, "message", &message));
  auto parsed = StatusCodeFromName(code);
  if (!parsed.ok()) return parsed.status();
  *out = *parsed == StatusCode::kOk ? Status::OK()
                                    : Status(*parsed, std::move(message));
  return Status::OK();
}

// ----------------------------------------------------------------- regions

JsonValue RegionToJson(const Region& region) {
  JsonValue obj = JsonValue::Object();
  obj.Set("center", DoubleArray(region.center()));
  obj.Set("half_lengths", DoubleArray(region.half_lengths()));
  std::vector<double> lo(region.dims()), hi(region.dims());
  for (size_t i = 0; i < region.dims(); ++i) {
    lo[i] = region.lo(i);
    hi[i] = region.hi(i);
  }
  obj.Set("lo", DoubleArray(lo));
  obj.Set("hi", DoubleArray(hi));
  return obj;
}

StatusOr<Region> RegionFromJson(const JsonValue& json) {
  if (!json.is_object()) return TypeError("region", "an object");
  std::vector<double> center;
  std::vector<double> half_lengths;
  SURF_RETURN_IF_ERROR(ReadDoubleArray(json, "center", &center));
  SURF_RETURN_IF_ERROR(ReadDoubleArray(json, "half_lengths", &half_lengths));
  if (center.empty() || center.size() != half_lengths.size()) {
    return Status::InvalidArgument(
        "region needs equal-length non-empty center and half_lengths");
  }
  return Region(std::move(center), std::move(half_lengths));
}

// -------------------------------------------------------------- provenance

JsonValue ProvenanceToJson(const SurrogateProvenance& provenance) {
  JsonValue obj = JsonValue::Object();
  char hex[24];
  std::snprintf(hex, sizeof(hex), "0x%016" PRIx64,
                provenance.dataset_fingerprint);
  obj.Set("dataset_fingerprint", JsonValue(std::string(hex)));
  obj.Set("training_set_size",
          JsonValue(static_cast<double>(provenance.training_set_size)));
  obj.Set("cv_rmse", JsonValue(provenance.cv_rmse));
  obj.Set("holdout_rmse", JsonValue(provenance.holdout_rmse));
  obj.Set("train_seconds", JsonValue(provenance.train_seconds));
  obj.Set("warm_starts",
          JsonValue(static_cast<double>(provenance.warm_starts)));
  obj.Set("pending_examples",
          JsonValue(static_cast<double>(provenance.pending_examples)));
  // Only emitted when set, so non-degraded payloads stay byte-identical
  // to the pre-degradation schema (absent ⇒ false on decode).
  if (provenance.degraded) {
    obj.Set("degraded", JsonValue(true));
    obj.Set("degraded_reason", JsonValue(provenance.degraded_reason));
  }
  return obj;
}

StatusOr<SurrogateProvenance> ProvenanceFromJson(const JsonValue& json) {
  if (!json.is_object()) return TypeError("provenance", "an object");
  SurrogateProvenance p;
  std::string fingerprint = "0x0000000000000000";
  SURF_RETURN_IF_ERROR(
      ReadString(json, "dataset_fingerprint", &fingerprint));
  char* end = nullptr;
  p.dataset_fingerprint = std::strtoull(fingerprint.c_str(), &end, 16);
  if (end == fingerprint.c_str() || *end != '\0') {
    return Status::InvalidArgument("invalid dataset_fingerprint '" +
                                   fingerprint + "'");
  }
  SURF_RETURN_IF_ERROR(
      ReadSize(json, "training_set_size", &p.training_set_size));
  SURF_RETURN_IF_ERROR(ReadDoubleOrNull(json, "cv_rmse", &p.cv_rmse));
  SURF_RETURN_IF_ERROR(ReadDouble(json, "holdout_rmse", &p.holdout_rmse));
  SURF_RETURN_IF_ERROR(ReadDouble(json, "train_seconds", &p.train_seconds));
  SURF_RETURN_IF_ERROR(ReadSize(json, "warm_starts", &p.warm_starts));
  SURF_RETURN_IF_ERROR(
      ReadSize(json, "pending_examples", &p.pending_examples));
  // Optional on the wire (absent in pre-degradation payloads ⇒ false).
  SURF_RETURN_IF_ERROR(ReadBool(json, "degraded", &p.degraded));
  SURF_RETURN_IF_ERROR(
      ReadString(json, "degraded_reason", &p.degraded_reason));
  return p;
}

// ------------------------------------------------------ v1 flat schema

namespace {

/// Translates a flat v1 document (every field at the top level, the
/// query kind under `mode`) into a MineRequest with `api_version = 1`.
/// Absent fields keep the struct defaults, which match v1's.
StatusOr<v2::MineRequest> MineRequestFromJson(const JsonValue& json,
                                              const ColumnResolver* resolver) {
  v2::MineRequest request;
  request.api_version = 1;
  SURF_RETURN_IF_ERROR(ReadString(json, "dataset", &request.dataset));
  if (request.dataset.empty()) {
    return Status::InvalidArgument("field 'dataset' is required");
  }
  v2::QuerySpec& query = request.query;
  if (const JsonValue* stat = json.Find("statistic")) {
    SURF_RETURN_IF_ERROR(
        StatisticFromJson(*stat, request.dataset, resolver, &query.statistic));
  }
  if (query.statistic.region_cols.empty()) {
    return Status::InvalidArgument(
        "statistic.region_cols must name at least one column");
  }
  SURF_RETURN_IF_ERROR(ReadDouble(json, "threshold", &query.threshold));
  std::string direction = DirectionName(query.direction);
  SURF_RETURN_IF_ERROR(ReadString(json, "direction", &direction));
  auto parsed_direction = DirectionFromName(direction);
  if (!parsed_direction.ok()) return parsed_direction.status();
  query.direction = *parsed_direction;

  std::string mode = QueryKindName(query.kind);
  SURF_RETURN_IF_ERROR(ReadString(json, "mode", &mode));
  auto parsed_kind = QueryKindFromName(mode);
  if (!parsed_kind.ok()) {
    return Status::InvalidArgument("unknown mode '" + mode +
                                   "' (threshold|topk)");
  }
  query.kind = *parsed_kind;

  if (const JsonValue* topk = json.Find("topk")) {
    SURF_RETURN_IF_ERROR(TopKFromJson(*topk, &request.search.topk));
  }
  if (const JsonValue* finder = json.Find("finder")) {
    SURF_RETURN_IF_ERROR(FinderFromJson(*finder, &request.search.finder));
  }
  if (const JsonValue* workload = json.Find("workload")) {
    SURF_RETURN_IF_ERROR(
        WorkloadFromJson(*workload, &request.training.workload));
  }
  if (const JsonValue* surrogate = json.Find("surrogate")) {
    SURF_RETURN_IF_ERROR(
        SurrogateOptionsFromJson(*surrogate, &request.training.surrogate));
  }
  v2::ExecutionPolicy& execution = request.execution;
  std::string backend = BackendName(execution.backend);
  SURF_RETURN_IF_ERROR(ReadString(json, "backend", &backend));
  auto parsed_backend = BackendFromName(backend);
  if (!parsed_backend.ok()) return parsed_backend.status();
  execution.backend = *parsed_backend;

  SURF_RETURN_IF_ERROR(ReadSize(json, "shards", &execution.shards));
  SURF_RETURN_IF_ERROR(ReadBool(json, "cluster", &execution.cluster));
  SURF_RETURN_IF_ERROR(ReadBool(json, "use_kde", &execution.use_kde));
  SURF_RETURN_IF_ERROR(ReadBool(json, "validate", &execution.validate));
  SURF_RETURN_IF_ERROR(
      ReadBool(json, "record_evaluations", &execution.record_evaluations));
  SURF_RETURN_IF_ERROR(ReadBool(json, "trace", &execution.trace));
  return request;
}

}  // namespace

// ------------------------------------------------------------ MineRequest

JsonValue MineRequestV2ToJson(const v2::MineRequest& request) {
  JsonValue obj = JsonValue::Object();
  obj.Set("api_version",
          JsonValue(static_cast<double>(request.api_version)));
  obj.Set("dataset", JsonValue(request.dataset));

  JsonValue query = JsonValue::Object();
  query.Set("statistic", StatisticToJson(request.query.statistic));
  query.Set("kind", JsonValue(QueryKindName(request.query.kind)));
  query.Set("threshold", JsonValue(request.query.threshold));
  query.Set("direction", JsonValue(DirectionName(request.query.direction)));
  obj.Set("query", std::move(query));

  JsonValue search = JsonValue::Object();
  search.Set("finder", FinderToJson(request.search.finder));
  search.Set("topk", TopKToJson(request.search.topk));
  obj.Set("search", std::move(search));

  JsonValue training = JsonValue::Object();
  training.Set("workload", WorkloadToJson(request.training.workload));
  training.Set("surrogate",
               SurrogateOptionsToJson(request.training.surrogate));
  obj.Set("training", std::move(training));

  JsonValue execution = JsonValue::Object();
  execution.Set("backend", JsonValue(BackendName(request.execution.backend)));
  execution.Set("shards",
                JsonValue(static_cast<double>(request.execution.shards)));
  execution.Set("cluster", JsonValue(request.execution.cluster));
  execution.Set("use_kde", JsonValue(request.execution.use_kde));
  execution.Set("validate", JsonValue(request.execution.validate));
  execution.Set("record_evaluations",
                JsonValue(request.execution.record_evaluations));
  execution.Set("deadline_seconds",
                JsonValue(request.execution.deadline_seconds));
  execution.Set("trace", JsonValue(request.execution.trace));
  obj.Set("execution", std::move(execution));
  return obj;
}

StatusOr<v2::MineRequest> MineRequestV2FromJson(
    const JsonValue& json, const ColumnResolver* resolver) {
  if (!json.is_object()) {
    return Status::InvalidArgument("mine request must be a JSON object");
  }
  uint64_t api_version = 1;  // absent = the v1 flat schema
  SURF_RETURN_IF_ERROR(ReadU64(json, "api_version", &api_version));

  if (api_version == 1) {
    auto request = MineRequestFromJson(json, resolver);
    if (!request.ok()) return request;
    // Both schema versions answer 400 at decode time through the same
    // validation path (e.g. record_evaluations without validate).
    SURF_RETURN_IF_ERROR(v2::ValidateAndNormalize(&*request));
    return request;
  }
  if (api_version != 2) {
    return Status::InvalidArgument(
        "unsupported api_version " + std::to_string(api_version) +
        " (this build accepts v1..v2; see GET /v1/version)");
  }

  v2::MineRequest request;
  request.api_version = 2;
  SURF_RETURN_IF_ERROR(ReadString(json, "dataset", &request.dataset));
  if (request.dataset.empty()) {
    return Status::InvalidArgument("field 'dataset' is required");
  }

  if (const JsonValue* query = json.Find("query")) {
    if (!query->is_object()) return TypeError("query", "an object");
    if (const JsonValue* stat = query->Find("statistic")) {
      SURF_RETURN_IF_ERROR(StatisticFromJson(*stat, request.dataset, resolver,
                                             &request.query.statistic));
    }
    std::string kind = QueryKindName(request.query.kind);
    SURF_RETURN_IF_ERROR(ReadString(*query, "kind", &kind));
    auto parsed_kind = QueryKindFromName(kind);
    if (!parsed_kind.ok()) return parsed_kind.status();
    request.query.kind = *parsed_kind;
    SURF_RETURN_IF_ERROR(
        ReadDouble(*query, "threshold", &request.query.threshold));
    std::string direction = DirectionName(request.query.direction);
    SURF_RETURN_IF_ERROR(ReadString(*query, "direction", &direction));
    auto parsed_direction = DirectionFromName(direction);
    if (!parsed_direction.ok()) return parsed_direction.status();
    request.query.direction = *parsed_direction;
  }

  if (const JsonValue* search = json.Find("search")) {
    if (!search->is_object()) return TypeError("search", "an object");
    if (const JsonValue* finder = search->Find("finder")) {
      SURF_RETURN_IF_ERROR(FinderFromJson(*finder, &request.search.finder));
    }
    if (const JsonValue* topk = search->Find("topk")) {
      SURF_RETURN_IF_ERROR(TopKFromJson(*topk, &request.search.topk));
    }
  }

  if (const JsonValue* training = json.Find("training")) {
    if (!training->is_object()) return TypeError("training", "an object");
    if (const JsonValue* workload = training->Find("workload")) {
      SURF_RETURN_IF_ERROR(
          WorkloadFromJson(*workload, &request.training.workload));
    }
    if (const JsonValue* surrogate = training->Find("surrogate")) {
      SURF_RETURN_IF_ERROR(
          SurrogateOptionsFromJson(*surrogate, &request.training.surrogate));
    }
  }

  if (const JsonValue* execution = json.Find("execution")) {
    if (!execution->is_object()) return TypeError("execution", "an object");
    std::string backend = BackendName(request.execution.backend);
    SURF_RETURN_IF_ERROR(ReadString(*execution, "backend", &backend));
    auto parsed_backend = BackendFromName(backend);
    if (!parsed_backend.ok()) return parsed_backend.status();
    request.execution.backend = *parsed_backend;
    SURF_RETURN_IF_ERROR(
        ReadSize(*execution, "shards", &request.execution.shards));
    SURF_RETURN_IF_ERROR(
        ReadBool(*execution, "cluster", &request.execution.cluster));
    SURF_RETURN_IF_ERROR(
        ReadBool(*execution, "use_kde", &request.execution.use_kde));
    SURF_RETURN_IF_ERROR(
        ReadBool(*execution, "validate", &request.execution.validate));
    SURF_RETURN_IF_ERROR(ReadBool(*execution, "record_evaluations",
                                  &request.execution.record_evaluations));
    SURF_RETURN_IF_ERROR(ReadDouble(*execution, "deadline_seconds",
                                    &request.execution.deadline_seconds));
    SURF_RETURN_IF_ERROR(
        ReadBool(*execution, "trace", &request.execution.trace));
  }

  // The shared validation path runs at decode time too, so malformed
  // documents answer 400 before a job is ever created.
  SURF_RETURN_IF_ERROR(v2::ValidateAndNormalize(&request));
  return request;
}

// ----------------------------------------------------------- MineResponse

JsonValue MineResponseV2ToJson(const v2::MineResponse& response,
                               v2::QueryKind kind) {
  JsonValue obj = JsonValue::Object();
  obj.Set("status", StatusToJson(response.status));
  obj.Set("cache_hit", JsonValue(response.cache_hit));
  obj.Set("total_seconds", JsonValue(response.total_seconds));
  obj.Set("provenance", ProvenanceToJson(response.provenance));
  obj.Set("mode", JsonValue(QueryKindName(kind)));
  if (kind == v2::QueryKind::kTopK) {
    JsonValue topk = JsonValue::Object();
    JsonValue regions = JsonValue::Array();
    for (const ScoredRegion& r : response.topk.regions) {
      JsonValue scored = JsonValue::Object();
      scored.Set("region", RegionToJson(r.region));
      scored.Set("fitness", JsonValue(r.fitness));
      scored.Set("statistic", JsonValue(r.statistic));
      regions.Append(std::move(scored));
    }
    topk.Set("regions", std::move(regions));
    topk.Set("iterations",
             JsonValue(static_cast<double>(response.topk.iterations)));
    topk.Set("objective_evaluations",
             JsonValue(static_cast<double>(
                 response.topk.objective_evaluations)));
    topk.Set("cancelled", JsonValue(response.topk.cancelled));
    obj.Set("topk", std::move(topk));
  } else {
    JsonValue encoded = JsonValue::Object();
    JsonValue regions = JsonValue::Array();
    for (const FoundRegion& r : response.result.regions) {
      regions.Append(FoundRegionToJson(r));
    }
    encoded.Set("regions", std::move(regions));
    encoded.Set("report", ReportToJson(response.result.report));
    obj.Set("result", std::move(encoded));
  }
  // The trace block is emitted only for traced requests, so untraced
  // responses stay byte-identical to the pre-tracing schema.
  if (response.trace != nullptr) {
    obj.Set("trace", TraceSummaryToJson(*response.trace));
  }
  obj.Set("api_version",
          JsonValue(static_cast<double>(response.api_version)));
  return obj;
}

StatusOr<v2::MineResponse> MineResponseFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("mine response must be a JSON object");
  }
  v2::MineResponse response;
  uint64_t api_version = static_cast<uint64_t>(response.api_version);
  SURF_RETURN_IF_ERROR(ReadU64(json, "api_version", &api_version));
  if (api_version > static_cast<uint64_t>(kApiVersion)) {
    return Status::InvalidArgument("unsupported response api_version " +
                                   std::to_string(api_version));
  }
  response.api_version = static_cast<int>(api_version);
  if (const JsonValue* status = json.Find("status")) {
    SURF_RETURN_IF_ERROR(StatusFromJson(*status, &response.status));
  }
  SURF_RETURN_IF_ERROR(ReadBool(json, "cache_hit", &response.cache_hit));
  SURF_RETURN_IF_ERROR(
      ReadDouble(json, "total_seconds", &response.total_seconds));
  if (const JsonValue* provenance = json.Find("provenance")) {
    auto parsed = ProvenanceFromJson(*provenance);
    if (!parsed.ok()) return parsed.status();
    response.provenance = *parsed;
  }
  if (const JsonValue* result = json.Find("result")) {
    if (!result->is_object()) return TypeError("result", "an object");
    if (const JsonValue* regions = result->Find("regions")) {
      if (!regions->is_array()) return TypeError("regions", "an array");
      for (const JsonValue& r : regions->array()) {
        auto parsed = FoundRegionFromJson(r);
        if (!parsed.ok()) return parsed.status();
        response.result.regions.push_back(std::move(parsed).value());
      }
    }
    if (const JsonValue* report = result->Find("report")) {
      SURF_RETURN_IF_ERROR(ReportFromJson(*report, &response.result.report));
    }
  }
  if (const JsonValue* topk = json.Find("topk")) {
    if (!topk->is_object()) return TypeError("topk", "an object");
    if (const JsonValue* regions = topk->Find("regions")) {
      if (!regions->is_array()) return TypeError("regions", "an array");
      for (const JsonValue& r : regions->array()) {
        if (!r.is_object()) return TypeError("regions[]", "an object");
        ScoredRegion scored;
        const JsonValue* region = r.Find("region");
        if (region == nullptr) return TypeError("region", "present");
        auto parsed = RegionFromJson(*region);
        if (!parsed.ok()) return parsed.status();
        scored.region = std::move(parsed).value();
        SURF_RETURN_IF_ERROR(ReadDouble(r, "fitness", &scored.fitness));
        SURF_RETURN_IF_ERROR(ReadDouble(r, "statistic", &scored.statistic));
        response.topk.regions.push_back(std::move(scored));
      }
    }
    SURF_RETURN_IF_ERROR(
        ReadSize(*topk, "iterations", &response.topk.iterations));
    uint64_t evals = 0;
    SURF_RETURN_IF_ERROR(ReadU64(*topk, "objective_evaluations", &evals));
    response.topk.objective_evaluations = evals;
    SURF_RETURN_IF_ERROR(
        ReadBool(*topk, "cancelled", &response.topk.cancelled));
  }
  return response;
}

// ------------------------------------------------- distributed evaluation

JsonValue ShardEvaluateRequestToJson(
    const dist::ShardEvaluateRequest& request) {
  JsonValue obj = JsonValue::Object();
  obj.Set("dataset", JsonValue(request.dataset));
  if (request.has_fingerprint) {
    char hex[24];
    std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, request.fingerprint);
    obj.Set("fingerprint", JsonValue(std::string(hex)));
  }
  obj.Set("statistic", StatisticToJson(request.statistic));
  obj.Set("num_shards", JsonValue(static_cast<double>(request.num_shards)));
  obj.Set("order_by", JsonValue(static_cast<double>(request.order_by)));
  obj.Set("columns", SizeArray(request.columns));
  obj.Set("shards", SizeArray(request.shards));
  JsonValue queries = JsonValue::Array();
  for (const Region& q : request.queries) queries.Append(RegionToJson(q));
  obj.Set("queries", std::move(queries));
  obj.Set("deadline_seconds", JsonValue(request.deadline_seconds));
  return obj;
}

StatusOr<dist::ShardEvaluateRequest> ShardEvaluateRequestFromJson(
    const JsonValue& json, const ColumnResolver* resolver) {
  if (!json.is_object()) {
    return Status::InvalidArgument(
        "shard-evaluate request must be a JSON object");
  }
  dist::ShardEvaluateRequest request;
  SURF_RETURN_IF_ERROR(ReadString(json, "dataset", &request.dataset));
  if (request.dataset.empty()) {
    return Status::InvalidArgument("field 'dataset' is required");
  }
  if (const JsonValue* fp = json.Find("fingerprint")) {
    if (!fp->is_string()) return TypeError("fingerprint", "a hex string");
    const std::string text = fp->string_value();
    char* end = nullptr;
    request.fingerprint = std::strtoull(text.c_str(), &end, 16);
    if (end == text.c_str() || *end != '\0') {
      return Status::InvalidArgument("invalid fingerprint '" + text + "'");
    }
    request.has_fingerprint = true;
  }
  if (const JsonValue* stat = json.Find("statistic")) {
    SURF_RETURN_IF_ERROR(StatisticFromJson(*stat, request.dataset, resolver,
                                           &request.statistic));
  }
  if (request.statistic.region_cols.empty()) {
    return Status::InvalidArgument(
        "statistic.region_cols must name at least one column");
  }
  SURF_RETURN_IF_ERROR(ReadSize(json, "num_shards", &request.num_shards));
  if (request.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  double order_by = static_cast<double>(request.order_by);
  SURF_RETURN_IF_ERROR(ReadDouble(json, "order_by", &order_by));
  if (order_by != std::floor(order_by) || order_by < -1.0 ||
      order_by > 2147483647.0) {
    return TypeError("order_by", "a column index or -1");
  }
  request.order_by = static_cast<int>(order_by);
  SURF_RETURN_IF_ERROR(ReadSizeArray(json, "columns", &request.columns));
  SURF_RETURN_IF_ERROR(ReadSizeArray(json, "shards", &request.shards));
  if (request.shards.empty()) {
    return Status::InvalidArgument("field 'shards' must name >= 1 shard");
  }
  // Ascending order is part of the contract: the coordinator's gather
  // fold relies on per-group shard order matching the in-process walk.
  for (size_t i = 0; i < request.shards.size(); ++i) {
    if (request.shards[i] >= request.num_shards) {
      return Status::InvalidArgument("shard index out of range");
    }
    if (i > 0 && request.shards[i] <= request.shards[i - 1]) {
      return Status::InvalidArgument(
          "shard indices must be strictly ascending");
    }
  }
  if (const JsonValue* queries = json.Find("queries")) {
    if (!queries->is_array()) return TypeError("queries", "an array");
    request.queries.reserve(queries->array().size());
    for (const JsonValue& q : queries->array()) {
      auto region = RegionFromJson(q);
      if (!region.ok()) return region.status();
      request.queries.push_back(std::move(region).value());
    }
  }
  SURF_RETURN_IF_ERROR(
      ReadDouble(json, "deadline_seconds", &request.deadline_seconds));
  if (std::isnan(request.deadline_seconds) ||
      request.deadline_seconds < 0.0) {
    return Status::InvalidArgument(
        "deadline_seconds must be >= 0 (0 = no deadline)");
  }
  return request;
}

JsonValue ShardEvaluateResponseToJson(
    const dist::ShardEvaluateResponse& response) {
  JsonValue obj = JsonValue::Object();
  JsonValue partials = JsonValue::Array();
  for (const auto& per_query : response.partials) {
    JsonValue row = JsonValue::Array();
    for (const StatisticAccumulator& acc : per_query) {
      row.Append(acc.ToJson());
    }
    partials.Append(std::move(row));
  }
  obj.Set("partials", std::move(partials));
  return obj;
}

StatusOr<dist::ShardEvaluateResponse> ShardEvaluateResponseFromJson(
    const JsonValue& json, const Statistic& stat) {
  if (!json.is_object()) {
    return Status::InvalidArgument(
        "shard-evaluate response must be a JSON object");
  }
  const JsonValue* partials = json.Find("partials");
  if (partials == nullptr || !partials->is_array()) {
    return TypeError("partials", "an array of arrays");
  }
  dist::ShardEvaluateResponse response;
  response.partials.reserve(partials->array().size());
  for (const JsonValue& row : partials->array()) {
    if (!row.is_array()) return TypeError("partials[]", "an array");
    std::vector<StatisticAccumulator> per_query;
    per_query.reserve(row.array().size());
    for (const JsonValue& acc : row.array()) {
      auto parsed = StatisticAccumulator::FromJson(acc, stat);
      if (!parsed.ok()) return parsed.status();
      per_query.push_back(std::move(parsed).value());
    }
    response.partials.push_back(std::move(per_query));
  }
  return response;
}

// ------------------------------------------------------------------ traces

namespace {

JsonValue SpanAttrsToJson(const TraceContext::Span& span) {
  JsonValue attrs = JsonValue::Object();
  for (const auto& [key, value] : span.attrs) {
    attrs.Set(key, JsonValue(value));
  }
  return attrs;
}

}  // namespace

JsonValue TraceSummaryToJson(const TraceContext& trace) {
  JsonValue obj = JsonValue::Object();
  obj.Set("id", JsonValue(trace.id()));
  obj.Set("dropped_spans",
          JsonValue(static_cast<double>(trace.dropped())));

  const std::array<double, kNumTraceStages> stages = trace.StageSeconds();
  JsonValue stage_seconds = JsonValue::Object();
  for (int s = 1; s < kNumTraceStages; ++s) {
    stage_seconds.Set(TraceStageName(static_cast<TraceStage>(s)),
                      JsonValue(stages[s]));
  }
  obj.Set("stage_seconds", std::move(stage_seconds));

  JsonValue spans = JsonValue::Array();
  for (const TraceContext::Span& span : trace.Snapshot()) {
    JsonValue encoded = JsonValue::Object();
    encoded.Set("name", JsonValue(span.name));
    if (span.stage != TraceStage::kNone) {
      encoded.Set("stage", JsonValue(TraceStageName(span.stage)));
    }
    encoded.Set("parent", JsonValue(static_cast<double>(span.parent)));
    encoded.Set("start_us", JsonValue(span.start_ns * 1e-3));
    encoded.Set("dur_us", JsonValue(span.dur_ns * 1e-3));
    encoded.Set("tid", JsonValue(static_cast<double>(span.tid)));
    if (!span.attrs.empty()) encoded.Set("attrs", SpanAttrsToJson(span));
    spans.Append(std::move(encoded));
  }
  obj.Set("spans", std::move(spans));
  return obj;
}

JsonValue TraceToChromeJson(const TraceContext& trace) {
  JsonValue obj = JsonValue::Object();
  obj.Set("displayTimeUnit", JsonValue("ms"));

  JsonValue other = JsonValue::Object();
  other.Set("trace_id", JsonValue(trace.id()));
  other.Set("dropped_spans",
            JsonValue(static_cast<double>(trace.dropped())));
  obj.Set("otherData", std::move(other));

  // One complete-duration ("ph": "X") event per span; timestamps are
  // microseconds, the unit the trace-event format mandates. Open spans
  // (dur 0) still emit — Perfetto renders them as instant-like slivers.
  JsonValue events = JsonValue::Array();
  for (const TraceContext::Span& span : trace.Snapshot()) {
    JsonValue event = JsonValue::Object();
    event.Set("name", JsonValue(span.name));
    event.Set("cat", JsonValue(span.stage == TraceStage::kNone
                                   ? "pipeline"
                                   : TraceStageName(span.stage)));
    event.Set("ph", JsonValue("X"));
    event.Set("ts", JsonValue(span.start_ns * 1e-3));
    event.Set("dur", JsonValue(span.dur_ns * 1e-3));
    event.Set("pid", JsonValue(1.0));
    event.Set("tid", JsonValue(static_cast<double>(span.tid)));
    event.Set("args", SpanAttrsToJson(span));
    events.Append(std::move(event));
  }
  obj.Set("traceEvents", std::move(events));
  return obj;
}

}  // namespace surf
