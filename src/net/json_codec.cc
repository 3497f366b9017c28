#include "net/json_codec.h"

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "api/api.h"
#include "data/sharded.h"

namespace surf {

namespace {

Status TypeError(const char* key, const char* expected) {
  return Status::InvalidArgument(std::string("field '") + key +
                                 "' must be " + expected);
}

/// True when a JSON number is a non-negative integer small enough to
/// cast to an unsigned type without UB (2^53, the double-exact bound).
bool IsCastableIndex(const JsonValue& v) {
  return v.is_number() && v.number_value() >= 0 &&
         v.number_value() == std::floor(v.number_value()) &&
         v.number_value() <= 9.007199254740992e15;
}

/// What a decode needs beyond the document: statistic column names
/// resolve against `*dataset` through `resolver` (indices only without
/// one).
struct DecodeContext {
  const std::string* dataset = nullptr;
  const ColumnResolver* resolver = nullptr;
};

// ------------------------------------------------------------------ enums

/// One enum's wire names. The first name of a value is the one written;
/// later ones are decode-only aliases. An unknown name is reported as
/// "unknown <noun> 'name'", plus the names when `list_choices`; the noun
/// is `noun` under the enum's own `key`, and the key itself under a v1
/// alias (`mode`).
template <typename E, size_t N>
struct EnumTable {
  const char* key;
  const char* noun;
  bool list_choices;
  std::pair<E, const char*> names[N];
};

template <typename E>
constexpr std::nullptr_t kEnum = nullptr;

template <>
constexpr EnumTable<StatusCode, 11> kEnum<StatusCode>{
    "code", "status code", false,
    {{StatusCode::kOk, "ok"},
     {StatusCode::kInvalidArgument, "invalid_argument"},
     {StatusCode::kNotFound, "not_found"},
     {StatusCode::kOutOfRange, "out_of_range"},
     {StatusCode::kFailedPrecondition, "failed_precondition"},
     {StatusCode::kIOError, "io_error"},
     {StatusCode::kTimedOut, "timed_out"},
     {StatusCode::kInternal, "internal"},
     {StatusCode::kAlreadyExists, "already_exists"},
     {StatusCode::kCancelled, "cancelled"},
     {StatusCode::kUnavailable, "unavailable"}}};

template <>
constexpr EnumTable<ThresholdDirection, 2> kEnum<ThresholdDirection>{
    "direction", "direction", true,
    {{ThresholdDirection::kAbove, "above"},
     {ThresholdDirection::kBelow, "below"}}};

template <>
constexpr EnumTable<v2::QueryKind, 2> kEnum<v2::QueryKind>{
    "kind", "query kind", true,
    {{v2::QueryKind::kThreshold, "threshold"},
     {v2::QueryKind::kTopK, "topk"}}};

template <>
constexpr EnumTable<BackendKind, 2> kEnum<BackendKind>{
    "backend", "backend", true,
    {{BackendKind::kScan, "scan"}, {BackendKind::kGridIndex, "grid_index"}}};

/// Decode-only: statistic kinds are written by StatisticKindName.
template <>
constexpr EnumTable<StatisticKind, 9> kEnum<StatisticKind>{
    "kind", "statistic kind", false,
    {{StatisticKind::kCount, "count"},
     {StatisticKind::kAverage, "avg"},
     {StatisticKind::kAverage, "average"},
     {StatisticKind::kSum, "sum"},
     {StatisticKind::kMedian, "median"},
     {StatisticKind::kVariance, "variance"},
     {StatisticKind::kVariance, "var"},
     {StatisticKind::kLabelRatio, "ratio"},
     {StatisticKind::kLabelRatio, "label_ratio"}}};

template <typename E>
Status DecodeEnum(const JsonValue& v, const char* key, E* out) {
  if (!v.is_string()) return TypeError(key, "a string");
  for (const auto& [value, name] : kEnum<E>.names) {
    if (v.string_value() == name) {
      *out = value;
      return Status::OK();
    }
  }
  const bool own_key = std::strcmp(key, kEnum<E>.key) == 0;
  std::string message = "unknown " +
                        std::string(own_key ? kEnum<E>.noun : key) + " '" +
                        v.string_value() + "'";
  if (kEnum<E>.list_choices) {
    const char* separator = " (";
    for (const auto& [value, name] : kEnum<E>.names) {
      message += separator;
      message += name;
      separator = "|";
    }
    message += ")";
  }
  return Status::InvalidArgument(message);
}

// ---------------------------------------------------------- generic codec
//
// Each wire struct is declared once, below, as an ordered tuple of
// fields. Encode<T>/Decode<T> pick a field's codec from its member type
// (bool, double, unsigned, string, enum, vector, or a struct with its own
// list); a field may name another codec instead, a struct with a static
// Decode (and Encode, when the member type's would not do). Decoding
// follows one convention everywhere: a value of the wrong type is
// TypeError(key, expected), and an absent key leaves the member at its
// struct default.

/// One wire field of struct S: its key, its member, an optional named
/// codec C (void: the member type's), a check run right after the field
/// is read (whether or not the key was present), and an optional presence
/// flag: such a field is written only when the flag is set, and reading
/// it sets the flag.
template <typename S, typename M, typename C>
struct Field {
  using Codec = C;
  const char* name;
  M S::*member;
  Status (*check)(const S&);
  bool S::*present;
};

template <typename C = void, typename S, typename M>
constexpr Field<S, M, C> F(
    const char* name, M S::*member,
    std::type_identity_t<Status (*)(const S&)> check = nullptr,
    std::type_identity_t<bool S::*> present = nullptr) {
  return {name, member, check, present};
}

/// The ordered field list of each wire struct, specialized below.
template <typename S>
constexpr std::nullptr_t kFields = nullptr;

template <typename S>
concept HasFields =
    !std::is_null_pointer_v<std::remove_cvref_t<decltype(kFields<S>)>>;

template <typename List, typename Fn>
void ForEachField(const List& list, Fn fn) {
  std::apply([&](const auto&... f) { (fn(f), ...); }, list);
}

template <typename T>
JsonValue Encode(const T& value);
template <typename T>
Status Decode(const JsonValue& v, const char* key, T* out,
              const DecodeContext& ctx);

/// The hand-written codecs: wire shapes with meaning of their own.
JsonValue Encode(const Region& region);
Status Decode(const JsonValue& v, const char* key, Region* out,
              const DecodeContext& ctx);
JsonValue Encode(const Status& status);
Status Decode(const JsonValue& v, const char* key, Status* out,
              const DecodeContext& ctx);
JsonValue Encode(const SurrogateProvenance& provenance);
Status Decode(const JsonValue& v, const char* key, SurrogateProvenance* out,
              const DecodeContext& ctx);

/// Writes every field of `list` in list order. The keys of a list are
/// distinct (GoldenCodecCorpus.EncodedObjectsNeverRepeatAKey checks every
/// encoded object), so members are appended without Set's duplicate scan.
template <typename S, typename List>
void EncodeFields(const S& s, const List& list, JsonValue* obj) {
  ForEachField(list, [&](const auto& f) {
    using C = typename std::remove_cvref_t<decltype(f)>::Codec;
    if (f.present != nullptr && !(s.*f.present)) return;
    if constexpr (requires { C::Encode(s.*f.member); }) {
      obj->AppendMember(f.name, C::Encode(s.*f.member));
    } else {
      obj->AppendMember(f.name, Encode(s.*f.member));
    }
  });
}

/// Reads field `f` of `*s` from `obj[key]` (its own name, or a v1 alias).
template <typename S, typename Fd>
Status DecodeField(const JsonValue& obj, const char* key, const Fd& f, S* s,
                   const DecodeContext& ctx) {
  if (const JsonValue* v = obj.Find(key)) {
    if constexpr (std::is_void_v<typename Fd::Codec>) {
      SURF_RETURN_IF_ERROR(Decode(*v, key, &(s->*f.member), ctx));
    } else {
      SURF_RETURN_IF_ERROR(Fd::Codec::Decode(*v, key, &(s->*f.member), ctx));
    }
    if (f.present != nullptr) s->*f.present = true;
  }
  return f.check != nullptr ? f.check(*s) : Status::OK();
}

/// Reads every field of `list` in list order; the first error wins.
template <typename S, typename List>
Status DecodeFields(const JsonValue& obj, const List& list, S* s,
                    const DecodeContext& ctx) {
  Status status;
  auto decode = [&](const auto& f) {
    Status field = DecodeField(obj, f.name, f, s, ctx);
    if (!field.ok()) status = std::move(field);
    return status.ok();
  };
  std::apply([&](const auto&... f) { (decode(f) && ...); }, list);
  return status;
}

template <typename T>
JsonValue Encode(const T& value) {
  if constexpr (std::is_same_v<T, StatisticKind>) {
    return JsonValue(StatisticKindName(value));
  } else if constexpr (std::is_enum_v<T>) {
    for (const auto& [v, name] : kEnum<T>.names) {
      if (v == value) return JsonValue(name);
    }
    return JsonValue(kEnum<T>.names[0].second);
  } else if constexpr (std::is_unsigned_v<T> && !std::is_same_v<T, bool>) {
    return JsonValue(static_cast<double>(value));
  } else if constexpr (HasFields<T>) {
    JsonValue obj = JsonValue::Object();
    EncodeFields(value, kFields<T>, &obj);
    return obj;
  } else if constexpr (requires { value.begin(); } &&
                       !std::is_same_v<T, std::string>) {
    JsonValue arr = JsonValue::Array();
    for (const auto& x : value) arr.Append(Encode(x));
    return arr;
  } else {
    return JsonValue(value);  // bool, double, int, string
  }
}

/// Arrays of numbers or indices name the whole array in errors; arrays of
/// structs leave them to the element codec, under `key[]`.
template <typename T>
Status DecodeArray(const JsonValue& v, const char* key, std::vector<T>* out,
                   const DecodeContext& ctx) {
  std::vector<T> parsed(v.array().size());
  if constexpr (std::is_same_v<T, double>) {
    if (!v.is_array()) return TypeError(key, "an array of numbers");
    for (size_t i = 0; i < parsed.size(); ++i) {
      const JsonValue& e = v.array()[i];
      if (!e.is_number()) return TypeError(key, "an array of numbers");
      parsed[i] = e.number_value();
    }
  } else if constexpr (std::is_unsigned_v<T>) {
    if (!v.is_array()) return TypeError(key, "an array of integers");
    for (size_t i = 0; i < parsed.size(); ++i) {
      const JsonValue& e = v.array()[i];
      if (!IsCastableIndex(e)) {
        return TypeError(key, "an array of non-negative integers");
      }
      parsed[i] = static_cast<T>(e.number_value());
    }
  } else {
    if (!v.is_array()) return TypeError(key, "an array");
    const std::string element = std::string(key) + "[]";
    for (size_t i = 0; i < parsed.size(); ++i) {
      SURF_RETURN_IF_ERROR(
          Decode(v.array()[i], element.c_str(), &parsed[i], ctx));
    }
  }
  *out = std::move(parsed);
  return Status::OK();
}

template <typename T>
Status Decode(const JsonValue& v, const char* key, T* out,
              const DecodeContext& ctx) {
  if constexpr (std::is_same_v<T, bool>) {
    if (!v.is_bool()) return TypeError(key, "a boolean");
    *out = v.bool_value();
  } else if constexpr (std::is_same_v<T, double>) {
    if (!v.is_number()) return TypeError(key, "a number");
    *out = v.number_value();
  } else if constexpr (std::is_unsigned_v<T>) {
    if (!v.is_number()) return TypeError(key, "a non-negative integer");
    if (!IsCastableIndex(v)) {
      return TypeError(key, "a non-negative integer (within 2^53)");
    }
    *out = static_cast<T>(v.number_value());
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!v.is_string()) return TypeError(key, "a string");
    *out = v.string_value();
  } else if constexpr (std::is_enum_v<T>) {
    return DecodeEnum(v, key, out);
  } else if constexpr (HasFields<T>) {
    if (!v.is_object()) return TypeError(key, "an object");
    return DecodeFields(v, kFields<T>, out, ctx);
  } else {
    return DecodeArray(v, key, out, ctx);
  }
  return Status::OK();
}

/// Decodes `obj[key]` into `*out`; an absent key keeps `*out`.
template <typename T>
Status DecodeKey(const JsonValue& obj, const char* key, T* out) {
  const JsonValue* v = obj.Find(key);
  return v == nullptr ? Status::OK() : Decode(*v, key, out, DecodeContext{});
}

// ---------------------------------------------------------- named codecs

/// A double that may be NaN: WriteJson writes NaN as null, and null reads
/// back as NaN.
struct NumberOrNull {
  static Status Decode(const JsonValue& v, const char* key, double* out,
                       const DecodeContext&) {
    if (v.is_null()) {
      *out = std::numeric_limits<double>::quiet_NaN();
      return Status::OK();
    }
    if (!v.is_number()) return TypeError(key, "a number or null");
    *out = v.number_value();
    return Status::OK();
  }
};

/// A 64-bit fingerprint as a hex string (JSON numbers lose integer
/// precision past 2^53): an optional 0x/0X prefix, then 1-16 hex digits
/// and nothing else, so no sign, whitespace or overflow. `kExpected` is
/// the wrong-type text.
template <const char* kExpected>
struct HexU64 {
  static JsonValue Encode(uint64_t value) {
    return JsonValue(FormatHexU64(value));
  }
  static Status Decode(const JsonValue& v, const char* key, uint64_t* out,
                       const DecodeContext&) {
    if (!v.is_string()) return TypeError(key, kExpected);
    std::string_view text = v.string_value();
    if (text.size() > 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X')) {
      text.remove_prefix(2);
    }
    uint64_t value = 0;
    const char* end = text.data() + text.size();
    const auto parsed = std::from_chars(text.data(), end, value, 16);
    if (text.empty() || text.size() > 16 || parsed.ec != std::errc() ||
        parsed.ptr != end) {
      return Status::InvalidArgument(std::string("invalid ") + key + " '" +
                                     v.string_value() + "'");
    }
    *out = value;
    return Status::OK();
  }
};

constexpr char kString[] = "a string";
constexpr char kHexString[] = "a hex string";

/// Resolves a column a statistic names through the context's resolver.
Status ResolveColumn(const std::string& column, const char* key,
                     const DecodeContext& ctx, int* out) {
  if (ctx.resolver == nullptr) {
    return Status::InvalidArgument(std::string(key) +
                                   " by name requires a registered dataset");
  }
  *out = (*ctx.resolver)(*ctx.dataset, column);
  if (*out < 0) {
    return Status::InvalidArgument("unknown column '" + column +
                                   "' in dataset '" + *ctx.dataset + "'");
  }
  return Status::OK();
}

/// `region_cols`: column indices or, with a resolver, column names.
struct ColumnList {
  static Status Decode(const JsonValue& v, const char* key,
                       std::vector<size_t>* out, const DecodeContext& ctx) {
    if (!v.is_array()) {
      return TypeError(key, "an array of indices or column names");
    }
    std::vector<size_t> indices;
    indices.reserve(v.array().size());
    for (const JsonValue& e : v.array()) {
      int idx = 0;
      if (IsCastableIndex(e)) {
        indices.push_back(static_cast<size_t>(e.number_value()));
      } else if (e.is_string()) {
        SURF_RETURN_IF_ERROR(ResolveColumn(e.string_value(), key, ctx, &idx));
        indices.push_back(static_cast<size_t>(idx));
      } else {
        return TypeError(key, "an array of indices or column names");
      }
    }
    *out = std::move(indices);
    return Status::OK();
  }
};

/// `value_col`: -1 (the legal "no value column" sentinel), a castable
/// column index, or a column name.
struct ValueColumn {
  static Status Decode(const JsonValue& v, const char* key, int* out,
                       const DecodeContext& ctx) {
    if (v.is_number() && v.number_value() == -1.0) {
      *out = -1;
    } else if (IsCastableIndex(v) && v.number_value() <= 2147483647.0) {
      *out = static_cast<int>(v.number_value());
    } else if (v.is_string()) {
      return ResolveColumn(v.string_value(), key, ctx, out);
    } else {
      return TypeError(key, "an index or column name");
    }
    return Status::OK();
  }
};

/// `order_by`: a column index, or -1 for natural row order.
struct ColumnOrNone {
  static Status Decode(const JsonValue& v, const char* key, int* out,
                       const DecodeContext&) {
    if (!v.is_number()) return TypeError(key, "a number");
    const double d = v.number_value();
    if (d != std::floor(d) || d < -1.0 || d > 2147483647.0) {
      return TypeError(key, "a column index or -1");
    }
    *out = static_cast<int>(d);
    return Status::OK();
  }
};

// ------------------------------------------------------ the field lists

template <typename R>
Status RequireDataset(const R& request) {
  if (request.dataset.empty()) {
    return Status::InvalidArgument("field 'dataset' is required");
  }
  return Status::OK();
}

Status RequireRegionCols(const Statistic& statistic) {
  if (statistic.region_cols.empty()) {
    return Status::InvalidArgument(
        "statistic.region_cols must name at least one column");
  }
  return Status::OK();
}

template <typename R>
Status RequireRegion(const R& scored) {
  // A decoded region is never empty, so an empty one was absent.
  return scored.region.dims() == 0 ? TypeError("region", "present")
                                   : Status::OK();
}

template <>
constexpr auto kFields<Statistic> = std::tuple{
    F("kind", &Statistic::kind),
    F<ColumnList>("region_cols", &Statistic::region_cols),
    F<ValueColumn>("value_col", &Statistic::value_col),
    F("label_value", &Statistic::label_value),
};

template <>
constexpr auto kFields<GsoParams> = std::tuple{
    F("num_glowworms", &GsoParams::num_glowworms),
    F("max_iterations", &GsoParams::max_iterations),
    F("luciferin_decay", &GsoParams::luciferin_decay),
    F("luciferin_gain", &GsoParams::luciferin_gain),
    F("initial_luciferin", &GsoParams::initial_luciferin),
    F("initial_radius_frac", &GsoParams::initial_radius_frac),
    F("sensor_radius_frac", &GsoParams::sensor_radius_frac),
    F("radius_beta", &GsoParams::radius_beta),
    F("desired_neighbors", &GsoParams::desired_neighbors),
    F("step_frac", &GsoParams::step_frac),
    F("convergence_tol_frac", &GsoParams::convergence_tol_frac),
    F("convergence_window", &GsoParams::convergence_window),
    F("exploration_restart_prob", &GsoParams::exploration_restart_prob),
    F("kde_seeded_fraction", &GsoParams::kde_seeded_fraction),
    F("kde_mass_guidance", &GsoParams::kde_mass_guidance),
    F("seed", &GsoParams::seed),
};

template <>
constexpr auto kFields<GbrtParams> = std::tuple{
    F("learning_rate", &GbrtParams::learning_rate),
    F("n_estimators", &GbrtParams::n_estimators),
    F("max_depth", &GbrtParams::max_depth),
    F("reg_lambda", &GbrtParams::reg_lambda),
    F("min_child_weight", &GbrtParams::min_child_weight),
    F("min_split_gain", &GbrtParams::min_split_gain),
    F("min_samples_leaf", &GbrtParams::min_samples_leaf),
    F("subsample", &GbrtParams::subsample),
    F("colsample", &GbrtParams::colsample),
    F("max_bins", &GbrtParams::max_bins),
    F("early_stopping_rounds", &GbrtParams::early_stopping_rounds),
    F("validation_fraction", &GbrtParams::validation_fraction),
    F("seed", &GbrtParams::seed),
};

template <>
constexpr auto kFields<GridSearchSpace> = std::tuple{
    F("learning_rates", &GridSearchSpace::learning_rates),
    F("max_depths", &GridSearchSpace::max_depths),
    F("n_estimators", &GridSearchSpace::n_estimators),
    F("reg_lambdas", &GridSearchSpace::reg_lambdas),
};

template <>
constexpr auto kFields<WorkloadParams> = std::tuple{
    F("num_queries", &WorkloadParams::num_queries),
    F("min_length_frac", &WorkloadParams::min_length_frac),
    F("max_length_frac", &WorkloadParams::max_length_frac),
    F("drop_undefined", &WorkloadParams::drop_undefined),
    F("seed", &WorkloadParams::seed),
};

template <>
constexpr auto kFields<SurrogateTrainOptions> = std::tuple{
    F("gbrt", &SurrogateTrainOptions::gbrt),
    F("hypertune", &SurrogateTrainOptions::hypertune),
    F("grid", &SurrogateTrainOptions::grid),
    F("cv_folds", &SurrogateTrainOptions::cv_folds),
    F("test_fraction", &SurrogateTrainOptions::test_fraction),
    F("seed", &SurrogateTrainOptions::seed),
};

template <>
constexpr auto kFields<FinderConfig> = std::tuple{
    F("gso", &FinderConfig::gso),
    F("auto_scale_gso", &FinderConfig::auto_scale_gso),
    F("c", &FinderConfig::c),
    F("use_log_objective", &FinderConfig::use_log_objective),
    F("nms_max_iou", &FinderConfig::nms_max_iou),
    F("max_regions", &FinderConfig::max_regions),
    F("use_kde_guidance", &FinderConfig::use_kde_guidance),
    F("use_kde_seeding", &FinderConfig::use_kde_seeding),
};

template <>
constexpr auto kFields<TopKConfig> = std::tuple{
    F("k", &TopKConfig::k),
    F("c", &TopKConfig::c),
    F("nms_max_iou", &TopKConfig::nms_max_iou),
    F("gso", &TopKConfig::gso),
};

template <>
constexpr auto kFields<v2::QuerySpec> = std::tuple{
    F("statistic", &v2::QuerySpec::statistic),
    F("kind", &v2::QuerySpec::kind),
    F("threshold", &v2::QuerySpec::threshold),
    F("direction", &v2::QuerySpec::direction),
};

template <>
constexpr auto kFields<v2::SearchRecipe> = std::tuple{
    F("finder", &v2::SearchRecipe::finder),
    F("topk", &v2::SearchRecipe::topk),
};

template <>
constexpr auto kFields<v2::TrainingRecipe> = std::tuple{
    F("workload", &v2::TrainingRecipe::workload),
    F("surrogate", &v2::TrainingRecipe::surrogate),
};

template <>
constexpr auto kFields<v2::ExecutionPolicy> = std::tuple{
    F("backend", &v2::ExecutionPolicy::backend),
    F("shards", &v2::ExecutionPolicy::shards),
    F("cluster", &v2::ExecutionPolicy::cluster),
    F("use_kde", &v2::ExecutionPolicy::use_kde),
    F("validate", &v2::ExecutionPolicy::validate),
    F("record_evaluations", &v2::ExecutionPolicy::record_evaluations),
    F("deadline_seconds", &v2::ExecutionPolicy::deadline_seconds),
    F("trace", &v2::ExecutionPolicy::trace),
};

/// The v2 named-section schema; `api_version` is written and read around
/// it, because it selects the schema.
template <>
constexpr auto kFields<v2::MineRequest> = std::tuple{
    F("dataset", &v2::MineRequest::dataset,
      RequireDataset<v2::MineRequest>),
    F("query", &v2::MineRequest::query),
    F("search", &v2::MineRequest::search),
    F("training", &v2::MineRequest::training),
    F("execution", &v2::MineRequest::execution),
};

template <>
constexpr auto kFields<FoundRegion> = std::tuple{
    F("region", &FoundRegion::region, RequireRegion<FoundRegion>),
    F("fitness", &FoundRegion::fitness),
    F("estimate", &FoundRegion::estimate),
    F<NumberOrNull>("true_value", &FoundRegion::true_value),
    F("complies_true", &FoundRegion::complies_true),
};

template <>
constexpr auto kFields<FindReport> = std::tuple{
    F("seconds", &FindReport::seconds),
    F("iterations", &FindReport::iterations),
    F("objective_evaluations", &FindReport::objective_evaluations),
    F("particle_valid_fraction", &FindReport::particle_valid_fraction),
    F("converged", &FindReport::converged),
    F("cancelled", &FindReport::cancelled),
    F("true_compliance", &FindReport::true_compliance),
};

/// The swarm (`gso`) stays off the wire.
template <>
constexpr auto kFields<FindResult> = std::tuple{
    F("regions", &FindResult::regions),
    F("report", &FindResult::report),
};

template <>
constexpr auto kFields<ScoredRegion> = std::tuple{
    F("region", &ScoredRegion::region, RequireRegion<ScoredRegion>),
    F("fitness", &ScoredRegion::fitness),
    F("statistic", &ScoredRegion::statistic),
};

template <>
constexpr auto kFields<TopKResult> = std::tuple{
    F("regions", &TopKResult::regions),
    F("iterations", &TopKResult::iterations),
    F("objective_evaluations", &TopKResult::objective_evaluations),
    F("cancelled", &TopKResult::cancelled),
};

/// The degradation pair is written around this list (see the codec).
template <>
constexpr auto kFields<SurrogateProvenance> = std::tuple{
    F<HexU64<kString>>("dataset_fingerprint",
                       &SurrogateProvenance::dataset_fingerprint),
    F("training_set_size", &SurrogateProvenance::training_set_size),
    F<NumberOrNull>("cv_rmse", &SurrogateProvenance::cv_rmse),
    F("holdout_rmse", &SurrogateProvenance::holdout_rmse),
    F("train_seconds", &SurrogateProvenance::train_seconds),
    F("warm_starts", &SurrogateProvenance::warm_starts),
    F("pending_examples", &SurrogateProvenance::pending_examples),
};

/// The response envelope every answer carries, in wire order; `mode`, one
/// payload, the trace block and `api_version` follow it.
constexpr auto kResponseHead = std::tuple{
    F("status", &v2::MineResponse::status),
    F("cache_hit", &v2::MineResponse::cache_hit),
    F("total_seconds", &v2::MineResponse::total_seconds),
    F("provenance", &v2::MineResponse::provenance),
};

/// The two payloads; a response carries the one its query kind selects.
constexpr auto kResponsePayloads = std::tuple{
    F("result", &v2::MineResponse::result),
    F("topk", &v2::MineResponse::topk),
};

/// Shard indices name distinct shards of the partition in ascending
/// order: the coordinator's gather fold relies on per-group shard order
/// matching the in-process walk.
Status CheckShardIndices(const dist::ShardEvaluateRequest& request) {
  if (request.shards.empty()) {
    return Status::InvalidArgument("field 'shards' must name >= 1 shard");
  }
  for (size_t i = 0; i < request.shards.size(); ++i) {
    if (request.shards[i] >= request.num_shards) {
      return Status::InvalidArgument("shard index out of range");
    }
    if (i > 0 && request.shards[i] <= request.shards[i - 1]) {
      return Status::InvalidArgument(
          "shard indices must be strictly ascending");
    }
  }
  return Status::OK();
}

using ShardRequest = dist::ShardEvaluateRequest;

template <>
constexpr auto kFields<ShardRequest> = std::tuple{
    F("dataset", &ShardRequest::dataset, RequireDataset<ShardRequest>),
    F<HexU64<kHexString>>("fingerprint", &ShardRequest::fingerprint, nullptr,
                          &ShardRequest::has_fingerprint),
    F("statistic", &ShardRequest::statistic,
      [](const ShardRequest& r) { return RequireRegionCols(r.statistic); }),
    F("num_shards", &ShardRequest::num_shards,
      [](const ShardRequest& r) {
        if (r.num_shards == 0) {
          return Status::InvalidArgument("num_shards must be >= 1");
        }
        return r.num_shards > ShardingOptions::kMaxShards
                   ? Status::InvalidArgument(
                         "num_shards must be <= " +
                         std::to_string(ShardingOptions::kMaxShards))
                   : Status::OK();
      }),
    F<ColumnOrNone>("order_by", &ShardRequest::order_by),
    F("columns", &ShardRequest::columns),
    F("shards", &ShardRequest::shards, CheckShardIndices),
    F("queries", &ShardRequest::queries),
    F("deadline_seconds", &ShardRequest::deadline_seconds,
      [](const ShardRequest& r) {
        return std::isnan(r.deadline_seconds) || r.deadline_seconds < 0.0
                   ? Status::InvalidArgument(
                         "deadline_seconds must be >= 0 (0 = no deadline)")
                   : Status::OK();
      }),
};

// ------------------------------------------------------ v1 flat schema

/// One key of the flat v1 schema and the v2 field it fills: member
/// `field` (default: the key) of section `section` of v2::MineRequest
/// (none: the request itself). `check` runs after the read.
struct V1Alias {
  const char* key;
  const char* section;
  const char* field = nullptr;
  Status (*check)(const v2::MineRequest&) = nullptr;
};

/// The v1 schema, frozen: every top-level v1 key in the order v1 reads
/// them. It has no deadline; fields added since are v2-only.
constexpr V1Alias kV1Aliases[] = {
    {"dataset", nullptr},
    {"statistic", "query", nullptr,
     [](const v2::MineRequest& r) {
       return RequireRegionCols(r.query.statistic);
     }},
    {"threshold", "query"},
    {"direction", "query"},
    {"mode", "query", "kind"},
    {"topk", "search"},
    {"finder", "search"},
    {"workload", "training"},
    {"surrogate", "training"},
    {"backend", "execution"},
    {"shards", "execution"},
    {"cluster", "execution"},
    {"use_kde", "execution"},
    {"validate", "execution"},
    {"record_evaluations", "execution"},
    {"trace", "execution"},
};

/// Reads one v1 key into the v2 field its alias names.
Status DecodeV1(const JsonValue& json, const V1Alias& alias,
                v2::MineRequest* request, const DecodeContext& ctx) {
  const char* field = alias.field != nullptr ? alias.field : alias.key;
  Status status;
  auto decode_in = [&](const auto& list, auto* s) {
    ForEachField(list, [&](const auto& f) {
      if (std::strcmp(f.name, field) == 0) {
        status = DecodeField(json, alias.key, f, s, ctx);
      }
    });
  };
  if (alias.section == nullptr) decode_in(kFields<v2::MineRequest>, request);
  ForEachField(kFields<v2::MineRequest>, [&](const auto& section) {
    using M = std::remove_cvref_t<decltype(request->*section.member)>;
    if constexpr (HasFields<M>) {
      if (alias.section != nullptr &&
          std::strcmp(section.name, alias.section) == 0) {
        decode_in(kFields<M>, &(request->*section.member));
      }
    }
  });
  SURF_RETURN_IF_ERROR(status);
  return alias.check != nullptr ? alias.check(*request) : Status::OK();
}

// ------------------------------------------------- hand-written codecs

/// A region travels as center/half-length vectors plus the derived lo/hi
/// corners (informational; decoding reads center and half_lengths).
JsonValue Encode(const Region& region) {
  std::vector<double> lo(region.dims()), hi(region.dims());
  for (size_t i = 0; i < region.dims(); ++i) {
    lo[i] = region.lo(i);
    hi[i] = region.hi(i);
  }
  JsonValue obj = JsonValue::Object();
  obj.AppendMember("center", Encode(region.center()));
  obj.AppendMember("half_lengths", Encode(region.half_lengths()));
  obj.AppendMember("lo", Encode(lo));
  obj.AppendMember("hi", Encode(hi));
  return obj;
}

Status Decode(const JsonValue& v, const char*, Region* out,
              const DecodeContext&) {
  if (!v.is_object()) return TypeError("region", "an object");
  std::vector<double> center;
  std::vector<double> half_lengths;
  SURF_RETURN_IF_ERROR(DecodeKey(v, "center", &center));
  SURF_RETURN_IF_ERROR(DecodeKey(v, "half_lengths", &half_lengths));
  if (center.empty() || center.size() != half_lengths.size()) {
    return Status::InvalidArgument(
        "region needs equal-length non-empty center and half_lengths");
  }
  *out = Region(std::move(center), std::move(half_lengths));
  return Status::OK();
}

JsonValue Encode(const Status& status) {
  JsonValue obj = JsonValue::Object();
  obj.AppendMember("code", Encode(status.code()));
  obj.AppendMember("message", JsonValue(status.message()));
  return obj;
}

Status Decode(const JsonValue& v, const char* key, Status* out,
              const DecodeContext&) {
  if (!v.is_object()) return TypeError(key, "an object");
  std::string code = "ok";
  std::string message;
  SURF_RETURN_IF_ERROR(DecodeKey(v, "code", &code));
  SURF_RETURN_IF_ERROR(DecodeKey(v, "message", &message));
  StatusCode parsed = StatusCode::kOk;
  SURF_RETURN_IF_ERROR(DecodeEnum(JsonValue(code), "code", &parsed));
  *out = parsed == StatusCode::kOk ? Status::OK()
                                   : Status(parsed, std::move(message));
  return Status::OK();
}

JsonValue Encode(const SurrogateProvenance& provenance) {
  JsonValue obj = JsonValue::Object();
  EncodeFields(provenance, kFields<SurrogateProvenance>, &obj);
  // Only written when set, so non-degraded payloads stay byte-identical
  // to the pre-degradation schema (absent ⇒ false on decode).
  if (provenance.degraded) {
    obj.AppendMember("degraded", JsonValue(true));
    obj.AppendMember("degraded_reason", JsonValue(provenance.degraded_reason));
  }
  return obj;
}

Status Decode(const JsonValue& v, const char* key, SurrogateProvenance* out,
              const DecodeContext& ctx) {
  if (!v.is_object()) return TypeError(key, "an object");
  SURF_RETURN_IF_ERROR(
      DecodeFields(v, kFields<SurrogateProvenance>, out, ctx));
  SURF_RETURN_IF_ERROR(DecodeKey(v, "degraded", &out->degraded));
  return DecodeKey(v, "degraded_reason", &out->degraded_reason);
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
  return Encode(code).string_value();
}

JsonValue StatusToJson(const Status& status) { return Encode(status); }

Status StatusFromJson(const JsonValue& json, Status* out) {
  return Decode(json, "status", out, DecodeContext{});
}

std::string FormatHexU64(uint64_t value) {
  char hex[24];
  std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, value);
  return hex;
}

// ---------------------------------------------------- regions, provenance

JsonValue RegionToJson(const Region& region) { return Encode(region); }

StatusOr<Region> RegionFromJson(const JsonValue& json) {
  Region region;
  SURF_RETURN_IF_ERROR(Decode(json, "region", &region, DecodeContext{}));
  return region;
}

JsonValue ProvenanceToJson(const SurrogateProvenance& provenance) {
  return Encode(provenance);
}

StatusOr<SurrogateProvenance> ProvenanceFromJson(const JsonValue& json) {
  SurrogateProvenance provenance;
  SURF_RETURN_IF_ERROR(
      Decode(json, "provenance", &provenance, DecodeContext{}));
  return provenance;
}

// ------------------------------------------------------------ MineRequest

JsonValue MineRequestV2ToJson(const v2::MineRequest& request) {
  JsonValue obj = JsonValue::Object();
  obj.AppendMember("api_version",
                   JsonValue(static_cast<double>(request.api_version)));
  EncodeFields(request, kFields<v2::MineRequest>, &obj);
  return obj;
}

StatusOr<v2::MineRequest> MineRequestV2FromJson(
    const JsonValue& json, const ColumnResolver* resolver) {
  if (!json.is_object()) {
    return Status::InvalidArgument("mine request must be a JSON object");
  }
  uint64_t api_version = 1;  // absent = the v1 flat schema
  SURF_RETURN_IF_ERROR(DecodeKey(json, "api_version", &api_version));
  if (api_version != 1 && api_version != 2) {
    return Status::InvalidArgument(
        "unsupported api_version " + std::to_string(api_version) +
        " (this build accepts v1..v2; see GET /v1/version)");
  }
  v2::MineRequest request;
  request.api_version = static_cast<int>(api_version);
  const DecodeContext ctx{&request.dataset, resolver};
  if (api_version == 1) {
    for (const V1Alias& alias : kV1Aliases) {
      SURF_RETURN_IF_ERROR(DecodeV1(json, alias, &request, ctx));
    }
  } else {
    SURF_RETURN_IF_ERROR(
        DecodeFields(json, kFields<v2::MineRequest>, &request, ctx));
  }
  // The shared validation path runs at decode time too, so malformed
  // documents of either schema answer 400 before a job is ever created.
  SURF_RETURN_IF_ERROR(v2::ValidateAndNormalize(&request));
  return request;
}

// ----------------------------------------------------------- MineResponse

JsonValue MineResponseV2ToJson(const v2::MineResponse& response,
                               v2::QueryKind kind) {
  JsonValue obj = JsonValue::Object();
  EncodeFields(response, kResponseHead, &obj);
  obj.AppendMember("mode", Encode(kind));
  const auto& [result, topk] = kResponsePayloads;
  if (kind == v2::QueryKind::kTopK) {
    EncodeFields(response, std::tie(topk), &obj);
  } else {
    EncodeFields(response, std::tie(result), &obj);
  }
  // The trace block is emitted only for traced requests, so untraced
  // responses stay byte-identical to the pre-tracing schema.
  if (response.trace != nullptr) {
    obj.AppendMember("trace", TraceSummaryToJson(*response.trace));
  }
  obj.AppendMember("api_version",
                   JsonValue(static_cast<double>(response.api_version)));
  return obj;
}

StatusOr<v2::MineResponse> MineResponseFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("mine response must be a JSON object");
  }
  v2::MineResponse response;
  uint64_t api_version = static_cast<uint64_t>(response.api_version);
  SURF_RETURN_IF_ERROR(DecodeKey(json, "api_version", &api_version));
  if (api_version > static_cast<uint64_t>(kApiVersion)) {
    return Status::InvalidArgument("unsupported response api_version " +
                                   std::to_string(api_version));
  }
  response.api_version = static_cast<int>(api_version);
  SURF_RETURN_IF_ERROR(DecodeFields(json, kResponseHead, &response, {}));
  SURF_RETURN_IF_ERROR(DecodeFields(json, kResponsePayloads, &response, {}));
  return response;
}

// ------------------------------------------------- distributed evaluation

JsonValue ShardEvaluateRequestToJson(
    const dist::ShardEvaluateRequest& request) {
  return Encode(request);
}

StatusOr<dist::ShardEvaluateRequest> ShardEvaluateRequestFromJson(
    const JsonValue& json, const ColumnResolver* resolver) {
  if (!json.is_object()) {
    return Status::InvalidArgument(
        "shard-evaluate request must be a JSON object");
  }
  dist::ShardEvaluateRequest request;
  const DecodeContext ctx{&request.dataset, resolver};
  SURF_RETURN_IF_ERROR(
      DecodeFields(json, kFields<dist::ShardEvaluateRequest>, &request, ctx));
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
