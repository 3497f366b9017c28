// Tests for the JSON layer of the network front-end: the util/json
// parser/writer and the net/json_codec wire codecs. The codec contract
// under test: v2::MineRequest → JSON → v2::MineRequest round-trips
// losslessly (including every nested recipe), flat v1 documents decode
// through the same entry point,
// provenance fields survive with bit fidelity, NaN/Inf never leak into
// documents, and malformed/fuzzed input returns InvalidArgument instead
// of crashing.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/api_v2.h"
#include "dist/wire.h"
#include "net/json_codec.h"
#include "serve/fingerprint.h"
#include "stats/quantile_sketch.h"
#include "stats/statistic.h"
#include "util/json.h"
#include "util/rng.h"

namespace surf {
namespace {

// ----------------------------------------------------------- util/json

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->bool_value());
  EXPECT_FALSE(ParseJson("false")->bool_value());
  EXPECT_DOUBLE_EQ(ParseJson("42")->number_value(), 42.0);
  EXPECT_DOUBLE_EQ(ParseJson("-0.5e3")->number_value(), -500.0);
  EXPECT_EQ(ParseJson("\"hi\"")->string_value(), "hi");
}

TEST(JsonParse, NestedStructure) {
  auto v = ParseJson(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_object());
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array().size(), 3u);
  EXPECT_TRUE(a->array()[2].Find("b")->bool_value());
  EXPECT_EQ(v->Find("c")->string_value(), "x");
}

TEST(JsonParse, StringEscapes) {
  auto v = ParseJson(R"("a\"b\\c\ndAé€")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string_value(), "a\"b\\c\ndA\xC3\xA9\xE2\x82\xAC");
  // Surrogate pair: U+1F600.
  auto emoji = ParseJson(R"("😀")");
  ASSERT_TRUE(emoji.ok());
  EXPECT_EQ(emoji->string_value(), "\xF0\x9F\x98\x80");
}

TEST(JsonParse, RejectsMalformedInput) {
  const char* cases[] = {
      "",
      "{",
      "[1,",
      "{\"a\" 1}",
      "{\"a\": 1,}",
      "[1 2]",
      "\"unterminated",
      "\"bad \\q escape\"",
      "\"\\ud800 unpaired\"",
      "01",
      "1.",
      "1e",
      "+1",
      "tru",
      "nul",
      "{\"a\": 1} trailing",
      "\x01",
      "\"ctrl \x02 char\"",
  };
  for (const char* text : cases) {
    auto v = ParseJson(text);
    EXPECT_FALSE(v.ok()) << "accepted: " << text;
    if (!v.ok()) {
      EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << text;
    }
  }
}

TEST(JsonParse, RejectsNanAndInfinityTokens) {
  // Not part of the JSON grammar; the codec satellite requires they are
  // rejected rather than smuggled through as doubles.
  for (const char* text :
       {"NaN", "nan", "Infinity", "-Infinity", "inf", "1e999",
        "{\"x\": NaN}", "[Infinity]"}) {
    EXPECT_FALSE(ParseJson(text).ok()) << "accepted: " << text;
  }
}

TEST(JsonParse, DuplicateKeysResolveLastWins) {
  auto v = ParseJson(R"({"a": 1, "b": 2, "a": 3})");
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->Find("a")->number_value(), 3.0);
  EXPECT_DOUBLE_EQ(v->Find("b")->number_value(), 2.0);
}

TEST(JsonParse, LargeObjectParsesInLinearTime) {
  // 200k members: quadratic member insertion would take minutes here
  // (a DoS vector for network bodies); linear parses in milliseconds.
  std::string text = "{";
  for (int i = 0; i < 200000; ++i) {
    if (i > 0) text.push_back(',');
    text += "\"k" + std::to_string(i) + "\":" + std::to_string(i);
  }
  text.push_back('}');
  auto v = ParseJson(text);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->size(), 200000u);
  EXPECT_DOUBLE_EQ(v->Find("k199999")->number_value(), 199999.0);
}

TEST(JsonParse, DepthLimitStopsRecursion) {
  std::string deep(5000, '[');
  deep.append(5000, ']');
  auto v = ParseJson(deep);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

TEST(JsonWrite, EscapingRoundTrips) {
  JsonValue obj = JsonValue::Object();
  obj.Set("s", JsonValue(std::string("line\nquote\"back\\slash\ttab\x01")));
  const std::string text = WriteJson(obj);
  auto parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("s")->string_value(),
            obj.Find("s")->string_value());
}

TEST(JsonWrite, NonFiniteBecomesNull) {
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue(std::numeric_limits<double>::quiet_NaN()));
  arr.Append(JsonValue(std::numeric_limits<double>::infinity()));
  arr.Append(JsonValue(-std::numeric_limits<double>::infinity()));
  EXPECT_EQ(WriteJson(arr), "[null,null,null]");
}

TEST(JsonWrite, DoublesRoundTripBitExactly) {
  Rng rng(123);
  for (int i = 0; i < 2000; ++i) {
    double v;
    if (i % 3 == 0) {
      v = rng.Uniform(-1e12, 1e12);
    } else if (i % 3 == 1) {
      v = rng.Gaussian() * std::pow(10.0, rng.Uniform(-20, 20));
    } else {
      v = rng.Uniform();
    }
    JsonValue arr = JsonValue::Array();
    arr.Append(JsonValue(v));
    auto parsed = ParseJson(WriteJson(arr));
    ASSERT_TRUE(parsed.ok());
    const double back = parsed->array()[0].number_value();
    EXPECT_EQ(back, v) << "lost precision for " << v;
  }
}

TEST(JsonParse, FuzzedInputNeverCrashes) {
  // Random byte soup plus random truncations of a valid document: every
  // outcome must be a clean Status, never a crash or hang.
  const std::string valid = WriteJson([] {
    JsonValue obj = JsonValue::Object();
    obj.Set("a", JsonValue(1.5));
    JsonValue arr = JsonValue::Array();
    arr.Append(JsonValue("x"));
    arr.Append(JsonValue(true));
    obj.Set("b", std::move(arr));
    return obj;
  }());
  Rng rng(77);
  for (int i = 0; i < 5000; ++i) {
    std::string input;
    if (i % 2 == 0) {
      const size_t len = rng.UniformInt(64);
      for (size_t j = 0; j < len; ++j) {
        input.push_back(static_cast<char>(rng.UniformInt(256)));
      }
    } else {
      input = valid.substr(0, rng.UniformInt(valid.size() + 1));
      if (!input.empty() && rng.Bernoulli(0.5)) {
        input[rng.UniformInt(input.size())] =
            static_cast<char>(rng.UniformInt(256));
      }
    }
    auto v = ParseJson(input);  // must return, whatever the verdict
    if (!v.ok()) {
      EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

// ------------------------------------------------------- net/json_codec

/// Builds a request with every field moved off its default, pseudo-randomly
/// per `seed` — the property-test generator. Always valid (the decoder
/// runs ValidateAndNormalize), so record_evaluations implies validate.
v2::MineRequest RandomizedRequest(uint64_t seed) {
  Rng rng(seed);
  v2::MineRequest r;
  r.dataset = "ds_" + std::to_string(rng.UniformInt(1000));
  Statistic& stat = r.query.statistic;
  stat.kind = static_cast<StatisticKind>(rng.UniformInt(6));
  stat.region_cols = {rng.UniformInt(4), 4 + rng.UniformInt(4)};
  stat.value_col = static_cast<int>(rng.UniformInt(8));
  stat.label_value = rng.Uniform(-5, 5);
  r.query.threshold = rng.Gaussian(500, 200);
  r.query.direction = rng.Bernoulli(0.5) ? ThresholdDirection::kAbove
                                         : ThresholdDirection::kBelow;
  r.query.kind = rng.Bernoulli(0.5) ? v2::QueryKind::kThreshold
                                    : v2::QueryKind::kTopK;
  TopKConfig& topk = r.search.topk;
  topk.k = 1 + rng.UniformInt(9);
  topk.c = rng.Uniform(0.1, 2.0);
  topk.nms_max_iou = rng.Uniform();
  topk.gso.num_glowworms = 10 + rng.UniformInt(300);
  topk.gso.seed = rng.UniformInt(1 << 30);
  FinderConfig& finder = r.search.finder;
  finder.c = rng.Uniform(0.5, 8.0);
  finder.auto_scale_gso = rng.Bernoulli(0.5);
  finder.use_log_objective = rng.Bernoulli(0.5);
  finder.nms_max_iou = rng.Uniform();
  finder.max_regions = 1 + rng.UniformInt(31);
  finder.use_kde_guidance = rng.Bernoulli(0.5);
  finder.use_kde_seeding = rng.Bernoulli(0.5);
  finder.gso.max_iterations = 10 + rng.UniformInt(200);
  finder.gso.luciferin_decay = rng.Uniform();
  finder.gso.luciferin_gain = rng.Uniform();
  finder.gso.initial_radius_frac = rng.Uniform();
  finder.gso.step_frac = rng.Uniform(0.001, 0.1);
  finder.gso.kde_seeded_fraction = rng.Uniform();
  finder.gso.kde_mass_guidance = rng.Bernoulli(0.5);
  finder.gso.exploration_restart_prob = rng.Uniform();
  finder.gso.desired_neighbors = 1 + rng.UniformInt(10);
  finder.gso.seed = rng.UniformInt(1 << 30);
  WorkloadParams& workload = r.training.workload;
  workload.num_queries = 100 + rng.UniformInt(100000);
  workload.min_length_frac = rng.Uniform(0.001, 0.05);
  workload.max_length_frac = rng.Uniform(0.05, 0.4);
  workload.drop_undefined = rng.Bernoulli(0.5);
  workload.seed = rng.UniformInt(1 << 30);
  SurrogateTrainOptions& surrogate = r.training.surrogate;
  surrogate.gbrt.learning_rate = rng.Uniform(0.001, 0.5);
  surrogate.gbrt.n_estimators = 50 + rng.UniformInt(400);
  surrogate.gbrt.max_depth = 2 + rng.UniformInt(10);
  surrogate.gbrt.reg_lambda = rng.Uniform(0.0001, 2.0);
  surrogate.gbrt.subsample = rng.Uniform(0.5, 1.0);
  surrogate.gbrt.colsample = rng.Uniform(0.5, 1.0);
  surrogate.gbrt.max_bins = 16 + rng.UniformInt(240);
  surrogate.gbrt.seed = rng.UniformInt(1 << 30);
  surrogate.hypertune = rng.Bernoulli(0.3);
  surrogate.grid.learning_rates = {rng.Uniform(0.01, 0.2)};
  surrogate.grid.max_depths = {2 + rng.UniformInt(8), 2 + rng.UniformInt(8)};
  surrogate.cv_folds = 2 + rng.UniformInt(4);
  surrogate.test_fraction = rng.Uniform(0.1, 0.4);
  surrogate.seed = rng.UniformInt(1 << 30);
  v2::ExecutionPolicy& execution = r.execution;
  execution.backend =
      rng.Bernoulli(0.5) ? BackendKind::kScan : BackendKind::kGridIndex;
  execution.shards = 1 + rng.UniformInt(64);
  execution.cluster = rng.Bernoulli(0.5);
  execution.use_kde = rng.Bernoulli(0.5);
  execution.record_evaluations = rng.Bernoulli(0.5);
  execution.validate = execution.record_evaluations || rng.Bernoulli(0.5);
  execution.deadline_seconds = rng.Uniform(0.0, 30.0);
  execution.trace = rng.Bernoulli(0.5);
  return r;
}

/// A valid flat v1 document with every top-level field present — the v1
/// seed of the fuzz test.
constexpr const char* kFullV1Document = R"({
  "dataset": "d",
  "statistic": {"kind": "avg", "region_cols": [0, 1], "value_col": 2,
                "label_value": 1},
  "threshold": 12.5, "direction": "below", "mode": "topk",
  "topk": {"k": 3, "c": 0.8, "nms_max_iou": 0.3,
           "gso": {"num_glowworms": 50, "seed": 4}},
  "finder": {"c": 2, "max_regions": 5, "gso": {"max_iterations": 40}},
  "workload": {"num_queries": 500, "seed": 3},
  "surrogate": {"gbrt": {"n_estimators": 30}, "cv_folds": 3},
  "backend": "scan", "shards": 2, "cluster": false, "use_kde": true,
  "validate": true, "record_evaluations": false, "trace": false})";

TEST(MineRequestCodec, RoundTripIsLossless) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const v2::MineRequest original = RandomizedRequest(seed);
    const JsonValue encoded = MineRequestV2ToJson(original);
    auto decoded = MineRequestV2FromJson(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

    // Lossless: re-encoding the decoded request reproduces the document
    // byte-for-byte (the writer is deterministic), so no field was
    // dropped, defaulted, or rounded.
    EXPECT_EQ(WriteJson(MineRequestV2ToJson(*decoded)), WriteJson(encoded))
        << "seed " << seed;

    // Spot checks on semantically-critical fields.
    EXPECT_EQ(decoded->dataset, original.dataset);
    EXPECT_EQ(decoded->query.kind, original.query.kind);
    EXPECT_EQ(decoded->query.direction, original.query.direction);
    EXPECT_EQ(decoded->query.threshold, original.query.threshold);
    EXPECT_EQ(decoded->execution.backend, original.execution.backend);
    EXPECT_EQ(decoded->search.finder.gso.seed,
              original.search.finder.gso.seed);

    // The cache key is derived from (statistic, workload, model recipe):
    // equal fingerprints mean an HTTP round trip targets the same cached
    // surrogate as the in-process request.
    EXPECT_EQ(FingerprintStatistic(decoded->query.statistic),
              FingerprintStatistic(original.query.statistic));
    EXPECT_EQ(FingerprintWorkloadParams(decoded->training.workload),
              FingerprintWorkloadParams(original.training.workload));
    EXPECT_EQ(FingerprintTrainOptions(decoded->training.surrogate),
              FingerprintTrainOptions(original.training.surrogate));
  }
}

TEST(MineRequestCodec, MinimalRequestUsesDefaults) {
  const v2::MineRequest defaults;
  for (const char* text :
       {R"({"dataset": "d", "statistic": {"region_cols": [0, 1]}})",
        R"({"api_version": 2, "dataset": "d",
            "query": {"statistic": {"region_cols": [0, 1]}}})"}) {
    auto decoded = MineRequestV2FromJson(*ParseJson(text));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->query.statistic.kind, StatisticKind::kCount);
    EXPECT_EQ(decoded->query.kind, v2::QueryKind::kThreshold);
    EXPECT_EQ(decoded->training.workload.num_queries,
              defaults.training.workload.num_queries);
    EXPECT_EQ(decoded->search.finder.max_regions,
              defaults.search.finder.max_regions);
    EXPECT_EQ(decoded->execution.use_kde, defaults.execution.use_kde);
    EXPECT_EQ(decoded->execution.shards, 1u);
  }
}

/// One invalid mining body per error class, in both wire schemas.
constexpr const char* kBadMineRequests[] = {
    R"([1, 2])",                                        // not an object
    R"({"statistic": {"region_cols": [0]}})",           // missing dataset
    R"({"dataset": "d"})",                              // no region cols
    R"({"dataset": "d", "statistic": {"region_cols": [0],
        "kind": "p99"}})",                              // unknown kind
    R"({"dataset": "d", "statistic": {"region_cols": [0]},
        "direction": "sideways"})",                     // bad enum
    R"({"dataset": "d", "statistic": {"region_cols": [0]},
        "threshold": "high"})",                         // wrong type
    R"({"dataset": "d", "statistic": {"region_cols": [0]},
        "workload": {"num_queries": -4}})",             // negative size
    R"({"dataset": "d", "statistic": {"region_cols": [0]},
        "workload": {"seed": 1.5}})",                   // fractional seed
    R"({"dataset": "d", "statistic": {"region_cols": ["x"]}})",
    // ^ name resolution without a resolver
    R"({"dataset": "d", "statistic": {"region_cols": [0, 1e300]}})",
    // ^ index too large to cast (would be UB unchecked)
    R"({"dataset": "d", "statistic": {"region_cols": [0],
        "value_col": 1e18}})",                        // beyond int range
    R"({"dataset": "d", "statistic": {"region_cols": [0],
        "value_col": -2}})",                          // only -1 is legal
    R"({"dataset": "d", "statistic": {"region_cols": [0]},
        "surrogate": {"grid": {"max_depths": [1e300]}}})",
    // The same classes of error in the v2 named-section schema.
    R"({"api_version": 2, "statistic": {"region_cols": [0]}})",
    R"({"api_version": 2, "dataset": "d"})",
    R"({"api_version": 2, "dataset": "d", "query": [1]})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}, "kind": "bottomk"}})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}}, "execution": {"shards": 1e9}})",
    R"({"api_version": 3, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}}})",
};

TEST(MineRequestCodec, RejectsBadDocuments) {
  for (const char* text : kBadMineRequests) {
    auto json = ParseJson(text);
    ASSERT_TRUE(json.ok()) << text;
    auto decoded = MineRequestV2FromJson(*json);
    ASSERT_FALSE(decoded.ok()) << "accepted: " << text;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(MineRequestCodec, ResolvesColumnNames) {
  const ColumnResolver resolver = [](const std::string& dataset,
                                     const std::string& column) {
    if (dataset != "trips") return -1;
    if (column == "x") return 2;
    if (column == "y") return 5;
    if (column == "fare") return 7;
    return -1;
  };
  for (const char* text :
       {R"({"dataset": "trips",
            "statistic": {"kind": "avg", "region_cols": ["x", "y"],
                          "value_col": "fare"}})",
        R"({"api_version": 2, "dataset": "trips", "query":
            {"statistic": {"kind": "avg", "region_cols": ["x", "y"],
                           "value_col": "fare"}}})"}) {
    auto decoded = MineRequestV2FromJson(*ParseJson(text), &resolver);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->query.statistic.region_cols,
              (std::vector<size_t>{2, 5}));
    EXPECT_EQ(decoded->query.statistic.value_col, 7);
  }

  auto unknown = MineRequestV2FromJson(
      *ParseJson(R"({"dataset": "trips",
                     "statistic": {"region_cols": ["nope"]}})"),
      &resolver);
  EXPECT_FALSE(unknown.ok());
}

TEST(ProvenanceCodec, FieldFidelity) {
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    SurrogateProvenance p;
    p.dataset_fingerprint = rng.Next();  // full 64-bit range
    p.training_set_size = rng.UniformInt(1u << 20);
    p.cv_rmse = i % 4 == 0 ? std::numeric_limits<double>::quiet_NaN()
                           : rng.Uniform(0, 100);
    p.holdout_rmse = rng.Uniform(0, 100);
    p.train_seconds = rng.Uniform(0, 1000);
    p.warm_starts = rng.UniformInt(50);
    p.pending_examples = rng.UniformInt(4096);
    if (i % 3 == 0) {
      p.degraded = true;
      p.degraded_reason = "stale-while-revalidate: retrain in flight";
    }

    auto decoded = ProvenanceFromJson(ProvenanceToJson(p));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->dataset_fingerprint, p.dataset_fingerprint);
    EXPECT_EQ(decoded->training_set_size, p.training_set_size);
    EXPECT_EQ(decoded->degraded, p.degraded);
    EXPECT_EQ(decoded->degraded_reason, p.degraded_reason);
    // Non-degraded provenance stays byte-identical to the pre-failpoint
    // wire form: the degraded fields only appear once true.
    if (!p.degraded) {
      EXPECT_EQ(WriteJson(ProvenanceToJson(p)).find("degraded"),
                std::string::npos);
    }
    EXPECT_EQ(decoded->holdout_rmse, p.holdout_rmse);
    EXPECT_EQ(decoded->train_seconds, p.train_seconds);
    EXPECT_EQ(decoded->warm_starts, p.warm_starts);
    EXPECT_EQ(decoded->pending_examples, p.pending_examples);
    if (std::isnan(p.cv_rmse)) {
      EXPECT_TRUE(std::isnan(decoded->cv_rmse));
      // The wire form must be null, not a NaN token.
      EXPECT_NE(WriteJson(ProvenanceToJson(p)).find("\"cv_rmse\":null"),
                std::string::npos);
    } else {
      EXPECT_EQ(decoded->cv_rmse, p.cv_rmse);
    }
  }
}

TEST(MineResponseCodec, RegionsRoundTripBitExactly) {
  Rng rng(31);
  v2::MineResponse response;
  response.cache_hit = true;
  response.total_seconds = 0.125;
  response.provenance.dataset_fingerprint = rng.Next();
  response.provenance.training_set_size = 9000;
  for (int i = 0; i < 8; ++i) {
    FoundRegion r;
    r.region = Region({rng.Uniform(-100, 100), rng.Uniform(-100, 100)},
                      {rng.Uniform(0, 10), rng.Uniform(0, 10)});
    r.fitness = rng.Gaussian();
    r.estimate = rng.Gaussian(100, 30);
    r.true_value = i % 3 == 0 ? std::numeric_limits<double>::quiet_NaN()
                              : rng.Gaussian(100, 30);
    r.complies_true = i % 2 == 0;
    response.result.regions.push_back(r);
  }
  response.result.report.seconds = 0.5;
  response.result.report.iterations = 120;
  response.result.report.objective_evaluations = 12000;
  response.result.report.particle_valid_fraction = 0.84;
  response.result.report.converged = true;
  response.result.report.true_compliance = 0.75;

  const std::string wire = WriteJson(
      MineResponseV2ToJson(response, v2::QueryKind::kThreshold));
  auto parsed_json = ParseJson(wire);
  ASSERT_TRUE(parsed_json.ok());
  auto decoded = MineResponseFromJson(*parsed_json);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  EXPECT_EQ(decoded->api_version, 2);
  EXPECT_TRUE(decoded->status.ok());
  EXPECT_TRUE(decoded->cache_hit);
  EXPECT_EQ(decoded->provenance.dataset_fingerprint,
            response.provenance.dataset_fingerprint);
  ASSERT_EQ(decoded->result.regions.size(), response.result.regions.size());
  for (size_t i = 0; i < response.result.regions.size(); ++i) {
    const FoundRegion& a = response.result.regions[i];
    const FoundRegion& b = decoded->result.regions[i];
    // Bit-identical geometry is what the HTTP parity acceptance check
    // rests on.
    EXPECT_EQ(a.region, b.region) << "region " << i;
    EXPECT_EQ(a.fitness, b.fitness);
    EXPECT_EQ(a.estimate, b.estimate);
    if (std::isnan(a.true_value)) {
      EXPECT_TRUE(std::isnan(b.true_value));
    } else {
      EXPECT_EQ(a.true_value, b.true_value);
    }
    EXPECT_EQ(a.complies_true, b.complies_true);
  }
  EXPECT_EQ(decoded->result.report.objective_evaluations, 12000u);
  EXPECT_EQ(decoded->result.report.converged, true);

  // Error statuses survive the wire too.
  v2::MineResponse failed;
  failed.status = Status::NotFound("dataset 'x' not registered");
  auto failed_back = MineResponseFromJson(*ParseJson(WriteJson(
      MineResponseV2ToJson(failed, v2::QueryKind::kThreshold))));
  ASSERT_TRUE(failed_back.ok());
  EXPECT_EQ(failed_back->status.code(), StatusCode::kNotFound);
  EXPECT_EQ(failed_back->status.message(), "dataset 'x' not registered");

  // A version stamp this build cannot speak is rejected, not truncated.
  for (const char* text : {R"({"api_version": 3})",
                           R"({"api_version": 4294967298})"}) {
    EXPECT_FALSE(MineResponseFromJson(*ParseJson(text)).ok()) << text;
  }
}

TEST(StatusMapping, LibraryCodesMapOntoHttp) {
  EXPECT_EQ(HttpStatusFromStatus(Status::OK()), 200);
  EXPECT_EQ(HttpStatusFromStatus(Status::InvalidArgument("")), 400);
  EXPECT_EQ(HttpStatusFromStatus(Status::NotFound("")), 404);
  EXPECT_EQ(HttpStatusFromStatus(Status::AlreadyExists("")), 409);
  EXPECT_EQ(HttpStatusFromStatus(Status::TimedOut("")), 408);
  EXPECT_EQ(HttpStatusFromStatus(Status::FailedPrecondition("")), 412);
  EXPECT_EQ(HttpStatusFromStatus(Status::Internal("")), 500);
  EXPECT_EQ(HttpStatusFromStatus(Status::IOError("")), 500);
  EXPECT_EQ(HttpStatusFromStatus(Status::OutOfRange("")), 400);
}

// ------------------------------------------- accumulator / sketch wire

/// Every statistic kind, with a value column where one is needed.
std::vector<Statistic> AllStatisticKinds() {
  return {Statistic::Count({0, 1}),
          Statistic::Average({0, 1}, 2),
          Statistic::Sum({0, 1}, 2),
          Statistic::MedianOf({0, 1}, 2),
          Statistic::VarianceOf({0, 1}, 2),
          Statistic::LabelRatio({0, 1}, 2, 1.0)};
}

/// Bitwise double equality (NaN == NaN, -0.0 != +0.0): the merge-law
/// contract is bit identity, not numeric closeness.
bool BitEqual(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

TEST(AccumulatorCodec, SerializeDeserializeMergeIsBitIdentical) {
  // The distributed merge law: deserialize each per-shard partial from
  // its wire form, fold in ascending shard order, and the finalized
  // value is bit-identical to folding the in-process originals. Checked
  // for every statistic kind over many random splits — this is the
  // property the coordinator's correctness rests on.
  for (const Statistic& stat : AllStatisticKinds()) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      Rng rng(seed * 1000 + static_cast<uint64_t>(stat.kind));
      const size_t num_shards = 1 + rng.UniformInt(6);
      std::vector<StatisticAccumulator> partials(num_shards,
                                                 StatisticAccumulator(stat));
      for (size_t s = 0; s < num_shards; ++s) {
        const size_t rows = rng.UniformInt(200);
        for (size_t i = 0; i < rows; ++i) {
          // Mix magnitudes so summation order matters: any reassociation
          // in the codec path would show up as a bit difference.
          partials[s].Add(rng.Bernoulli(0.2)
                              ? rng.Gaussian() * 1e12
                              : (rng.Bernoulli(0.3) ? 1.0 : rng.Gaussian()));
        }
      }

      // In-process fold: seed with shard 0, merge 1..N-1 ascending.
      StatisticAccumulator direct = partials[0];
      for (size_t s = 1; s < num_shards; ++s) direct.Merge(partials[s]);

      // Wire fold: same shape, but every operand went through
      // JSON text and back.
      std::vector<StatisticAccumulator> decoded;
      for (const StatisticAccumulator& p : partials) {
        auto parsed = ParseJson(WriteJson(p.ToJson()));
        ASSERT_TRUE(parsed.ok());
        auto back = StatisticAccumulator::FromJson(*parsed, stat);
        ASSERT_TRUE(back.ok()) << back.status().ToString();
        decoded.push_back(std::move(back).value());
      }
      StatisticAccumulator wire = decoded[0];
      for (size_t s = 1; s < num_shards; ++s) wire.Merge(decoded[s]);

      EXPECT_EQ(wire.count(), direct.count())
          << StatisticKindName(stat.kind) << " seed " << seed;
      EXPECT_TRUE(BitEqual(wire.Finalize(), direct.Finalize()))
          << StatisticKindName(stat.kind) << " seed " << seed << ": "
          << wire.Finalize() << " vs " << direct.Finalize();
    }
  }
}

TEST(AccumulatorCodec, WireFormIsStableUnderRoundTrip) {
  // ToJson∘FromJson∘ToJson is the identity on documents: no field is
  // dropped, re-defaulted, or re-rounded by a decode/encode cycle.
  for (const Statistic& stat : AllStatisticKinds()) {
    Rng rng(7 + static_cast<uint64_t>(stat.kind));
    StatisticAccumulator acc(stat);
    for (int i = 0; i < 300; ++i) acc.Add(rng.Gaussian(3.0, 10.0));
    const std::string wire = WriteJson(acc.ToJson());
    auto parsed = ParseJson(wire);
    ASSERT_TRUE(parsed.ok());
    auto decoded = StatisticAccumulator::FromJson(*parsed, stat);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(WriteJson(decoded->ToJson()), wire)
        << StatisticKindName(stat.kind);
  }
}

TEST(AccumulatorCodec, NonFiniteSumsSurviveTheWire) {
  // Hex-encoded IEEE-754 bit patterns carry NaN/Inf states that JSON
  // numbers cannot; an overflowed sum must not decode as null/0.
  const Statistic stat = Statistic::Sum({0}, 1);
  StatisticAccumulator acc(stat);
  acc.Add(std::numeric_limits<double>::infinity());
  acc.Add(-std::numeric_limits<double>::infinity());  // sum is now NaN
  auto parsed = ParseJson(WriteJson(acc.ToJson()));
  ASSERT_TRUE(parsed.ok());
  auto decoded = StatisticAccumulator::FromJson(*parsed, stat);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(BitEqual(decoded->Finalize(), acc.Finalize()));
}

TEST(AccumulatorCodec, RejectsMalformedDocuments) {
  const Statistic stat = Statistic::MedianOf({0}, 1);
  const char* cases[] = {
      R"([1])",                                  // not an object
      R"({"count": -1, "sum": "0x0"})",          // negative count
      R"({"count": 1.5, "sum": "0x0"})",         // fractional count
      R"({"count": 1, "sum": "zebra"})",         // unparseable hex
      R"({"count": 1, "sum": 12})",              // sum must be hex string
      R"({"count": 1, "sum": "0x0", "sketch": [1]})",  // sketch not object
  };
  for (const char* text : cases) {
    auto json = ParseJson(text);
    ASSERT_TRUE(json.ok()) << text;
    auto decoded = StatisticAccumulator::FromJson(*json, stat);
    EXPECT_FALSE(decoded.ok()) << "accepted: " << text;
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(QuantileSketchCodec, RoundTripIsBitExactEvenAfterCompaction) {
  // Push far past capacity so the compactor hierarchy, parities, and
  // counters all carry state, then require the document and the median
  // to survive a round trip bit for bit.
  QuantileSketch sketch(64);
  Rng rng(42);
  for (int i = 0; i < 5000; ++i) sketch.Add(rng.Gaussian() * 100.0);
  ASSERT_FALSE(sketch.exact());  // compactions really happened
  const std::string wire = WriteJson(sketch.ToJson());
  auto parsed = ParseJson(wire);
  ASSERT_TRUE(parsed.ok());
  auto decoded = QuantileSketch::FromJson(*parsed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(WriteJson(decoded->ToJson()), wire);
  EXPECT_EQ(decoded->count(), sketch.count());
  EXPECT_EQ(decoded->compactions(), sketch.compactions());
  EXPECT_TRUE(BitEqual(decoded->Median(), sketch.Median()));

  // Merging deserialized sketches equals merging the originals.
  QuantileSketch other(64);
  for (int i = 0; i < 3000; ++i) other.Add(rng.Gaussian(50, 10));
  auto other_back = QuantileSketch::FromJson(*ParseJson(
      WriteJson(other.ToJson())));
  ASSERT_TRUE(other_back.ok());
  QuantileSketch merged_direct = sketch;
  merged_direct.Merge(other);
  decoded->Merge(*other_back);
  EXPECT_EQ(WriteJson(decoded->ToJson()), WriteJson(merged_direct.ToJson()));
}

// ------------------------------------------ shard-evaluate wire codecs

dist::ShardEvaluateRequest SampleShardRequest() {
  dist::ShardEvaluateRequest r;
  r.dataset = "trips";
  r.has_fingerprint = true;
  r.fingerprint = 0xDEADBEEFCAFEF00Dull;
  r.statistic = Statistic::Average({0, 1}, 2);
  r.num_shards = 8;
  r.order_by = 0;
  r.columns = {0, 1, 2};
  r.shards = {2, 3, 5};
  r.queries = {Region({0.0, 0.0}, {1.0, 1.0}),
               Region({-3.5, 2.25}, {0.5, 4.0})};
  r.deadline_seconds = 12.5;
  return r;
}

TEST(ShardEvaluateCodec, RequestRoundTripIsLossless) {
  const dist::ShardEvaluateRequest original = SampleShardRequest();
  const JsonValue encoded = ShardEvaluateRequestToJson(original);
  auto decoded = ShardEvaluateRequestFromJson(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(WriteJson(ShardEvaluateRequestToJson(*decoded)),
            WriteJson(encoded));
  EXPECT_EQ(decoded->dataset, original.dataset);
  EXPECT_TRUE(decoded->has_fingerprint);
  // The fingerprint uses the full 64-bit range — a JSON number would
  // round it above 2^53; the hex-string wire form must not.
  EXPECT_EQ(decoded->fingerprint, original.fingerprint);
  EXPECT_EQ(decoded->num_shards, original.num_shards);
  EXPECT_EQ(decoded->order_by, original.order_by);
  EXPECT_EQ(decoded->columns, original.columns);
  EXPECT_EQ(decoded->shards, original.shards);
  ASSERT_EQ(decoded->queries.size(), original.queries.size());
  for (size_t i = 0; i < original.queries.size(); ++i) {
    EXPECT_EQ(decoded->queries[i], original.queries[i]);
  }
  EXPECT_EQ(decoded->deadline_seconds, original.deadline_seconds);

  // Without a fingerprint the key is absent, and decodes as "unchecked".
  dist::ShardEvaluateRequest bare = original;
  bare.has_fingerprint = false;
  bare.fingerprint = 0;
  const std::string bare_wire = WriteJson(ShardEvaluateRequestToJson(bare));
  EXPECT_EQ(bare_wire.find("fingerprint"), std::string::npos);
  auto bare_back = ShardEvaluateRequestFromJson(*ParseJson(bare_wire));
  ASSERT_TRUE(bare_back.ok());
  EXPECT_FALSE(bare_back->has_fingerprint);
}

/// SampleShardRequest's document with `key` set to the JSON `value`.
std::string MutatedShardRequest(const std::string& key,
                                const std::string& value) {
  auto json = ParseJson(WriteJson(ShardEvaluateRequestToJson(
      SampleShardRequest())));
  EXPECT_TRUE(json.ok());
  json->Set(key, *ParseJson(value));
  return WriteJson(*json);
}

/// Invalid shard-evaluate bodies, mutated one field at a time off a valid
/// document.
std::vector<std::string> BadShardRequests() {
  return {
      MutatedShardRequest("dataset", "17"),           // wrong type
      MutatedShardRequest("num_shards", "0"),         // must be >= 1
      MutatedShardRequest("shards", "[]"),            // empty assignment
      MutatedShardRequest("shards", "[3, 2, 5]"),     // not ascending
      MutatedShardRequest("shards", "[2, 2, 5]"),     // duplicate
      MutatedShardRequest("shards", "[2, 3, 8]"),     // index >= num_shards
      MutatedShardRequest("order_by", "1.5"),         // fractional
      MutatedShardRequest("deadline_seconds", "-1"),  // negative
      MutatedShardRequest("fingerprint", "\"xyz\""),  // unparseable hex
      R"({"statistic": {"region_cols": [0]}, "num_shards": 1,
          "shards": [0], "queries": []})",  // missing dataset
  };
}

TEST(ShardEvaluateCodec, RequestRejectsBadDocuments) {
  for (const std::string& text : BadShardRequests()) {
    auto json = ParseJson(text);
    ASSERT_TRUE(json.ok()) << text;
    auto decoded = ShardEvaluateRequestFromJson(*json);
    EXPECT_FALSE(decoded.ok()) << "accepted: " << text;
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(ShardEvaluateCodec, ResponsePartialsSurviveBitExactly) {
  // partials[q][s] round-trips with merge-law fidelity: finalizing a
  // fold of decoded partials equals finalizing a fold of the originals.
  const Statistic stat = Statistic::VarianceOf({0}, 1);
  Rng rng(314);
  dist::ShardEvaluateResponse response;
  for (int q = 0; q < 3; ++q) {
    std::vector<StatisticAccumulator> row;
    for (int s = 0; s < 4; ++s) {
      StatisticAccumulator acc(stat);
      const size_t rows = rng.UniformInt(50);
      for (size_t i = 0; i < rows; ++i) acc.Add(rng.Gaussian() * 1e6);
      row.push_back(std::move(acc));
    }
    response.partials.push_back(std::move(row));
  }
  auto parsed = ParseJson(WriteJson(ShardEvaluateResponseToJson(response)));
  ASSERT_TRUE(parsed.ok());
  auto decoded = ShardEvaluateResponseFromJson(*parsed, stat);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->partials.size(), response.partials.size());
  for (size_t q = 0; q < response.partials.size(); ++q) {
    ASSERT_EQ(decoded->partials[q].size(), response.partials[q].size());
    StatisticAccumulator direct = response.partials[q][0];
    StatisticAccumulator wire = decoded->partials[q][0];
    for (size_t s = 1; s < response.partials[q].size(); ++s) {
      direct.Merge(response.partials[q][s]);
      wire.Merge(decoded->partials[q][s]);
    }
    EXPECT_EQ(wire.count(), direct.count()) << "query " << q;
    EXPECT_TRUE(BitEqual(wire.Finalize(), direct.Finalize())) << "query " << q;
  }
}

/// Invalid shard-evaluate responses (decoded as a count statistic).
constexpr const char* kBadShardResponses[] = {
    R"({"partials": 3})", R"({"partials": [7]})",
    R"({"partials": [[{"count": -2}]]})", R"([1, 2])"};

TEST(ShardEvaluateCodec, ResponseRejectsBadDocuments) {
  const Statistic stat = Statistic::Count({0});
  for (const char* text : kBadShardResponses) {
    auto json = ParseJson(text);
    ASSERT_TRUE(json.ok()) << text;
    auto decoded = ShardEvaluateResponseFromJson(*json, stat);
    EXPECT_FALSE(decoded.ok()) << "accepted: " << text;
  }
}

TEST(MineRequestCodec, ClusterFlagRoundTripsInBothSchemas) {
  // v1 flat form: the top-level flag lands in the execution recipe.
  auto from_v1 = MineRequestV2FromJson(*ParseJson(
      R"({"dataset": "d", "statistic": {"region_cols": [0, 1]},
          "cluster": true})"));
  ASSERT_TRUE(from_v1.ok()) << from_v1.status().ToString();
  EXPECT_TRUE(from_v1->execution.cluster);
  // Default stays false when the key is absent.
  auto v1_default = MineRequestV2FromJson(*ParseJson(
      R"({"dataset": "d", "statistic": {"region_cols": [0]}})"));
  ASSERT_TRUE(v1_default.ok());
  EXPECT_FALSE(v1_default->execution.cluster);

  // v2 named-section form: execution.cluster survives the codec.
  v2::MineRequest request;
  request.dataset = "d";
  request.query.statistic = Statistic::Count({0, 1});
  request.execution.cluster = true;
  auto v2_back = MineRequestV2FromJson(*ParseJson(
      WriteJson(MineRequestV2ToJson(request))));
  ASSERT_TRUE(v2_back.ok()) << v2_back.status().ToString();
  EXPECT_TRUE(v2_back->execution.cluster);
}

/// The structured-fuzz loop: random byte edits of one valid document;
/// whenever the JSON itself parses, `decode` must return a clean status
/// (either outcome), never crash.
template <typename Decode>
void FuzzDecoder(const std::string& valid, Rng& rng, Decode decode) {
  for (int i = 0; i < 2000; ++i) {
    std::string input = valid;
    const size_t edits = 1 + rng.UniformInt(8);
    for (size_t e = 0; e < edits; ++e) {
      input[rng.UniformInt(input.size())] =
          static_cast<char>(rng.UniformInt(128));
    }
    auto json = ParseJson(input);
    if (!json.ok()) continue;
    auto decoded = decode(*json);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(MineRequestCodec, FuzzedDocumentsNeverCrash) {
  // Structured fuzz: parse random mutations of one valid document of each
  // schema; whenever the JSON itself parses, the decoder must return a
  // clean status (either outcome), never crash.
  const std::string seeds[] = {
      WriteJson(MineRequestV2ToJson(RandomizedRequest(5))),
      kFullV1Document,
  };
  Rng rng(99);
  for (const std::string& valid : seeds) {
    ASSERT_TRUE(MineRequestV2FromJson(*ParseJson(valid)).ok()) << valid;
    FuzzDecoder(valid, rng, [](const JsonValue& json) {
      return MineRequestV2FromJson(json);
    });
  }
}

// ---------------------------------------------- golden codec corpus
//
// json_codec_golden.txt pins what the codec does on the wire: the exact
// bytes it writes and the exact text of every rejection. Each line is
// `name<TAB>text`, in GoldenCorpus() order. The file was written by the
// hand-written codec that preceded the field lists; it is not
// regenerated to make a change pass, since a difference is a wire change.

/// A threshold response exercising every field: degraded provenance,
/// NaN cv_rmse (the default) and NaN true_value, which travel as null.
v2::MineResponse SampleThresholdResponse() {
  Rng rng(31);
  v2::MineResponse response;
  response.cache_hit = true;
  response.total_seconds = 0.125;
  SurrogateProvenance& provenance = response.provenance;
  provenance.dataset_fingerprint = rng.Next();
  provenance.training_set_size = 9000;
  provenance.holdout_rmse = rng.Uniform(0, 10);
  provenance.train_seconds = rng.Uniform(0, 3);
  provenance.warm_starts = 2;
  provenance.pending_examples = 17;
  provenance.degraded = true;
  provenance.degraded_reason = "stale-while-revalidate: retrain in flight";
  for (int i = 0; i < 4; ++i) {
    FoundRegion r;
    r.region = Region({rng.Uniform(-100, 100), rng.Uniform(-100, 100)},
                      {rng.Uniform(0, 10), rng.Uniform(0, 10)});
    r.fitness = rng.Gaussian();
    r.estimate = rng.Gaussian(100, 30);
    r.true_value = i % 2 == 0 ? std::numeric_limits<double>::quiet_NaN()
                              : rng.Gaussian(100, 30);
    r.complies_true = i % 3 == 0;
    response.result.regions.push_back(r);
  }
  FindReport& report = response.result.report;
  report.seconds = rng.Uniform(0, 1);
  report.iterations = 120;
  report.objective_evaluations = 12000;
  report.particle_valid_fraction = rng.Uniform();
  report.converged = true;
  report.true_compliance = 0.75;
  return response;
}

/// A top-k response with a finite cv_rmse and no degradation.
v2::MineResponse SampleTopKResponse() {
  Rng rng(32);
  v2::MineResponse response;
  response.total_seconds = rng.Uniform(0, 2);
  response.provenance.dataset_fingerprint = rng.Next();
  response.provenance.training_set_size = 500;
  response.provenance.cv_rmse = rng.Uniform(0, 5);
  response.provenance.holdout_rmse = rng.Uniform(0, 5);
  for (int i = 0; i < 3; ++i) {
    ScoredRegion r;
    r.region = Region({rng.Uniform(-1, 1)}, {rng.Uniform(0, 1)});
    r.fitness = rng.Gaussian();
    r.statistic = rng.Gaussian(10, 3);
    response.topk.regions.push_back(r);
  }
  response.topk.iterations = 77;
  response.topk.objective_evaluations = 4321;
  response.topk.cancelled = true;
  return response;
}

/// One wrong type per field codec (and a few semantic errors), on top of
/// kBadMineRequests; some list several faults to pin which one is named.
constexpr const char* kMoreMineRequests[] = {
    // bool, number, integer, string
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}}, "execution": {"cluster": "yes"}})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}}, "search": {"finder": {"c": "x"}}})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}, "threshold": null}})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}}, "training": {"workload":
        {"num_queries": "many"}}})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}}, "search": {"topk": {"gso": {"seed": -1}}}})",
    R"({"api_version": 2, "dataset": 17, "query": {"statistic":
        {"region_cols": [0]}}})",
    R"({"api_version": "2", "dataset": "d"})",
    // arrays
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}}, "training": {"surrogate": {"grid":
        {"learning_rates": 3}}}})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}}, "training": {"surrogate": {"grid":
        {"reg_lambdas": [1, "x"]}}}})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}}, "training": {"surrogate": {"grid":
        {"n_estimators": "x"}}}})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}}, "training": {"surrogate": {"grid":
        {"max_depths": [-1]}}}})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": 3}}})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0, true]}}})",
    // objects
    R"({"api_version": 2, "dataset": "d", "query": {"statistic": 1}})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}}, "search": [1]})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}}, "search": {"finder": {"gso": "x"}}})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}}, "search": {"topk": 5}})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}}, "training": [1]})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}}, "training": {"surrogate": {"gbrt": []}}})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}}, "execution": 5})",
    // enum names, and enums of the wrong type
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}}, "execution": {"backend": "kd_tree"}})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}}, "execution": {"backend": 7}})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}, "direction": true}})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0], "kind": 4}}})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0], "kind": "label_ratio", "value_col": 1}}})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0], "value_col": true}}})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0], "value_col": "fare"}}})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}}, "execution": {"deadline_seconds": -1}})",
    // the flat v1 schema
    R"({"dataset": "d", "statistic": {"region_cols": [0]}, "mode": "bogus"})",
    R"({"dataset": "d", "statistic": {"region_cols": [0]}, "mode": 2})",
    R"({"dataset": "d", "statistic": {"region_cols": [0]},
        "backend": "rtree"})",
    R"({"dataset": "d", "statistic": {"region_cols": [0]}, "finder": 3})",
    R"({"dataset": "d", "statistic": {"region_cols": [0]}, "trace": "no"})",
    R"({"dataset": "d", "statistic": {"region_cols": [0]}, "shards": "2"})",
    R"({"dataset": "d", "statistic": {"region_cols": [0]},
        "topk": {"gso": []}})",
    R"({"dataset": "d", "statistic": {"region_cols": [0]},
        "surrogate": {"hypertune": 1}})",
    // v1 has no deadline: the key is ignored whatever its type.
    R"({"dataset": "d", "statistic": {"region_cols": [0]},
        "deadline_seconds": "x"})",
    R"({"dataset": "d", "statistic": {"region_cols": [0]},
        "deadline_seconds": 5, "query": 1, "execution": 2})",
    // several faults: which one is reported
    R"({"statistic": {"region_cols": [0]}, "direction": "sideways"})",
    R"({"dataset": "d", "direction": "sideways"})",
    R"({"dataset": "d", "statistic": {"region_cols": []},
        "threshold": "x", "mode": "topk", "topk": {"k": 0}})",
    R"({"api_version": 2, "query": {"kind": "bottomk"}})",
    R"({"api_version": 2, "dataset": "d", "query": {"kind": "bottomk"}})",
    R"({"api_version": 2, "dataset": "d", "query": {"statistic":
        {"region_cols": [0]}, "threshold": "x", "kind": "bottomk"}})",
};

/// Response documents, valid and not; accepted ones are re-encoded.
constexpr const char* kMineResponseDocuments[] = {
    R"([1])",
    R"({"api_version": 3})",
    R"({"api_version": "2"})",
    R"({"status": {"code": "bogus"}})",
    R"({"status": {"code": 5}})",
    R"({"status": {"code": "not_found", "message": 1}})",
    R"({"status": []})",
    R"({"cache_hit": "x"})",
    R"({"total_seconds": "x"})",
    R"({"provenance": 3})",
    R"({"provenance": {"cv_rmse": "x"}})",
    R"({"provenance": {"cv_rmse": null, "holdout_rmse": null}})",
    R"({"provenance": {"dataset_fingerprint": 12}})",
    R"({"provenance": {"dataset_fingerprint": "xyz"}})",
    R"({"provenance": {"training_set_size": -1}})",
    R"({"provenance": {"degraded": "yes"}})",
    R"({"provenance": {"degraded_reason": "r"}})",
    R"({"provenance": {"degraded": false, "degraded_reason": "r"}})",
    R"({"result": []})",
    R"({"result": {"regions": {}}})",
    R"({"result": {"regions": [3]}})",
    R"({"result": {"regions": [{"fitness": 1}]}})",
    R"({"result": {"regions": [{"region": 4}]}})",
    R"({"result": {"regions": [{"region": {"center": "x"}}]}})",
    R"({"result": {"regions": [{"region": {"center": [0],
        "half_lengths": [1, 2]}}]}})",
    R"({"result": {"regions": [{"region": {"center": [0],
        "half_lengths": [1]}, "true_value": "x"}]}})",
    R"({"result": {"regions": [{"region": {"center": [0],
        "half_lengths": [1]}, "true_value": null, "lo": 5}]}})",
    R"({"result": {"report": {"converged": "no"}}})",
    R"({"result": {"report": {"objective_evaluations": 1.5}}})",
    R"({"topk": 1})",
    R"({"topk": {"regions": [{}]}})",
    R"({"topk": {"regions": [{"region": {"center": [0],
        "half_lengths": [1]}, "statistic": "x"}]}})",
    R"({"topk": {"iterations": -3}})",
    R"({"mode": 7, "cache_hit": true, "status": {"code": "timed_out",
        "message": "late"}})",
};

/// More shard-evaluate bodies, valid and not, on top of BadShardRequests.
std::vector<std::string> MoreShardRequests() {
  return {
      MutatedShardRequest("fingerprint", "12"),
      MutatedShardRequest("fingerprint", "\"0X1F\""),
      MutatedShardRequest("fingerprint", "\"1f\""),
      MutatedShardRequest("statistic", "[]"),
      MutatedShardRequest("statistic", R"({"region_cols": []})"),
      MutatedShardRequest("num_shards", "\"8\""),
      MutatedShardRequest("order_by", "\"x\""),
      MutatedShardRequest("order_by", "-2"),
      MutatedShardRequest("order_by", "-1"),
      MutatedShardRequest("columns", "[-1]"),
      MutatedShardRequest("columns", "{}"),
      MutatedShardRequest("shards", "\"2\""),
      MutatedShardRequest("queries", "3"),
      MutatedShardRequest("queries", "[3]"),
      MutatedShardRequest("queries", R"([{"center": [0]}])"),
      MutatedShardRequest("deadline_seconds", "\"x\""),
      R"({"dataset": "d", "statistic": {"region_cols": []},
          "num_shards": 0, "shards": [], "order_by": "x"})",
      R"({"dataset": "d", "statistic": {"region_cols": [0]},
          "num_shards": 0, "order_by": "x"})",
      R"({"dataset": "d", "statistic": {"region_cols": [0]},
          "shards": [], "queries": 3})",
      MutatedShardRequest("num_shards", "4097"),
  };
}

/// The text a decode produced: the re-encoded document when it succeeded,
/// the status otherwise.
template <typename T, typename Encode>
std::string Outcome(const StatusOr<T>& decoded, Encode encode) {
  if (!decoded.ok()) return decoded.status().ToString();
  return WriteJson(encode(*decoded));
}

std::vector<std::pair<std::string, std::string>> GoldenCorpus() {
  std::vector<std::pair<std::string, std::string>> corpus;
  auto add = [&](const std::string& name, std::string text) {
    corpus.emplace_back(name, std::move(text));
  };
  auto request = [](const JsonValue& json) {
    return Outcome(MineRequestV2FromJson(json), MineRequestV2ToJson);
  };
  auto response = [](const JsonValue& json) {
    return Outcome(MineResponseFromJson(json), [](const v2::MineResponse& r) {
      return MineResponseV2ToJson(r, r.topk.regions.empty()
                                         ? v2::QueryKind::kThreshold
                                         : v2::QueryKind::kTopK);
    });
  };
  auto shard_request = [](const JsonValue& json) {
    return Outcome(ShardEvaluateRequestFromJson(json),
                   ShardEvaluateRequestToJson);
  };

  add("request.v1_full", request(*ParseJson(kFullV1Document)));
  add("request.v1_minimal", request(*ParseJson(
      R"({"dataset": "d", "statistic": {"region_cols": [0, 1]}})")));
  add("request.v2_minimal", request(*ParseJson(
      R"({"api_version": 2, "dataset": "d",
          "query": {"statistic": {"region_cols": [0, 1]}}})")));
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    add("request.seed_" + std::to_string(seed),
        WriteJson(MineRequestV2ToJson(RandomizedRequest(seed))));
  }
  for (size_t i = 0; i < std::size(kBadMineRequests); ++i) {
    add("request.bad_" + std::to_string(i),
        request(*ParseJson(kBadMineRequests[i])));
  }
  for (size_t i = 0; i < std::size(kMoreMineRequests); ++i) {
    add("request.more_" + std::to_string(i),
        request(*ParseJson(kMoreMineRequests[i])));
  }

  v2::MineResponse failed;
  failed.status = Status::NotFound("dataset 'x' not registered");
  const std::pair<const char*, JsonValue> responses[] = {
      {"threshold", MineResponseV2ToJson(SampleThresholdResponse(),
                                         v2::QueryKind::kThreshold)},
      {"topk",
       MineResponseV2ToJson(SampleTopKResponse(), v2::QueryKind::kTopK)},
      {"failed", MineResponseV2ToJson(failed, v2::QueryKind::kThreshold)},
  };
  for (const auto& [name, json] : responses) {
    add(std::string("response.") + name, WriteJson(json));
    add(std::string("response.") + name + ".redecoded", response(json));
  }
  for (size_t i = 0; i < std::size(kMineResponseDocuments); ++i) {
    add("response.doc_" + std::to_string(i),
        response(*ParseJson(kMineResponseDocuments[i])));
  }

  dist::ShardEvaluateRequest bare = SampleShardRequest();
  bare.has_fingerprint = false;
  add("shard_request.sample",
      WriteJson(ShardEvaluateRequestToJson(SampleShardRequest())));
  add("shard_request.bare", WriteJson(ShardEvaluateRequestToJson(bare)));
  add("shard_request.sample.redecoded",
      shard_request(ShardEvaluateRequestToJson(SampleShardRequest())));
  const std::vector<std::string> bad_shard = BadShardRequests();
  for (size_t i = 0; i < bad_shard.size(); ++i) {
    add("shard_request.bad_" + std::to_string(i),
        shard_request(*ParseJson(bad_shard[i])));
  }
  const std::vector<std::string> more_shard = MoreShardRequests();
  for (size_t i = 0; i < more_shard.size(); ++i) {
    add("shard_request.more_" + std::to_string(i),
        shard_request(*ParseJson(more_shard[i])));
  }

  const Statistic median = Statistic::MedianOf({0}, 1);
  Rng rng(33);
  dist::ShardEvaluateResponse partials;
  for (int q = 0; q < 2; ++q) {
    partials.partials.emplace_back();
    for (int s = 0; s < 2; ++s) {
      StatisticAccumulator acc(median);
      for (int i = 0; i < 5; ++i) acc.Add(rng.Gaussian());
      partials.partials.back().push_back(std::move(acc));
    }
  }
  add("shard_response.sample",
      WriteJson(ShardEvaluateResponseToJson(partials)));
  for (size_t i = 0; i < std::size(kBadShardResponses); ++i) {
    add("shard_response.bad_" + std::to_string(i),
        Outcome(ShardEvaluateResponseFromJson(
                    *ParseJson(kBadShardResponses[i]), Statistic::Count({0})),
                ShardEvaluateResponseToJson));
  }
  return corpus;
}

std::string GoldenCorpusPath() {
  const std::string here = __FILE__;
  return here.substr(0, here.find_last_of('/') + 1) + "json_codec_golden.txt";
}

TEST(GoldenCodecCorpus, EveryEntryMatchesByteForByte) {
  std::ifstream in(GoldenCorpusPath());
  ASSERT_TRUE(in.good()) << "cannot read " << GoldenCorpusPath();
  std::vector<std::pair<std::string, std::string>> golden;
  for (std::string line; std::getline(in, line);) {
    const size_t tab = line.find('\t');
    ASSERT_NE(tab, std::string::npos) << line;
    golden.emplace_back(line.substr(0, tab), line.substr(tab + 1));
  }
  const auto corpus = GoldenCorpus();
  ASSERT_EQ(corpus.size(), golden.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_EQ(corpus[i].first, golden[i].first) << "entry " << i;
    EXPECT_EQ(corpus[i].second, golden[i].second) << corpus[i].first;
  }
}

/// True when no object anywhere in `v` repeats a key.
bool KeysAreUnique(const JsonValue& v) {
  std::set<std::string> seen;
  for (const auto& [key, member] : v.members()) {
    if (!seen.insert(key).second || !KeysAreUnique(member)) return false;
  }
  for (const JsonValue& e : v.array()) {
    if (!KeysAreUnique(e)) return false;
  }
  return true;
}

TEST(GoldenCodecCorpus, EncodedObjectsNeverRepeatAKey) {
  for (const auto& [name, text] : GoldenCorpus()) {
    auto json = ParseJson(text);
    if (!json.ok()) continue;  // a rejection message, not a document
    EXPECT_TRUE(KeysAreUnique(*json)) << name;
  }
}

// ------------------------------------------------ strict hex fingerprints

TEST(HexFingerprintCodec, RejectsSignsWhitespaceAndOverflow) {
  // strtoull would read each of these as some 64-bit value the encoder
  // never writes: a sign wraps, whitespace is skipped, overflow saturates.
  for (const char* text : {"-0x1", "+0x1", " 0x10", "0x10 ", "\t1",
                           "0x1ffffffffffffffff", "00000000000000001", "0x",
                           "", "0x-1", "0xg"}) {
    const std::string quoted = WriteJson(JsonValue(text));
    auto shard = ShardEvaluateRequestFromJson(
        *ParseJson(MutatedShardRequest("fingerprint", quoted)));
    ASSERT_FALSE(shard.ok()) << "accepted fingerprint '" << text << "'";
    EXPECT_EQ(shard.status().message(),
              "invalid fingerprint '" + std::string(text) + "'");
    JsonValue provenance = JsonValue::Object();
    provenance.Set("dataset_fingerprint", JsonValue(text));
    auto decoded = ProvenanceFromJson(provenance);
    ASSERT_FALSE(decoded.ok()) << "accepted fingerprint '" << text << "'";
    EXPECT_EQ(decoded.status().message(),
              "invalid dataset_fingerprint '" + std::string(text) + "'");
  }
}

TEST(HexFingerprintCodec, AcceptsOneToSixteenDigitsWithOptionalPrefix) {
  const std::pair<const char*, uint64_t> cases[] = {
      {"0", 0},
      {"0x0", 0},
      {"1f", 0x1f},
      {"0X1F", 0x1f},
      {"0xDeadBeef", 0xdeadbeef},
      {"ffffffffffffffff", ~uint64_t{0}},
      {"0xffffffffffffffff", ~uint64_t{0}},
      {"0x0000000000000001", 1},
  };
  for (const auto& [text, value] : cases) {
    auto shard = ShardEvaluateRequestFromJson(*ParseJson(
        MutatedShardRequest("fingerprint", WriteJson(JsonValue(text)))));
    ASSERT_TRUE(shard.ok()) << text << ": " << shard.status().ToString();
    EXPECT_TRUE(shard->has_fingerprint);
    EXPECT_EQ(shard->fingerprint, value) << text;
    JsonValue provenance = JsonValue::Object();
    provenance.Set("dataset_fingerprint", JsonValue(text));
    auto decoded = ProvenanceFromJson(provenance);
    ASSERT_TRUE(decoded.ok()) << text << ": " << decoded.status().ToString();
    EXPECT_EQ(decoded->dataset_fingerprint, value) << text;
  }
}

TEST(CodecFuzz, ResponseAndShardRequestDecodersNeverCrash) {
  // The decoders that read network input besides the mining body: the
  // response (clients) and the shard-evaluate request (every worker).
  Rng rng(101);
  for (const v2::MineResponse& response :
       {SampleThresholdResponse(), SampleTopKResponse()}) {
    const std::string valid = WriteJson(MineResponseV2ToJson(
        response, response.topk.regions.empty() ? v2::QueryKind::kThreshold
                                                : v2::QueryKind::kTopK));
    ASSERT_TRUE(MineResponseFromJson(*ParseJson(valid)).ok()) << valid;
    FuzzDecoder(valid, rng, [](const JsonValue& json) {
      return MineResponseFromJson(json);
    });
  }
  const std::string valid =
      WriteJson(ShardEvaluateRequestToJson(SampleShardRequest()));
  ASSERT_TRUE(ShardEvaluateRequestFromJson(*ParseJson(valid)).ok()) << valid;
  FuzzDecoder(valid, rng, [](const JsonValue& json) {
    return ShardEvaluateRequestFromJson(json);
  });
}

}  // namespace
}  // namespace surf
