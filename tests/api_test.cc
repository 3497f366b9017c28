// Tests for the versioned API surface (src/api): the shared validation
// path, version/build info, the v2 JSON codec, and the decode-time
// translation of flat v1 documents into v2::MineRequest.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "api/api.h"
#include "api/api_v2.h"
#include "net/json_codec.h"
#include "serve/fingerprint.h"
#include "util/json.h"

namespace surf {
namespace {

v2::MineRequest SampleV2() {
  v2::MineRequest request;
  request.dataset = "d";
  request.query.statistic = Statistic::Average({0, 1}, 2);
  request.query.kind = v2::QueryKind::kThreshold;
  request.query.threshold = 42.5;
  request.query.direction = ThresholdDirection::kBelow;
  request.search.finder.c = 2.5;
  request.search.finder.gso.max_iterations = 77;
  request.search.topk.k = 5;
  request.training.workload.num_queries = 1234;
  request.training.surrogate.gbrt.n_estimators = 55;
  request.execution.backend = BackendKind::kScan;
  request.execution.use_kde = false;
  request.execution.validate = true;
  request.execution.record_evaluations = true;
  request.execution.deadline_seconds = 3.5;
  return request;
}

// ------------------------------------------------------------- validation

TEST(ApiV2Test, ValidationAcceptsDefaults) {
  v2::MineRequest request;
  request.dataset = "d";
  request.query.statistic = Statistic::Count({0});
  EXPECT_TRUE(v2::ValidateAndNormalize(&request).ok());
}

TEST(ApiV2Test, ValidationRejectsRecordEvaluationsWithoutValidate) {
  v2::MineRequest request;
  request.dataset = "d";
  request.query.statistic = Statistic::Count({0});
  request.execution.record_evaluations = true;
  request.execution.validate = false;
  const Status status = v2::ValidateAndNormalize(&request);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ApiV2Test, ValidationRejectsMalformedRequests) {
  v2::MineRequest ok;
  ok.dataset = "d";
  ok.query.statistic = Statistic::Count({0});

  v2::MineRequest bad = ok;
  bad.api_version = 3;
  EXPECT_EQ(v2::ValidateAndNormalize(&bad).code(),
            StatusCode::kInvalidArgument);

  bad = ok;
  bad.dataset.clear();
  EXPECT_EQ(v2::ValidateAndNormalize(&bad).code(),
            StatusCode::kInvalidArgument);

  bad = ok;
  bad.query.statistic.region_cols.clear();
  EXPECT_EQ(v2::ValidateAndNormalize(&bad).code(),
            StatusCode::kInvalidArgument);

  bad = ok;
  bad.query.threshold = std::nan("");
  EXPECT_EQ(v2::ValidateAndNormalize(&bad).code(),
            StatusCode::kInvalidArgument);

  bad = ok;
  bad.query.kind = v2::QueryKind::kTopK;
  bad.search.topk.k = 0;
  EXPECT_EQ(v2::ValidateAndNormalize(&bad).code(),
            StatusCode::kInvalidArgument);

  bad = ok;
  bad.training.workload.num_queries = 0;
  EXPECT_EQ(v2::ValidateAndNormalize(&bad).code(),
            StatusCode::kInvalidArgument);

  bad = ok;
  bad.execution.deadline_seconds = -1.0;
  EXPECT_EQ(v2::ValidateAndNormalize(&bad).code(),
            StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------- version info

TEST(ApiVersionTest, BuildInfoIsCoherent) {
  const BuildInfo info = GetBuildInfo();
  EXPECT_EQ(info.api_version, kApiVersion);
  EXPECT_EQ(info.api_min_version, kApiMinVersion);
  EXPECT_LE(info.api_min_version, info.api_version);
  EXPECT_EQ(info.library_version, std::string(kLibraryVersion));
  EXPECT_FALSE(info.compiler.empty());
  EXPECT_NE(VersionString().find("surf"), std::string::npos);
  EXPECT_NE(VersionString().find(info.library_version), std::string::npos);
}

// ------------------------------------------------------------- v2 codec

TEST(ApiV2CodecTest, V2JsonRoundTrips) {
  const v2::MineRequest original = SampleV2();
  const JsonValue encoded = MineRequestV2ToJson(original);
  auto decoded = MineRequestV2FromJson(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->api_version, 2);
  EXPECT_EQ(WriteJson(MineRequestV2ToJson(*decoded)), WriteJson(encoded));
}

TEST(ApiV2CodecTest, UnsupportedApiVersionRejected) {
  JsonValue doc = JsonValue::Object();
  doc.Set("api_version", JsonValue(7.0));
  doc.Set("dataset", JsonValue("d"));
  auto decoded = MineRequestV2FromJson(doc);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ApiV2CodecTest, V2DocumentRejectsInvalidCombination) {
  v2::MineRequest request = SampleV2();
  request.execution.record_evaluations = true;
  request.execution.validate = false;
  // Encoding is mechanical; the decode-side shared validation rejects.
  auto decoded = MineRequestV2FromJson(MineRequestV2ToJson(request));
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);

  // The same combination in a v1 flat document is rejected at decode
  // time too — both schemas share the validation path.
  auto v1 = ParseJson(R"({"dataset": "d", "statistic": {"region_cols": [0]},
                          "record_evaluations": true, "validate": false})");
  ASSERT_TRUE(v1.ok());
  auto decoded_v1 = MineRequestV2FromJson(*v1);
  EXPECT_FALSE(decoded_v1.ok());
  EXPECT_EQ(decoded_v1.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------- v1 translation

/// Resolves the column names of dataset "d" (x, y, v); everything else
/// is unknown.
int ResolveColumn(const std::string& dataset, const std::string& column) {
  if (dataset != "d") return -1;
  if (column == "x") return 0;
  if (column == "y") return 1;
  if (column == "v") return 2;
  return -1;
}

/// A literal flat v1 document and its hand-written v2 twin.
struct V1Twin {
  const char* name;
  const char* v1;
  const char* v2;
};

const std::vector<V1Twin>& V1Twins() {
  static const std::vector<V1Twin> twins = {
      {"minimal",
       R"({"dataset": "d", "statistic": {"kind": "count",
           "region_cols": [0, 1]}, "threshold": 9})",
       R"({"api_version": 2, "dataset": "d", "query": {"statistic":
           {"kind": "count", "region_cols": [0, 1]}, "threshold": 9}})"},
      {"direction",
       R"({"dataset": "d", "statistic": {"kind": "avg", "region_cols": [0],
           "value_col": 2}, "threshold": -3.25, "direction": "below"})",
       R"({"api_version": 2, "dataset": "d", "query": {"statistic":
           {"kind": "avg", "region_cols": [0], "value_col": 2},
           "threshold": -3.25, "direction": "below"}})"},
      {"mode_topk",
       R"({"dataset": "d", "statistic": {"region_cols": [0, 1]},
           "mode": "topk", "topk": {"k": 4, "c": 0.5, "nms_max_iou": 0.2,
           "gso": {"max_iterations": 33, "seed": 5}}})",
       R"({"api_version": 2, "dataset": "d", "query": {"statistic":
           {"region_cols": [0, 1]}, "kind": "topk"}, "search": {"topk":
           {"k": 4, "c": 0.5, "nms_max_iou": 0.2,
           "gso": {"max_iterations": 33, "seed": 5}}}})"},
      {"finder",
       R"({"dataset": "d", "statistic": {"region_cols": [0, 1]},
           "finder": {"c": 2.5, "max_regions": 7, "auto_scale_gso": false,
           "use_kde_guidance": false, "use_log_objective": true,
           "gso": {"num_glowworms": 40, "step_frac": 0.01}}})",
       R"({"api_version": 2, "dataset": "d", "query": {"statistic":
           {"region_cols": [0, 1]}}, "search": {"finder": {"c": 2.5,
           "max_regions": 7, "auto_scale_gso": false,
           "use_kde_guidance": false, "use_log_objective": true,
           "gso": {"num_glowworms": 40, "step_frac": 0.01}}}})"},
      {"workload",
       R"({"dataset": "d", "statistic": {"region_cols": [0, 1]},
           "workload": {"num_queries": 1234, "min_length_frac": 0.05,
           "drop_undefined": false, "seed": 9}})",
       R"({"api_version": 2, "dataset": "d", "query": {"statistic":
           {"region_cols": [0, 1]}}, "training": {"workload":
           {"num_queries": 1234, "min_length_frac": 0.05,
           "drop_undefined": false, "seed": 9}}})"},
      {"surrogate",
       R"({"dataset": "d", "statistic": {"region_cols": [0, 1]},
           "surrogate": {"gbrt": {"n_estimators": 55, "max_depth": 3,
           "learning_rate": 0.2}, "hypertune": true,
           "grid": {"max_depths": [2, 4]}, "cv_folds": 3, "seed": 11}})",
       R"({"api_version": 2, "dataset": "d", "query": {"statistic":
           {"region_cols": [0, 1]}}, "training": {"surrogate": {"gbrt":
           {"n_estimators": 55, "max_depth": 3, "learning_rate": 0.2},
           "hypertune": true, "grid": {"max_depths": [2, 4]},
           "cv_folds": 3, "seed": 11}}})"},
      {"backend_shards",
       R"({"dataset": "d", "statistic": {"region_cols": [0, 1]},
           "backend": "scan", "shards": 4})",
       R"({"api_version": 2, "dataset": "d", "query": {"statistic":
           {"region_cols": [0, 1]}}, "execution": {"backend": "scan",
           "shards": 4}})"},
      {"shards_zero_normalizes",
       R"({"dataset": "d", "statistic": {"region_cols": [0, 1]},
           "shards": 0})",
       R"({"api_version": 2, "dataset": "d", "query": {"statistic":
           {"region_cols": [0, 1]}}, "execution": {"shards": 1}})"},
      {"cluster",
       R"({"dataset": "d", "statistic": {"region_cols": [0, 1]},
           "cluster": true})",
       R"({"api_version": 2, "dataset": "d", "query": {"statistic":
           {"region_cols": [0, 1]}}, "execution": {"cluster": true}})"},
      {"use_kde_validate",
       R"({"dataset": "d", "statistic": {"region_cols": [0, 1]},
           "use_kde": false, "validate": false})",
       R"({"api_version": 2, "dataset": "d", "query": {"statistic":
           {"region_cols": [0, 1]}}, "execution": {"use_kde": false,
           "validate": false}})"},
      {"record_evaluations",
       R"({"dataset": "d", "statistic": {"region_cols": [0, 1]},
           "record_evaluations": true})",
       R"({"api_version": 2, "dataset": "d", "query": {"statistic":
           {"region_cols": [0, 1]}}, "execution":
           {"record_evaluations": true}})"},
      {"trace",
       R"({"dataset": "d", "statistic": {"region_cols": [0, 1]},
           "trace": true})",
       R"({"api_version": 2, "dataset": "d", "query": {"statistic":
           {"region_cols": [0, 1]}}, "execution": {"trace": true}})"},
      {"named_columns",
       R"({"dataset": "d", "statistic": {"kind": "sum",
           "region_cols": ["x", "y"], "value_col": "v"}})",
       R"({"api_version": 2, "dataset": "d", "query": {"statistic":
           {"kind": "sum", "region_cols": [0, 1], "value_col": 2}}})"},
      {"explicit_api_version_1",
       R"({"api_version": 1, "dataset": "d",
           "statistic": {"region_cols": [1]}, "threshold": 2})",
       R"({"api_version": 2, "dataset": "d", "query": {"statistic":
           {"region_cols": [1]}, "threshold": 2}})"},
      {"every_field",
       R"({"dataset": "d", "statistic": {"kind": "variance",
           "region_cols": ["y", "x"], "value_col": "v"}, "threshold": 1.5,
           "direction": "below", "mode": "topk", "topk": {"k": 2},
           "finder": {"c": 3}, "workload": {"num_queries": 300},
           "surrogate": {"gbrt": {"n_estimators": 20}},
           "backend": "scan", "shards": 8, "cluster": true,
           "use_kde": false, "validate": true, "record_evaluations": true,
           "trace": true})",
       R"({"api_version": 2, "dataset": "d", "query": {"statistic":
           {"kind": "variance", "region_cols": [1, 0], "value_col": 2},
           "kind": "topk", "threshold": 1.5, "direction": "below"},
           "search": {"finder": {"c": 3}, "topk": {"k": 2}},
           "training": {"workload": {"num_queries": 300},
           "surrogate": {"gbrt": {"n_estimators": 20}}},
           "execution": {"backend": "scan", "shards": 8, "cluster": true,
           "use_kde": false, "validate": true, "record_evaluations": true,
           "trace": true}})"},
  };
  return twins;
}

TEST(V1TranslationTest, FlatDocumentsDecodeLikeTheirV2Twins) {
  const ColumnResolver resolver = ResolveColumn;
  for (const V1Twin& twin : V1Twins()) {
    SCOPED_TRACE(twin.name);
    auto v1_json = ParseJson(twin.v1);
    auto v2_json = ParseJson(twin.v2);
    ASSERT_TRUE(v1_json.ok() && v2_json.ok());
    auto from_v1 = MineRequestV2FromJson(*v1_json, &resolver);
    auto from_v2 = MineRequestV2FromJson(*v2_json, &resolver);
    ASSERT_TRUE(from_v1.ok()) << from_v1.status().ToString();
    ASSERT_TRUE(from_v2.ok()) << from_v2.status().ToString();
    EXPECT_EQ(from_v1->api_version, 1);
    EXPECT_EQ(from_v2->api_version, 2);
    // Identical apart from the schema version they arrived in.
    from_v1->api_version = from_v2->api_version;
    EXPECT_EQ(WriteJson(MineRequestV2ToJson(*from_v1)),
              WriteJson(MineRequestV2ToJson(*from_v2)));
  }
}

TEST(V1TranslationTest, RejectionsKeepTheirMessages) {
  const ColumnResolver resolver = ResolveColumn;
  const struct {
    const char* doc;
    const char* message;
  } cases[] = {
      {R"({"dataset": "d", "statistic": {"region_cols": [0]},
           "mode": "bogus"})",
       "unknown mode 'bogus' (threshold|topk)"},
      {R"({"dataset": "d", "statistic": {"region_cols": [0]},
           "direction": "sideways"})",
       "unknown direction 'sideways' (above|below)"},
      {R"({"dataset": "d", "statistic": {"region_cols": [0]},
           "backend": "btree"})",
       "unknown backend 'btree' (scan|grid_index)"},
      {R"({"dataset": "d", "statistic": {"region_cols": [0]},
           "backend": "kd_tree"})",
       "unknown backend 'kd_tree' (scan|grid_index)"},
      {R"({"dataset": "d", "statistic": {"region_cols": [0]},
           "backend": "rtree"})",
       "unknown backend 'rtree' (scan|grid_index)"},
      {R"({"statistic": {"region_cols": [0]}})",
       "field 'dataset' is required"},
      {R"({"dataset": "", "statistic": {"region_cols": [0]}})",
       "field 'dataset' is required"},
      {R"({"dataset": "d", "statistic": {"region_cols": []}})",
       "statistic.region_cols must name at least one column"},
      {R"({"dataset": "d", "statistic": {"region_cols": ["nope"]}})",
       "unknown column 'nope' in dataset 'd'"},
      {R"({"dataset": "d", "statistic": {"region_cols": [0]},
           "workload": {"num_queries": 0}})",
       "training.workload.num_queries must be >= 1"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.doc);
    auto json = ParseJson(c.doc);
    ASSERT_TRUE(json.ok());
    auto decoded = MineRequestV2FromJson(*json, &resolver);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(decoded.status().message(), c.message);
  }
}

// ------------------------------------------------------ cancelled status

TEST(CancelledStatusTest, MapsToHttp408AndRoundTrips) {
  const Status cancelled = Status::Cancelled("deadline hit");
  EXPECT_EQ(HttpStatusFromStatus(cancelled), 408);
  EXPECT_EQ(StatusCodeName(cancelled.code()), "cancelled");
  EXPECT_EQ(cancelled.ToString(), "Cancelled: deadline hit");

  Status decoded;
  ASSERT_TRUE(StatusFromJson(StatusToJson(cancelled), &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kCancelled);
  EXPECT_EQ(decoded.message(), "deadline hit");
}

}  // namespace
}  // namespace surf
