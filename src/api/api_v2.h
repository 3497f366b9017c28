#ifndef SURF_API_API_V2_H_
#define SURF_API_API_V2_H_

/// \file
/// \brief The public request surface: one versioned, validated
/// MineRequest/MineResponse pair shared by every front-end and every
/// layer of the service.
///
/// The surface is declared once:
///
///  - an explicit `api_version` field, so clients can negotiate schemas
///    (see api.h and `GET /v1/version`);
///  - named, defaultable sub-recipes — QuerySpec (what to mine),
///    SearchRecipe (how to search), TrainingRecipe (the cache-keyed
///    model recipe), ExecutionPolicy (per-request runtime policy,
///    including the cancellation deadline);
///  - one `ValidateAndNormalize` pass the mining core runs on its own
///    copy of every request (the JSON decoder runs it too, so malformed
///    bodies answer 400 before a job exists).
///
/// These structs are the only in-memory request and response: the
/// service, its job core, the HTTP handler and the CLI all carry them
/// unchanged. The older flat v1 document is a wire schema only — the
/// JSON decoder translates it into a MineRequest with `api_version = 1`
/// (net/json_codec.h).

#include <memory>
#include <string>

#include "core/surf.h"
#include "core/topk.h"
#include "serve/surrogate_cache.h"
#include "util/status.h"
#include "util/trace.h"

namespace surf {
namespace v2 {

/// \brief Query formulation of the v2 surface.
enum class QueryKind {
  /// Regions whose statistic crosses a threshold (paper Problem 1).
  kThreshold,
  /// The k highest-statistic regions (§VI's alternative formulation).
  kTopK,
};

/// \brief What to mine: the statistic and the question asked of it.
struct QuerySpec {
  /// The statistic f whose interesting regions are sought.
  Statistic statistic;
  /// Threshold query (default) vs. k-highest-statistic query.
  QueryKind kind = QueryKind::kThreshold;
  /// The user's cut-off value y_R (threshold queries).
  double threshold = 0.0;
  /// Which side of the threshold is interesting.
  ThresholdDirection direction = ThresholdDirection::kAbove;
};

/// \brief How to search: the per-request GSO/extraction knobs. Not part
/// of the surrogate-cache key.
struct SearchRecipe {
  /// Threshold-mode finder configuration (GSO engine + extraction).
  FinderConfig finder;
  /// Top-k-mode configuration (used when kind == kTopK).
  TopKConfig topk;
};

/// \brief The model recipe: what the surrogate is trained on and how.
/// Together with the dataset and statistic this forms the cache key.
struct TrainingRecipe {
  /// Training-workload recipe.
  WorkloadParams workload;
  /// Surrogate training recipe.
  SurrogateTrainOptions surrogate;
};

/// \brief Per-request runtime policy: backend, validation, feedback, and
/// the cancellation deadline.
struct ExecutionPolicy {
  /// Which exact back-end labels the workload and validates results.
  BackendKind backend = BackendKind::kGridIndex;
  /// Row-range shards for the exact back-end. The default 1 — which is
  /// also what every v1 request implies — keeps the single `backend`
  /// evaluator; 2..4096 switches
  /// workload labelling and validation to the shard-parallel scan
  /// backend (ShardedScanEvaluator), with per-shard partial statistics
  /// merged in fixed shard order. 0 normalizes to 1. Like `backend`,
  /// this is execution policy, not part of the surrogate-cache key.
  size_t shards = 1;
  /// Distributed scatter-gather execution: workload labelling and
  /// validation run on the coordinator's configured remote workers
  /// (dist::ClusterEvaluator) instead of in process. The effective
  /// shard count is `shards` when >= 2, else one shard per worker.
  /// Rejected with FailedPrecondition when the service has no
  /// `--workers` configured. Execution policy, like `backend`/`shards`
  /// — not part of the surrogate-cache key.
  bool cluster = false;
  /// Fit/use the KDE data prior (Eq. 8 guidance).
  bool use_kde = true;
  /// Validate reported regions against the true statistic.
  bool validate = true;
  /// Feed validated (region, true value) pairs back into the cache
  /// entry's pending workload. Requires `validate` — the shared
  /// validation path rejects the combination otherwise.
  bool record_evaluations = false;
  /// Cooperative deadline for the whole request (training + search),
  /// seconds; 0 = none. An exceeded deadline cancels the request within
  /// one GSO iteration / boosting round and returns Cancelled with
  /// whatever partial results the search had.
  double deadline_seconds = 0.0;
  /// Record a hierarchical span trace of this request's pipeline stages
  /// and return it in the response (and via `GET /v1/trace/{id}` as
  /// Chrome trace-event JSON). Off by default; tracing never changes
  /// mining results, only observability output.
  bool trace = false;
};

/// \brief One v2 mining request.
struct MineRequest {
  /// Schema version of this request (kApiMinVersion..kApiVersion).
  int api_version = 2;
  /// Name the dataset was registered under.
  std::string dataset;
  /// What to mine.
  QuerySpec query;
  /// How to search.
  SearchRecipe search;
  /// The cache-keyed model recipe.
  TrainingRecipe training;
  /// Runtime policy.
  ExecutionPolicy execution;
};

/// \brief One v2 mining response.
struct MineResponse {
  /// Schema version of this response.
  int api_version = 2;
  /// Request outcome; Cancelled carries partial results + provenance.
  Status status = Status::OK();
  /// Threshold-mode result.
  FindResult result;
  /// Top-k-mode result.
  TopKResult topk;
  /// Whether an already-resident surrogate served this request.
  bool cache_hit = false;
  /// Declared pedigree of the model that served the request.
  SurrogateProvenance provenance;
  /// End-to-end request wall-time (training share included on misses).
  double total_seconds = 0.0;
  /// Span trace of the request's pipeline stages; non-null only when the
  /// request asked for tracing (ExecutionPolicy::trace).
  std::shared_ptr<const TraceContext> trace;
};

/// \brief The one validation/normalization pass: the mining core runs it
/// on its own copy of every request, the JSON decoder on every body.
///
/// Rejects with InvalidArgument: unsupported `api_version`, empty
/// dataset, a statistic without region columns, non-finite threshold,
/// `record_evaluations` without `validate`, k = 0 top-k queries, an
/// empty training workload, and negative/non-finite deadlines.
Status ValidateAndNormalize(MineRequest* request);

}  // namespace v2
}  // namespace surf

#endif  // SURF_API_API_V2_H_
