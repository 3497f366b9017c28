#ifndef SURF_NET_JSON_CODEC_H_
#define SURF_NET_JSON_CODEC_H_

/// \file
/// \brief JSON codecs for the wire types of the HTTP front-end.
///
/// A mining body arrives in one of two wire schemas and always decodes
/// into the one in-memory request, `v2::MineRequest` (api/api_v2.h):
/// the v2 named-section schema decodes natively, and the flat v1 schema
/// (no `api_version`, or 1) is translated field by field at decode time
/// — it has no in-memory form of its own. Responses are always written
/// in the v2 envelope. The request encoder writes every field (so a
/// decoded request re-encodes to the identical document — the round-trip
/// property the codec tests enforce) and the response encoder the full
/// `v2::MineResponse` including `SurrogateProvenance`. Doubles survive
/// bit-exactly (`%.17g` via WriteJson); 64-bit fingerprints are carried
/// as hex strings because JSON numbers lose integer precision past 2^53.
/// Decoders treat absent fields as "keep the struct default", reject
/// wrongly-typed or non-finite values with InvalidArgument, and never
/// crash on malformed documents.

#include <functional>
#include <string>

#include "api/api_v2.h"
#include "dist/wire.h"
#include "geom/region.h"
#include "util/json.h"
#include "util/status.h"
#include "util/trace.h"

namespace surf {

/// \brief Resolves a dataset's column *name* to its index (−1 when
/// unknown). Lets HTTP clients write `"region_cols": ["x", "y"]` instead
/// of numeric indices; decoding without a resolver accepts indices only.
using ColumnResolver =
    std::function<int(const std::string& dataset, const std::string& column)>;

/// Maps a library Status onto the HTTP status code the front-end answers
/// with (NotFound→404, InvalidArgument→400, AlreadyExists→409,
/// TimedOut→408, FailedPrecondition→412, everything else 500; OK→200).
int HttpStatusFromStatus(const Status& status);

/// Wire name of a status code ("ok", "invalid_argument", ...).
std::string StatusCodeName(StatusCode code);

/// Encodes a Status as `{"code": ..., "message": ...}`.
JsonValue StatusToJson(const Status& status);
/// Decodes a Status encoded by StatusToJson into `*out`; the return
/// value reports decode failure (out-param because StatusOr<Status>
/// would be ambiguous).
Status StatusFromJson(const JsonValue& json, Status* out);

/// Encodes a region as center/half-length vectors plus derived lo/hi
/// corners (the corners are informational; decoding uses center/lengths).
JsonValue RegionToJson(const Region& region);
/// Decodes a region from `{"center": [...], "half_lengths": [...]}`.
StatusOr<Region> RegionFromJson(const JsonValue& json);

/// Encodes provenance; the dataset fingerprint travels as a hex string.
JsonValue ProvenanceToJson(const SurrogateProvenance& provenance);
/// Decodes provenance written by ProvenanceToJson.
StatusOr<SurrogateProvenance> ProvenanceFromJson(const JsonValue& json);

// ---------------------------------------------------------- mine bodies
//
// The v2 wire schema mirrors v2::MineRequest: an explicit `api_version`
// plus the named sub-recipes `query`, `search`, `training`, `execution`.
// MineRequestV2FromJson is the one decoder every mining body goes
// through: documents with `api_version: 2` decode natively, documents
// with no `api_version` (or 1) are read as the flat v1 schema straight
// into a v2::MineRequest with `api_version = 1` — so v1 clients keep
// working unchanged.

/// Encodes a v2 request in the v2 named-section schema.
JsonValue MineRequestV2ToJson(const v2::MineRequest& request);

/// Decodes a mining request of either schema version, dispatching on the
/// document's `api_version` field (absent = v1 flat schema), and runs
/// v2::ValidateAndNormalize on the result. String entries in
/// `statistic.region_cols` / `statistic.value_col` are resolved through
/// `resolver` (InvalidArgument without one).
StatusOr<v2::MineRequest> MineRequestV2FromJson(
    const JsonValue& json, const ColumnResolver* resolver = nullptr);

/// Encodes a response envelope: status, cache_hit, total_seconds,
/// provenance, `mode`, then either the threshold `result` or the `topk`
/// payload as `kind` selects (the other is empty by construction), the
/// trace block for traced requests, and `api_version`.
JsonValue MineResponseV2ToJson(const v2::MineResponse& response,
                               v2::QueryKind kind);

/// Decodes a response written by MineResponseV2ToJson, `api_version`
/// included (used by network clients — the load bench and the parity
/// tests). The raw GSO swarm is not carried over the wire and stays
/// empty.
StatusOr<v2::MineResponse> MineResponseFromJson(const JsonValue& json);

// ------------------------------------------------- distributed evaluation
//
// Wire forms of the coordinator/worker shard-evaluate exchange
// (`POST /v1/shards:evaluate`). Accumulator state travels in the exact
// hex-double form (StatisticAccumulator::ToJson), so a partial decoded
// on the coordinator merges bit-identically to the in-process fold.

/// Encodes a shard-evaluate request: dataset, optional fingerprint (hex
/// string), statistic, partition spec, ascending shard indices, query
/// regions, and the RPC deadline.
JsonValue ShardEvaluateRequestToJson(const dist::ShardEvaluateRequest& request);

/// Decodes a shard-evaluate request. The statistic resolves column names
/// through `resolver` like MineRequestV2FromJson; rejects non-ascending or
/// out-of-range shard indices.
StatusOr<dist::ShardEvaluateRequest> ShardEvaluateRequestFromJson(
    const JsonValue& json, const ColumnResolver* resolver = nullptr);

/// Encodes a shard-evaluate response: `partials[query][shard]` in the
/// request's query and shard order.
JsonValue ShardEvaluateResponseToJson(
    const dist::ShardEvaluateResponse& response);

/// Decodes a shard-evaluate response; `stat` selects the accumulator
/// wire form (median carries its quantile sketch, the moment kinds their
/// counters).
StatusOr<dist::ShardEvaluateResponse> ShardEvaluateResponseFromJson(
    const JsonValue& json, const Statistic& stat);

// ------------------------------------------------------------------ traces

/// Encodes a completed trace as the response-envelope `trace` block:
/// id, dropped-span count, per-stage wall seconds, and the span tree
/// (start/duration in microseconds relative to the trace epoch).
JsonValue TraceSummaryToJson(const TraceContext& trace);

/// Renders a completed trace in the Chrome trace-event JSON format
/// (the `{"traceEvents": [...]}` object form) — loadable directly in
/// Perfetto or chrome://tracing. Backs `GET /v1/trace/{id}`.
JsonValue TraceToChromeJson(const TraceContext& trace);

}  // namespace surf

#endif  // SURF_NET_JSON_CODEC_H_
