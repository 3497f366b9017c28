#ifndef SURF_NET_JSON_CODEC_H_
#define SURF_NET_JSON_CODEC_H_

/// \file
/// \brief JSON codecs for the wire types of the HTTP front-end.
///
/// json_codec.cc declares each wire struct once, as an ordered list of
/// `{wire name, member pointer}` fields, and one generic encoder and
/// decoder walk those lists: adding a wire field means adding one list
/// entry. A field's codec follows from its member type (scalars, arrays,
/// enums through one name table each, nested structs through their own
/// list) or is named in the entry (double-or-null, hex fingerprint,
/// statistic columns). Encoders write every field, so a decoded request
/// re-encodes to the identical document; doubles survive bit-exactly
/// (`%.17g`), and 64-bit fingerprints travel as hex strings. Decoders
/// keep the struct default for an absent key, answer a wrongly-typed one
/// with InvalidArgument ("field 'key' must be ..."), and never crash on
/// malformed documents.

#include <cstdint>
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

/// The wire text of a 64-bit fingerprint: "0x" and 16 lower-case hex
/// digits. Decoders accept an optional 0x/0X prefix and 1-16 hex digits,
/// nothing else (no sign, whitespace or overflow).
std::string FormatHexU64(uint64_t value);

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
// A mining body decodes into the one in-memory request, v2::MineRequest.
// The v2 schema (`api_version: 2`) mirrors it: named sections `query`,
// `search`, `training`, `execution`. The flat v1 schema (no
// `api_version`, or 1) is read through a table of `v1 key → v2 field`
// aliases over the same field lists, into `api_version = 1`. The v1
// schema is frozen: fields added since (`deadline_seconds`) are v2-only.

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
