#include "api/api_v2.h"

#include <cmath>

#include "api/api.h"

namespace surf {
namespace v2 {

Status ValidateAndNormalize(MineRequest* request) {
  if (request == nullptr) {
    return Status::InvalidArgument("null request");
  }
  if (request->api_version < kApiMinVersion ||
      request->api_version > kApiVersion) {
    return Status::InvalidArgument(
        "unsupported api_version " + std::to_string(request->api_version) +
        " (this build accepts v" + std::to_string(kApiMinVersion) + "..v" +
        std::to_string(kApiVersion) + ")");
  }
  if (request->dataset.empty()) {
    return Status::InvalidArgument("field 'dataset' is required");
  }
  if (request->query.statistic.region_cols.empty()) {
    return Status::InvalidArgument(
        "statistic.region_cols must name at least one column");
  }
  if (request->query.kind == QueryKind::kThreshold) {
    SURF_RETURN_IF_ERROR(CheckThreshold(request->query.threshold));
  }
  if (request->query.kind == QueryKind::kTopK) {
    SURF_RETURN_IF_ERROR(CheckTopK(request->search.topk));
  }
  if (request->execution.record_evaluations && !request->execution.validate) {
    return Status::InvalidArgument(
        "record_evaluations requires validate: recorded evaluations are the "
        "validated true statistics, which an unvalidated request never "
        "computes");
  }
  SURF_RETURN_IF_ERROR(CheckWorkload(request->training.workload));
  if (std::isnan(request->execution.deadline_seconds) ||
      request->execution.deadline_seconds < 0.0) {
    return Status::InvalidArgument(
        "deadline_seconds must be >= 0 (0 = no deadline)");
  }
  if (request->execution.shards == 0) {
    request->execution.shards = 1;  // normalize "unset" to the v1 default
  }
  if (request->execution.shards > kMaxExecutionShards) {
    return Status::InvalidArgument(
        "execution.shards must be <= " + std::to_string(kMaxExecutionShards));
  }
  return Status::OK();
}

}  // namespace v2
}  // namespace surf
