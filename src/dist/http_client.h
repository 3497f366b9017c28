#ifndef SURF_DIST_HTTP_CLIENT_H_
#define SURF_DIST_HTTP_CLIENT_H_

/// \file
/// \brief Minimal cancel-aware HTTP/1.1 client for coordinator→worker
/// RPCs.
///
/// Dependency-free like the server it talks to: POSIX sockets, one
/// request per connection (`Connection: close`), Content-Length framing.
/// Every blocking step — connect, send, receive — waits in short poll
/// slices that check the caller's CancelToken and the call deadline, so
/// a cancelled scatter releases its worker connections within ~10 ms
/// instead of holding sockets (and remote worker threads) until a
/// transport timeout. Failures map onto the retriable transport codes
/// (IOError/TimedOut/Cancelled); HTTP error answers are surfaced with
/// their status code so the caller decides retriability.

#include <cstdint>
#include <string>

#include "util/cancel.h"
#include "util/status.h"

namespace surf {
namespace dist {

/// \brief One parsed HTTP reply: status code + body.
struct HttpReply {
  int status_code = 0;
  std::string body;
};

/// Splits "host:port" into its parts. InvalidArgument on a missing or
/// non-numeric port. Host may be a dotted quad or anything inet_pton /
/// "localhost" resolves to (no DNS — "localhost" maps to 127.0.0.1).
Status ParseEndpoint(const std::string& endpoint, std::string* host,
                     uint16_t* port);

/// One blocking request against `host:port`. `timeout_seconds` bounds
/// the whole call (connect + send + receive); `cancel` aborts it early
/// with Cancelled. Network failures return IOError (peer down, reset,
/// short response) or TimedOut; an HTTP answer of any status parses
/// into an OK HttpReply.
StatusOr<HttpReply> HttpCall(const std::string& host, uint16_t port,
                             const std::string& method,
                             const std::string& target,
                             const std::string& body, double timeout_seconds,
                             const CancelToken& cancel);

}  // namespace dist
}  // namespace surf

#endif  // SURF_DIST_HTTP_CLIENT_H_
