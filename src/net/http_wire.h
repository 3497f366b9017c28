#ifndef SURF_NET_HTTP_WIRE_H_
#define SURF_NET_HTTP_WIRE_H_

/// \file
/// \brief The HTTP/1.1 wire format: head parsing, body framing and
/// serialisation of requests and responses.
///
/// surfd's event loop, the cluster client (`dist::HttpCall`) and the test
/// and bench clients all frame messages here, so both ends of a
/// connection agree on where a message ends. The one framing rule (RFC
/// 9112 §6.3, restricted): the body length is the `Content-Length` value,
/// `1*DIGIT`; several such fields must all parse and agree;
/// `Transfer-Encoding` is unsupported; without `Content-Length` the body
/// is empty. surfd always sends one, and no message is read to close.

#include <chrono>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace surf {

/// Header fields (name, value) in arrival order; parsed names are
/// lower-cased and values trimmed.
using HttpHeaders = std::vector<std::pair<std::string, std::string>>;

/// Value of the first field named `name` (lower-case), or null.
const std::string* FindHeader(const HttpHeaders& headers,
                              std::string_view name);

/// \brief One parsed HTTP request.
struct HttpRequest {
  /// Upper-case request method ("GET", "POST", ...).
  std::string method;
  /// Request target as sent (path, no scheme/authority), e.g. "/v1/mine".
  std::string target;
  /// Header fields with lower-cased names, in arrival order.
  HttpHeaders headers;
  /// Request body (Content-Length framing; chunked is not accepted).
  std::string body;
  /// The transport's per-request deadline (started at the request's first
  /// byte). Handlers serving long-running work thread the remaining
  /// budget into a CancelSource so an expired deadline reclaims the
  /// worker's CPU instead of stranding it (max() = no deadline, e.g. for
  /// handlers invoked outside the server).
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  /// Seconds until `deadline` (clamped at 0); +inf when no deadline.
  double RemainingSeconds() const;

  /// Value of the first header named `name` (lower-case), or null.
  const std::string* FindHeader(std::string_view name) const {
    return surf::FindHeader(headers, name);
  }
};

/// \brief One HTTP response produced by a handler.
struct HttpResponse {
  /// HTTP status code (200, 404, ...).
  int status_code = 200;
  /// Content-Type header value.
  std::string content_type = "application/json";
  /// Extra response headers (name, value) emitted verbatim after the
  /// standard ones — e.g. {"Retry-After", "5"} on 429/503 answers.
  HttpHeaders headers;
  /// Response body.
  std::string body;
};

/// The standard reason phrase for a status code ("OK", "Not Found", ...).
const char* HttpReasonPhrase(int status_code);

namespace http {

/// \brief Why a message cannot be framed, with surfd's answer to a
/// request that fails that way.
struct WireError {
  int status;
  const char* code;
  const char* message;
};
inline constexpr WireError kMalformedHead{400, "bad_request",
                                          "malformed HTTP request"};
inline constexpr WireError kHeadTooLarge{431, "headers_too_large",
                                         "header section exceeds limit"};
inline constexpr WireError kTransferEncoding{
    501, "unsupported", "chunked transfer encoding not supported"};
inline constexpr WireError kBadLength{400, "bad_request",
                                      "invalid Content-Length"};
inline constexpr WireError kBodyTooLarge{413, "payload_too_large",
                                         "request body exceeds limit"};

/// \brief Where the message at the front of a buffer stands: more bytes
/// needed, framed, or unframeable (`error` set).
struct Framing {
  const WireError* error = nullptr;
  /// Head size, blank line included; 0 while more bytes are needed.
  size_t head_bytes = 0;
  /// Content-Length (0 without one).
  size_t body_bytes = 0;

  bool need_more() const { return error == nullptr && head_bytes == 0; }
  size_t size() const { return head_bytes + body_bytes; }
};

/// Parses the request head at the front of `buffer` into `*request` and
/// frames its body, which may still be arriving. Needs more bytes until a
/// blank line ends within the first `max_head_bytes`; kHeadTooLarge once
/// more bytes than that hold none, however they were segmented.
Framing ParseRequestHead(std::string_view buffer, size_t max_head_bytes,
                         size_t max_body_bytes, HttpRequest* request);

/// The framing verdict on the request at the front of `buffer`:
/// ParseRequestHead, then need-more until the whole body is in.
Framing FrameRequest(std::string_view buffer, size_t max_head_bytes,
                     size_t max_body_bytes);

/// Parses the response head at the front of `buffer`: a status line
/// `HTTP/1.x NNN [reason]` with exactly three digits, then fields framed
/// by the rule above.
Framing ParseResponseHead(std::string_view buffer, int* status_code,
                          HttpHeaders* headers);

/// Reads one response from a blocking stream. `*buffer` holds bytes
/// already received and keeps any surplus (pipelined answers); `fill`
/// appends more and returns false at end of stream or on error. IOError
/// when the response is malformed or the stream ends before it does.
Status ReadResponse(std::string* buffer,
                    const std::function<bool(std::string*)>& fill,
                    int* status_code, HttpHeaders* headers,
                    std::string* body);

/// The request line, `headers` in order, Content-Length, then the body.
std::string SerializeRequest(std::string_view method, std::string_view target,
                             const HttpHeaders& headers,
                             std::string_view body);

/// The status line, Content-Type, Content-Length, Connection (keep-alive
/// or close), the extra headers, then the body.
std::string SerializeResponse(const HttpResponse& response, bool keep_alive);

}  // namespace http
}  // namespace surf

#endif  // SURF_NET_HTTP_WIRE_H_
