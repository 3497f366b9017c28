#include "net/http_wire.h"

#include <cctype>
#include <limits>

#include "util/string_util.h"

namespace surf {
namespace http {

namespace {

constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();

/// `1*DIGIT`; a value past SIZE_MAX saturates there, which no limit admits.
bool ParseDigits(std::string_view text, size_t* value) {
  *value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const size_t digit = static_cast<size_t>(c - '0');
    *value = *value > (kNoLimit - digit) / 10 ? kNoLimit : *value * 10 + digit;
  }
  return !text.empty();
}

/// Finds the head at the front of `buffer` (its blank line must end
/// within `max_head_bytes`), splits off the start line and parses the
/// field lines; each needs a colon and a non-empty name. On success only
/// `head_bytes` is set: the body is framed by FrameBody.
Framing SplitHead(std::string_view buffer, size_t max_head_bytes,
                  std::string_view* start_line, HttpHeaders* headers) {
  const size_t blank = buffer.substr(0, max_head_bytes).find("\r\n\r\n");
  if (blank == std::string_view::npos) {
    return buffer.size() > max_head_bytes ? Framing{&kHeadTooLarge} : Framing();
  }
  const std::string_view head = buffer.substr(0, blank);
  size_t pos = head.find("\r\n");
  *start_line = head.substr(0, pos);
  headers->clear();
  while (pos != std::string_view::npos) {
    const size_t begin = pos + 2;
    pos = head.find("\r\n", begin);
    const std::string_view line = head.substr(begin, pos - begin);
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    std::string name = TrimString(line.substr(0, colon));
    if (colon == std::string_view::npos || name.empty()) {
      return Framing{&kMalformedHead};
    }
    for (char& c : name) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    headers->emplace_back(std::move(name), TrimString(line.substr(colon + 1)));
  }
  return Framing{nullptr, blank + 4};
}

/// The one body framing rule, for requests and responses alike.
Framing FrameBody(Framing framing, const HttpHeaders& headers,
                  size_t max_body_bytes) {
  if (FindHeader(headers, "transfer-encoding") != nullptr) {
    return Framing{&kTransferEncoding};
  }
  bool has_length = false;
  for (const auto& [name, value] : headers) {
    if (name != "content-length") continue;
    size_t length = 0;
    if (!ParseDigits(value, &length) ||
        (has_length && length != framing.body_bytes)) {
      return Framing{&kBadLength};
    }
    has_length = true;
    framing.body_bytes = length;
  }
  // The second bound keeps head + body representable even without a limit.
  if (framing.body_bytes > max_body_bytes ||
      framing.body_bytes > kNoLimit - framing.head_bytes) {
    return Framing{&kBodyTooLarge};
  }
  return framing;
}

void AppendField(std::string* out, std::string_view name,
                 std::string_view value) {
  out->append(name);
  out->append(": ");
  out->append(value);
  out->append("\r\n");
}

/// The one place the Content-Length header is written.
void AppendContentLength(std::string* out, size_t size) {
  out->append("Content-Length: ");
  out->append(std::to_string(size));
  out->append("\r\n");
}

}  // namespace

Framing ParseRequestHead(std::string_view buffer, size_t max_head_bytes,
                         size_t max_body_bytes, HttpRequest* request) {
  std::string_view line;
  const Framing head =
      SplitHead(buffer, max_head_bytes, &line, &request->headers);
  if (head.head_bytes == 0) return head;
  // Request line: exactly three space-separated parts, the last an
  // HTTP/1.x version.
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.find(' ', sp1 == line.npos ? sp1 : sp1 + 1);
  if (sp2 == line.npos || line.find(' ', sp2 + 1) != line.npos ||
      line.substr(sp2 + 1, 7) != "HTTP/1.") {
    return Framing{&kMalformedHead};
  }
  request->method = line.substr(0, sp1);
  request->target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  return FrameBody(head, request->headers, max_body_bytes);
}

Framing FrameRequest(std::string_view buffer, size_t max_head_bytes,
                     size_t max_body_bytes) {
  HttpRequest request;
  const Framing framing =
      ParseRequestHead(buffer, max_head_bytes, max_body_bytes, &request);
  return buffer.size() < framing.size() ? Framing() : framing;
}

Framing ParseResponseHead(std::string_view buffer, int* status_code,
                          HttpHeaders* headers) {
  std::string_view line;
  const Framing head = SplitHead(buffer, kNoLimit, &line, headers);
  if (head.head_bytes == 0) return head;
  // Status line: "HTTP/1.x NNN", then the end or " reason".
  size_t code = 0;
  if (line.size() < 12 || line.substr(0, 7) != "HTTP/1." || line[8] != ' ' ||
      !std::isdigit(static_cast<unsigned char>(line[7])) ||
      !ParseDigits(line.substr(9, 3), &code) || code < 100 ||
      (line.size() > 12 && line[12] != ' ')) {
    return Framing{&kMalformedHead};
  }
  *status_code = static_cast<int>(code);
  return FrameBody(head, *headers, kNoLimit);
}

Status ReadResponse(std::string* buffer,
                    const std::function<bool(std::string*)>& fill,
                    int* status_code, HttpHeaders* headers,
                    std::string* body) {
  Framing framing;
  while ((framing = ParseResponseHead(*buffer, status_code, headers))
             .need_more()) {
    if (!fill(buffer)) {
      return Status::IOError("connection closed before the response head");
    }
  }
  if (framing.error != nullptr) return Status::IOError("malformed response");
  while (buffer->size() < framing.size()) {
    if (!fill(buffer)) return Status::IOError("connection closed mid-body");
  }
  body->assign(*buffer, framing.head_bytes, framing.body_bytes);
  buffer->erase(0, framing.size());
  return Status::OK();
}

std::string SerializeRequest(std::string_view method, std::string_view target,
                             const HttpHeaders& headers,
                             std::string_view body) {
  std::string out;
  out.reserve(body.size() + 256);
  out.append(method);
  out.push_back(' ');
  out.append(target);
  out.append(" HTTP/1.1\r\n");
  for (const auto& [name, value] : headers) AppendField(&out, name, value);
  AppendContentLength(&out, body.size());
  out.append("\r\n");
  out.append(body);
  return out;
}

std::string SerializeResponse(const HttpResponse& response, bool keep_alive) {
  std::string out;
  out.reserve(response.body.size() + 256);
  out.append("HTTP/1.1 ");
  out.append(std::to_string(response.status_code));
  out.push_back(' ');
  out.append(HttpReasonPhrase(response.status_code));
  out.append("\r\n");
  AppendField(&out, "Content-Type", response.content_type);
  AppendContentLength(&out, response.body.size());
  AppendField(&out, "Connection", keep_alive ? "keep-alive" : "close");
  for (const auto& [name, value] : response.headers) {
    AppendField(&out, name, value);
  }
  out.append("\r\n");
  out.append(response.body);
  return out;
}

}  // namespace http

const std::string* FindHeader(const HttpHeaders& headers,
                              std::string_view name) {
  for (const auto& h : headers) {
    if (h.first == name) return &h.second;
  }
  return nullptr;
}

double HttpRequest::RemainingSeconds() const {
  if (deadline == std::chrono::steady_clock::time_point::max()) {
    return std::numeric_limits<double>::infinity();
  }
  const double remaining = std::chrono::duration<double>(
                               deadline - std::chrono::steady_clock::now())
                               .count();
  return remaining > 0.0 ? remaining : 0.0;
}

const char* HttpReasonPhrase(int status_code) {
  switch (status_code) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 412: return "Precondition Failed";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

}  // namespace surf
