#ifndef SURF_NET_CONN_STEP_H_
#define SURF_NET_CONN_STEP_H_

/// \file
/// \brief surfd's connection state machine as one pure function.
///
/// `Step` makes every per-connection decision: when a request is complete
/// and goes to a handler, which answers the transport writes itself
/// (400/408/413/431/501), what follows a write, and which socket interest
/// and timer each phase holds. It makes no syscall, takes no lock and
/// reads no clock, so tests drive any order of events without sockets or
/// sleeps. HttpServer carries out the actions.

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "net/http_wire.h"

namespace surf {

/// Builds a JSON error response `{"error": {"code": ..., "message": ...}}`
/// with the given HTTP status.
HttpResponse JsonErrorResponse(int status_code, const std::string& code,
                               const std::string& message);

namespace http {

using Clock = std::chrono::steady_clock;

/// A live connection is in one phase, which holds one interest and at
/// most one timer.
enum class Phase {
  kIdle,        ///< No request byte yet: read interest, idle timer.
  kReading,     ///< Mid-request: read interest, the request deadline.
  kDispatched,  ///< A handler owns the request: no interest, no timer.
  kWriting,     ///< Flushing an answer: write interest, write deadline.
  kLingering,   ///< Half-closed after an error answer: reads and discards
                ///< the peer's bytes until EOF or the linger timer.
  kClosed,
};
enum class Interest { kNone, kRead, kWrite };
enum class Timer { kIdle, kRequest, kWrite, kLinger };
/// What follows a flushed write: keep the connection (unless draining),
/// close it, or linger half-closed so the peer reads the answer.
enum class Then { kKeep, kClose, kLinger };
/// What a flushed answer counts: nothing, requests_served, or that and
/// batch_served.
enum class Served { kNo, kInteractive, kBatch };
/// The HttpServer::Stats counters a step bumps, in declaration order.
enum class Counter {
  kParseErrors, kRequestTimeouts, kWriteFailures, kRequestsServed, kBatchServed
};

/// How long an error-closed connection lingers half-closed: close() with
/// unread input sends an RST that can discard the answer just written.
inline constexpr Clock::duration kLinger = std::chrono::milliseconds(250);

struct Limits {
  size_t max_head_bytes = 0;
  size_t max_body_bytes = 0;
  /// Spent twice: reading, from the request's first byte; writing, from
  /// the moment the answer is ready.
  Clock::duration request_budget{};
  Clock::duration idle_timeout{};
};

/// The answer to a dispatched request: a handler's response, a shed 503,
/// or a 429 from admission control or the tenant governor.
struct Reply {
  std::string bytes;
  Then then = Then::kKeep;
  Served served = Served::kNo;
  bool drop = false;  ///< Injected write fault: count it and close.
};

struct Event {
  enum Kind {
    kOpen,         ///< Accepted.
    kBytes,        ///< `bytes` were read (a view valid for the call).
    kPeerEof,      ///< The peer sends nothing more (EOF or read error).
    kFlushed,      ///< The write left in full.
    kWriteFailed,  ///< The write failed.
    kCompletion,   ///< `reply` for the dispatched request.
    kTimer,        ///< The armed timer fired.
    kDrain,        ///< The server began a graceful drain.
  } kind;
  std::string_view bytes = {};
  Reply reply = {};
};

struct Action {
  enum Kind {
    kInterest,  ///< Poll for `interest`.
    kArm,       ///< Arm `timer` at `at`, replacing the armed one.
    kDisarm,
    kCount,     ///< Bump `counter`.
    kHalfClose,
    kClose,
    kWrite,     ///< Write `bytes`; report kFlushed or kWriteFailed.
    kDispatch,  ///< Hand `request` on; deliver one kCompletion.
  } kind;
  Interest interest = Interest::kNone;
  Timer timer = Timer::kIdle;
  Clock::time_point at = {};
  Counter counter = Counter::kParseErrors;
  std::string bytes = {};
  HttpRequest request = {};
};

/// One connection's state.
struct Conn {
  Phase phase = Phase::kIdle;
  Then then = Then::kKeep;      ///< kWriting: what follows the flush.
  Served served = Served::kNo;  ///< kWriting: what the flush counts.
  bool peer_eof = false;  ///< Close once the buffered requests are done.
  bool draining = false;  ///< No keep-alive after the next write.
  std::string in;         ///< Unconsumed bytes (pipelining carries over).
  Framing framing;        ///< The request being read (no head yet: 0).
  HttpRequest request;    ///< Its head; deadline set at its first byte.
};

/// Applies `event` to `*conn` at `now` and appends, in order, what the
/// transport must do. A kWrite or kDispatch comes last, at most one per
/// step; nothing follows kClose. An event the phase does not expect (a
/// timer while dispatched, anything once closed) does nothing.
void Step(const Limits& limits, Conn* conn, Event event, Clock::time_point now,
          std::vector<Action>* actions);

}  // namespace http
}  // namespace surf

#endif  // SURF_NET_CONN_STEP_H_
