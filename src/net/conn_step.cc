#include "net/conn_step.h"

#include <utility>

#include "util/json.h"

namespace surf {

HttpResponse JsonErrorResponse(int status_code, const std::string& code,
                               const std::string& message) {
  JsonValue error = JsonValue::Object();
  error.Set("code", JsonValue(code));
  error.Set("message", JsonValue(message));
  JsonValue body = JsonValue::Object();
  body.Set("error", std::move(error));
  HttpResponse response;
  response.status_code = status_code;
  response.body = WriteJson(body) + "\n";
  return response;
}

namespace http {
namespace {

/// One step's view: the limits, the connection, the time and the output.
struct Machine {
  const Limits& limits;
  Conn& c;
  Clock::time_point now;
  std::vector<Action>& out;

  void Emit(Action action) { out.push_back(std::move(action)); }
  void Count(Counter counter) {
    Emit({.kind = Action::kCount, .counter = counter});
  }
  void Want(http::Interest interest) {
    Emit({.kind = Action::kInterest, .interest = interest});
  }
  void Arm(Timer timer, Clock::time_point at) {
    Emit({.kind = Action::kArm, .timer = timer, .at = at});
  }

  /// Moves to `phase` and sets the interest and the timer it holds.
  void Enter(Phase phase) {
    c.phase = phase;
    switch (phase) {
      case Phase::kIdle:
        Want(Interest::kRead);
        return Arm(Timer::kIdle, now + limits.idle_timeout);
      case Phase::kReading:  // keeps kIdle's read interest
        return Arm(Timer::kRequest, c.request.deadline);
      case Phase::kDispatched:
        Want(Interest::kNone);
        return Emit({.kind = Action::kDisarm});
      case Phase::kWriting:
        Want(Interest::kWrite);
        return Arm(Timer::kWrite, now + limits.request_budget);
      case Phase::kLingering:
        Emit({.kind = Action::kHalfClose});
        Want(Interest::kRead);
        return Arm(Timer::kLinger, now + kLinger);
      case Phase::kClosed:
        return Emit({.kind = Action::kClose});
    }
  }

  void Write(Reply reply) {
    c.then = reply.then;
    c.served = reply.served;
    Enter(Phase::kWriting);
    Emit({.kind = Action::kWrite, .bytes = std::move(reply.bytes)});
  }

  /// An answer the transport gives itself; the connection closes after it.
  void Refuse(int status, const char* code, const char* message,
              Counter counter) {
    Count(counter);
    Write({.bytes = SerializeResponse(
               JsonErrorResponse(status, code, message), false),
           .then = Then::kLinger});
  }

  /// A write that cannot finish: count it and drop the connection.
  void Drop() {
    Count(Counter::kWriteFailures);
    Enter(Phase::kClosed);
  }

  /// Dispatches the request at the front of `in` once it is complete,
  /// refuses it once it cannot be framed, or waits for more bytes.
  void Pump() {
    if (c.phase == Phase::kIdle) {
      if (c.in.empty()) {
        if (c.peer_eof) Enter(Phase::kClosed);
        return;
      }
      c.request.deadline = now + limits.request_budget;
      Enter(Phase::kReading);
    }
    if (c.framing.head_bytes == 0) {
      c.framing = ParseRequestHead(c.in, limits.max_head_bytes,
                                   limits.max_body_bytes, &c.request);
      if (const WireError* error = c.framing.error) {
        return Refuse(error->status, error->code, error->message,
                      Counter::kParseErrors);
      }
    }
    if (c.framing.need_more() || c.in.size() < c.framing.size()) {
      if (c.peer_eof) Enter(Phase::kClosed);  // EOF mid-request
      return;
    }
    // Surplus bytes (pipelining) stay buffered until this answer flushes.
    c.request.body = c.in.substr(c.framing.head_bytes, c.framing.body_bytes);
    c.in.erase(0, c.framing.size());
    c.framing = Framing();
    Enter(Phase::kDispatched);
    Emit({.kind = Action::kDispatch,
          .request = std::exchange(c.request, HttpRequest())});
  }
};

}  // namespace

void Step(const Limits& limits, Conn* conn, Event event, Clock::time_point now,
          std::vector<Action>* actions) {
  Conn& c = *conn;
  if (c.phase == Phase::kClosed) return;
  Machine m{limits, c, now, *actions};
  const bool reading = c.phase == Phase::kIdle || c.phase == Phase::kReading;
  switch (event.kind) {
    case Event::kOpen:
      return m.Enter(Phase::kIdle);
    case Event::kBytes:
      if (c.phase == Phase::kLingering) return;  // drained and discarded
      c.in.append(event.bytes);
      if (reading) m.Pump();
      return;
    case Event::kPeerEof:
      c.peer_eof = true;
      if (c.phase == Phase::kLingering) m.Enter(Phase::kClosed);
      if (reading) m.Pump();
      return;
    case Event::kFlushed:
      if (c.phase != Phase::kWriting) return;
      if (c.served != Served::kNo) m.Count(Counter::kRequestsServed);
      if (c.served == Served::kBatch) m.Count(Counter::kBatchServed);
      if (c.then == Then::kLinger && !c.peer_eof) {
        m.Enter(Phase::kLingering);
      } else if (c.then != Then::kKeep || c.draining) {
        m.Enter(Phase::kClosed);
      } else {
        m.Enter(Phase::kIdle);
        m.Pump();
      }
      return;
    case Event::kWriteFailed:
      if (c.phase == Phase::kWriting) m.Drop();
      return;
    case Event::kCompletion:
      if (c.phase != Phase::kDispatched) return;
      if (event.reply.drop) return m.Drop();
      return m.Write(std::move(event.reply));
    case Event::kTimer:
      if (c.phase == Phase::kReading) {
        return m.Refuse(408, "deadline_exceeded",
                        c.framing.head_bytes > 0
                            ? "request body not received in time"
                            : "request not received in time",
                        Counter::kRequestTimeouts);
      }
      if (c.phase == Phase::kWriting) return m.Drop();  // a stalled reader
      if (c.phase != Phase::kDispatched) m.Enter(Phase::kClosed);
      return;
    case Event::kDrain:
      c.draining = true;
      if (c.phase == Phase::kIdle) m.Enter(Phase::kClosed);
      return;
  }
}

}  // namespace http
}  // namespace surf
