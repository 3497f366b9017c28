#ifndef PERFBENCH_BENCH_LIB_H_
#define PERFBENCH_BENCH_LIB_H_

// Helpers of the surfd benchmark that do not depend on a running server:
// seeded request sequences, latency statistics and failure accounting,
// the keep-alive HTTP client, response canonicalisation, the span
// recorder, and the host probe. bench_lib_test.cc covers the first three.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------- workloads

enum class Workload { kWarmLight, kColdTrain, kFeedbackMix };

/// Parses a workload name ("warm_light", ...); false when unknown.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

/// One request of a workload's fixed sequence.
struct RequestSpec {
  /// Sent with `x-surf-priority: batch` (the feedback_mix writer).
  bool batch = false;
  /// Index of its body in Sequence::bodies (warm_light cycles through 256
  /// bodies; every other request is its own body).
  size_t distinct = 0;
};

/// The synthetic dataset behind a workload (fixed: the seed argument
/// varies the requests, not the data, so runs on different seeds stay
/// comparable).
struct DatasetRecipe {
  const char* name = "";
  size_t dims = 0;
  size_t gt_regions = 0;
  size_t background_rows = 0;
  /// Points per planted region (background included).
  size_t gt_target_count = 0;
  uint64_t seed = 0;
};
DatasetRecipe DatasetFor(Workload workload);

/// Floor the run's mean §V-B IoU must clear.
double IouFloor(Workload workload);

/// Per-connection request lists of one run: connection c sends
/// `lanes[c]` in order as a closed loop.
struct Sequence {
  std::vector<std::vector<RequestSpec>> lanes;
  /// Distinct v2 `/v1/mine` bodies, each held once, so that the
  /// benchmark's own memory stays small beside the server's.
  std::vector<std::string> bodies;
  const std::string& body(const RequestSpec& spec) const {
    return bodies[spec.distinct];
  }
  size_t size() const;
};

/// Distinct bodies warm_light cycles through, so that no two concurrent
/// requests carry the same bytes and coalescing never merges them.
inline constexpr size_t kWarmDistinctBodies = 256;

/// The timed sequence of `workload` for `seed`: `count` requests in
/// total, split over the workload's connections. Depends on nothing but
/// its arguments.
Sequence MakeSequence(Workload workload, uint64_t seed, size_t count);

/// Warm-up requests, drawn from a stream disjoint from every timed one.
Sequence MakeWarmupSequence(Workload workload, uint64_t seed);

/// Number of timed requests for a run of `seconds`: a per-workload
/// constant rate times the run length, never a count of what fit in a
/// time window, so a run's work does not depend on machine speed.
size_t TimedRequestCount(Workload workload, double seconds);

// ------------------------------------------------- statistics & failures

/// How a request ended.
enum class Outcome { kOk, kRefused, kTimedOut, kFailed };

/// HTTP status → outcome: 200 ok; 429/503 refused; 408 timed out;
/// anything else failed.
Outcome ClassifyStatus(int http_status);

/// Latency samples and outcomes of a set of requests. A request that did
/// not end kOk counts as failed and as missing every latency: it enters
/// the sample set as +infinity.
class RequestLog {
 public:
  void Record(Outcome outcome, double latency_ms);
  void Merge(const RequestLog& other);

  size_t attempted() const { return attempted_; }
  size_t failed() const { return attempted_ - ok_; }
  size_t refused() const { return refused_; }
  size_t timed_out() const { return timed_out_; }
  /// One sample per attempted request, failures as +infinity.
  const std::vector<double>& samples() const { return samples_; }

 private:
  size_t attempted_ = 0;
  size_t ok_ = 0;
  size_t refused_ = 0;
  size_t timed_out_ = 0;
  std::vector<double> samples_;
};

/// Median by nearest rank; 0 for an empty set.
double Median(std::vector<double> samples);

/// A tail latency and the evidence behind it.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  /// Samples strictly above the reported percentile's rank.
  size_t beyond = 0;
  size_t samples = 0;
};

/// Samples a reported tail percentile must have beyond it.
inline constexpr size_t kTailMinBeyond = 10;

/// The highest percentile of {99, 95, 90, 75, 50} that has at least
/// kTailMinBeyond samples beyond it (the median when none has).
Tail SelectTail(std::vector<double> samples);

// ------------------------------------------------------- fast-phase stats

/// One finished request of a timed pass.
struct Completion {
  uint64_t end_ns = 0;
  /// +infinity when the request failed.
  double latency_ms = 0.0;
  /// Counts toward the latency metrics (false for the feedback_mix
  /// writer, which still counts toward throughput).
  bool interactive = true;
};

/// How a workload's timed pass is pooled: it is cut into chunks of
/// `chunk_samples` consecutive interactive completions, and the fastest
/// `share` of the chunks, ranked by median, form the pool.
struct PoolRecipe {
  size_t chunk_samples = 1;
  double share = 1.0;
};
PoolRecipe PoolFor(Workload workload);

/// End-to-end statistics of a timed pass. Each vCPU of the host runs
/// either at full speed or about 1.45x slower, switching within a second
/// or staying for minutes (README.md, "Host phases and the pool"). So the
/// pass is cut into chunks, the chunks are ranked by their interactive
/// median alone, and the fastest share of them is pooled: p50, tail and
/// throughput are all taken over that pool. A rare stall, or a writer's
/// slow request, does not move a chunk's median, so it is not what
/// decides whether its chunk is pooled; it stays in the figures whenever
/// its chunk is.
struct PassStats {
  double p50_ms = 0.0;
  Tail tail;
  /// Successful completions of every class in the pooled chunks, divided
  /// by the time those chunks span.
  double throughput_ops_s = 0.0;
  size_t chunks = 0;
  size_t pooled_chunks = 0;
  /// Whole-pass figures, for the report.
  double pass_p50_ms = 0.0;
  Tail pass_tail;
  double pass_throughput_ops_s = 0.0;
};

/// Summarizes the completions of a pass that started at `start_ns`.
/// Throughput counts successful completions of every class; latencies
/// only interactive ones.
PassStats SummarizePass(std::vector<Completion> done, uint64_t start_ns,
                        const PoolRecipe& recipe);

// ------------------------------------------------------------ transport

/// Blocking keep-alive HTTP/1.1 client over loopback.
class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(uint16_t port);
  /// Sends `wire` and reads one Content-Length-framed response. Returns
  /// the status code, or 0 when the connection failed or timed out.
  int Exchange(const std::string& wire, std::string* body);

 private:
  bool Fill(std::string* buffer);
  int fd_ = -1;
};

/// Request bytes for POST `path` with optional extra header lines
/// ("name: value").
std::string PostWire(const std::string& path, const std::string& body,
                     const std::vector<std::string>& headers = {});
std::string GetWire(const std::string& path);

/// The response body with the values of its wall-time fields
/// (`total_seconds`, `seconds`, `train_seconds`) replaced by 0: what is
/// left is a deterministic function of the request.
std::string BlankTimings(const std::string& body);

/// 64-bit FNV-1a.
uint64_t Fnv1a(std::string_view bytes);

// ----------------------------------------------------------------- spans

/// In-memory spans of one thread; written out when the run ends.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  /// Adds a finished span; returns its index.
  int Add(std::string name, int parent, uint64_t start_ns, uint64_t end_ns);
  /// Opens a span now; close it with End.
  int Begin(std::string name, int parent = -1);
  void End(int index);

  /// Milliseconds of span `index`.
  double DurationMs(int index) const;
  /// Durations (ms) of every span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

  const std::vector<Span>& spans() const { return spans_; }
  /// Chrome trace-event JSON of every span.
  std::string ToChromeJson() const;

 private:
  std::vector<Span> spans_;
};

/// Monotonic nanoseconds.
uint64_t NowNs();

// ------------------------------------------------------------------ host

/// Milliseconds one fixed throughput-bound integer loop takes (0.6–1 s on
/// a 2023-era x86 core). A diagnostic of host speed, never used to scale
/// a metric.
double HostCalibrationMs();

/// VmHWM of this process in MB (0 when unreadable).
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_LIB_H_
