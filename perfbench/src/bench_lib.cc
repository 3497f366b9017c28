#include "bench_lib.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>

namespace perfbench {

// ------------------------------------------------------------- workloads

namespace {

/// splitmix64: the benchmark's own generator, so its inputs do not move
/// when the library's RNG changes.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double UnitDouble(uint64_t* state) {
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

/// Seeds travel as JSON numbers, so keep them well below 2^53.
uint64_t WireSeed(uint64_t* state) { return SplitMix64(state) >> 33; }

/// Independent streams per purpose, all derived from the run seed.
enum Stream : uint64_t { kTimed = 1, kWarmup = 2 };
uint64_t StreamState(uint64_t seed, Stream stream) {
  uint64_t state = seed * 0x2545F4914F6CDD1DULL + stream;
  SplitMix64(&state);
  return state;
}

struct BodyParams {
  const char* dataset = "";
  size_t dims = 0;
  double threshold = 0.0;
  size_t num_queries = 0;
  uint64_t workload_seed = 5;
  size_t trees = 100;
  bool auto_scale = true;
  size_t glowworms = 100;
  size_t iterations = 100;
  /// Eq. 8 per-iteration KDE mass guidance: off in every recipe, so
  /// search cost is GSO plus surrogate prediction (seeding from the KDE
  /// stays on).
  bool kde_guidance = false;
  uint64_t gso_seed = 99;
  bool record = false;
};

std::string MineBody(const BodyParams& p) {
  std::string cols;
  for (size_t d = 0; d < p.dims; ++d) {
    if (d > 0) cols += ',';
    cols += std::to_string(d);
  }
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"api_version\":2,\"dataset\":\"%s\","
      "\"query\":{\"statistic\":{\"kind\":\"count\",\"region_cols\":[%s]},"
      "\"threshold\":%.1f},"
      "\"training\":{\"workload\":{\"num_queries\":%zu,\"seed\":%" PRIu64
      "},\"surrogate\":{\"gbrt\":{\"n_estimators\":%zu}}},"
      "\"search\":{\"finder\":{\"auto_scale_gso\":%s,"
      "\"use_kde_guidance\":%s,\"gso\":{\"num_glowworms\":%zu,"
      "\"max_iterations\":%zu,\"seed\":%" PRIu64 "}}},"
      "\"execution\":{\"backend\":\"grid_index\",\"shards\":1,"
      "\"validate\":true,\"record_evaluations\":%s}}",
      p.dataset, cols.c_str(), p.threshold, p.num_queries, p.workload_seed,
      p.trees, p.auto_scale ? "true" : "false",
      p.kde_guidance ? "true" : "false", p.glowworms, p.iterations,
      p.gso_seed, p.record ? "true" : "false");
  return buf;
}

// Recipes. warm_light: small 2-d model, tiny fixed swarm, so transport
// and codec are a large share of each request. cold_train: every
// request labels and trains a fresh 8000-query model over 200K+ rows.
// feedback_mix: paper-scaled searches on one resident 3-d model, with a
// single writer feeding validated regions back into it.
BodyParams WarmBody(uint64_t* state) {
  BodyParams p;
  p.dataset = "warm";
  p.dims = 2;
  p.threshold = std::round(10.0 * (2200.0 + 600.0 * UnitDouble(state))) / 10;
  p.num_queries = 2000;
  p.workload_seed = 7;
  p.auto_scale = false;
  p.glowworms = 30;
  p.iterations = 10;
  p.gso_seed = WireSeed(state);
  return p;
}

BodyParams ColdBody(uint64_t* state) {
  BodyParams p;
  p.dataset = "cold";
  p.dims = 3;
  p.threshold = 6000.0;
  p.num_queries = 8000;
  p.workload_seed = WireSeed(state);
  p.gso_seed = WireSeed(state);
  return p;
}

BodyParams FeedbackBody(uint64_t* state, bool writer) {
  BodyParams p;
  p.dataset = "feedback";
  p.dims = 3;
  p.threshold = 4000.0;
  p.num_queries = 4000;
  p.workload_seed = 11;
  // 200 trees: one 25-tree warm start then moves read cost by about
  // 10 %, not 25 %.
  p.trees = 200;
  p.gso_seed = WireSeed(state);
  p.record = writer;
  return p;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kWarmLight, Workload::kColdTrain,
                     Workload::kFeedbackMix}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kWarmLight: return "warm_light";
    case Workload::kColdTrain: return "cold_train";
    case Workload::kFeedbackMix: return "feedback_mix";
  }
  return "";
}

DatasetRecipe DatasetFor(Workload workload) {
  switch (workload) {
    case Workload::kWarmLight: return {"warm", 2, 2, 20000, 6000, 101};
    case Workload::kColdTrain: return {"cold", 3, 3, 200000, 20000, 202};
    case Workload::kFeedbackMix: return {"feedback", 3, 3, 100000, 16000, 202};
  }
  return {};
}

double IouFloor(Workload workload) {
  switch (workload) {
    case Workload::kWarmLight: return 0.40;
    case Workload::kColdTrain: return 0.28;
    case Workload::kFeedbackMix: return 0.25;
  }
  return 1.0;
}

size_t Sequence::size() const {
  size_t n = 0;
  for (const auto& lane : lanes) n += lane.size();
  return n;
}

Sequence MakeSequence(Workload workload, uint64_t seed, size_t count) {
  uint64_t state = StreamState(seed, kTimed);
  Sequence seq;
  switch (workload) {
    case Workload::kWarmLight:
      for (size_t k = 0; k < kWarmDistinctBodies; ++k) {
        seq.bodies.push_back(MineBody(WarmBody(&state)));
      }
      seq.lanes.resize(2);
      for (size_t i = 0; i < count; ++i) {
        seq.lanes[i % 2].push_back({false, i % kWarmDistinctBodies});
      }
      break;
    case Workload::kColdTrain:
      seq.lanes.resize(1);
      for (size_t i = 0; i < count; ++i) {
        seq.bodies.push_back(MineBody(ColdBody(&state)));
        seq.lanes[0].push_back({false, i});
      }
      break;
    case Workload::kFeedbackMix:
      seq.lanes.resize(2);
      for (size_t i = 0; i < count; ++i) {
        const bool writer = i % 2 == 1;
        seq.bodies.push_back(MineBody(FeedbackBody(&state, writer)));
        seq.lanes[i % 2].push_back({writer, i});
      }
      break;
  }
  return seq;
}

Sequence MakeWarmupSequence(Workload workload, uint64_t seed) {
  uint64_t state = StreamState(seed, kWarmup);
  Sequence seq;
  switch (workload) {
    case Workload::kWarmLight:
      seq.lanes.resize(2);
      for (size_t i = 0; i < 128; ++i) {
        seq.bodies.push_back(MineBody(WarmBody(&state)));
        seq.lanes[i % 2].push_back({false, i});
      }
      break;
    case Workload::kColdTrain:
      seq.lanes.resize(1);
      seq.bodies.push_back(MineBody(ColdBody(&state)));
      seq.lanes[0].push_back({false, 0});
      break;
    case Workload::kFeedbackMix:
      // Readers only: a warm-up write would change the model the timed
      // writer sequence starts from.
      seq.lanes.resize(1);
      for (size_t i = 0; i < 4; ++i) {
        seq.bodies.push_back(MineBody(FeedbackBody(&state, false)));
        seq.lanes[0].push_back({false, i});
      }
      break;
  }
  return seq;
}

size_t TimedRequestCount(Workload workload, double seconds) {
  // Requests per second of run length, each near the rate the workload
  // sustains on a 4-vCPU x86 guest.
  double rate = 0.0;
  switch (workload) {
    case Workload::kWarmLight: rate = 1500.0; break;
    case Workload::kColdTrain: rate = 2.0; break;
    case Workload::kFeedbackMix:
      // 30 s → 513 writer requests: at about 3 appended regions each,
      // the 512-example retrain threshold is crossed about three times.
      rate = 34.2;
      break;
  }
  const double n = std::ceil(rate * std::max(seconds, 0.0) - 1e-9);
  // feedback_mix alternates reader and writer, so keep it even.
  const size_t count = std::max<size_t>(2, static_cast<size_t>(n));
  return count + count % 2;
}

// ------------------------------------------------- statistics & failures

Outcome ClassifyStatus(int http_status) {
  if (http_status == 200) return Outcome::kOk;
  if (http_status == 429 || http_status == 503) return Outcome::kRefused;
  if (http_status == 408) return Outcome::kTimedOut;
  return Outcome::kFailed;
}

void RequestLog::Record(Outcome outcome, double latency_ms) {
  ++attempted_;
  switch (outcome) {
    case Outcome::kOk:
      ++ok_;
      samples_.push_back(latency_ms);
      return;
    case Outcome::kRefused: ++refused_; break;
    case Outcome::kTimedOut: ++timed_out_; break;
    case Outcome::kFailed: break;
  }
  samples_.push_back(std::numeric_limits<double>::infinity());
}

void RequestLog::Merge(const RequestLog& other) {
  attempted_ += other.attempted_;
  ok_ += other.ok_;
  refused_ += other.refused_;
  timed_out_ += other.timed_out_;
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
}

namespace {

/// Index of the nearest-rank percentile `p` (0 < p <= 100) among `n`
/// sorted values.
size_t RankIndex(size_t n, double p) {
  const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  return std::clamp<size_t>(rank, 1, n) - 1;
}

}  // namespace

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[RankIndex(samples.size(), 50.0)];
}

Tail SelectTail(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  for (double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    const size_t index = RankIndex(samples.size(), p);
    tail.percentile = p;
    tail.value = samples[index];
    tail.beyond = samples.size() - index - 1;
    if (tail.beyond >= kTailMinBeyond) break;
  }
  return tail;
}

// ------------------------------------------------------- fast-phase stats

PoolRecipe PoolFor(Workload workload) {
  // The fastest tenth of chunks short against the host's phases: about
  // 17 ms of warm_light (two connections at about 1,700 req/s), one
  // request of the others (README.md, "Host phases and the pool").
  switch (workload) {
    case Workload::kWarmLight: return {25, 0.1};
    case Workload::kColdTrain: return {1, 0.1};
    case Workload::kFeedbackMix: return {1, 0.1};
  }
  return {};
}

PassStats SummarizePass(std::vector<Completion> done, uint64_t start_ns,
                        const PoolRecipe& recipe) {
  PassStats stats;
  std::sort(done.begin(), done.end(),
            [](const Completion& a, const Completion& b) {
              return a.end_ns < b.end_ns;
            });
  std::vector<double> latencies;  // interactive, in completion order
  std::vector<uint64_t> ends;
  size_t succeeded = 0;
  for (const Completion& c : done) {
    succeeded += std::isfinite(c.latency_ms) ? 1 : 0;
    if (!c.interactive) continue;
    latencies.push_back(c.latency_ms);
    ends.push_back(c.end_ns);
  }
  if (!done.empty() && done.back().end_ns > start_ns) {
    stats.pass_throughput_ops_s =
        static_cast<double>(succeeded) /
        (static_cast<double>(done.back().end_ns - start_ns) / 1e9);
  }
  stats.pass_p50_ms = Median(latencies);
  stats.pass_tail = SelectTail(latencies);
  const size_t n = latencies.size();
  if (n == 0) return stats;

  // Chunks of consecutive interactive completions, equal counts. A chunk
  // spans the time from the previous chunk's last interactive completion
  // to its own, and owns every successful completion (writer included)
  // in that span.
  struct Chunk {
    size_t begin = 0, end = 0;  // into `latencies`
    double median = 0.0;
    size_t succeeded = 0;
    uint64_t ns = 0;
  };
  stats.chunks = std::max<size_t>(1, n / std::max<size_t>(1, recipe.chunk_samples));
  std::vector<Chunk> chunks;
  uint64_t chunk_start = start_ns;
  size_t next = 0;  // first completion of `done` not yet in a chunk
  for (size_t c = 0; c < stats.chunks; ++c) {
    Chunk chunk;
    chunk.begin = c * n / stats.chunks;
    chunk.end = (c + 1) * n / stats.chunks;
    chunk.median = Median(std::vector<double>(latencies.begin() + chunk.begin,
                                              latencies.begin() + chunk.end));
    const uint64_t chunk_end = ends[chunk.end - 1];
    for (; next < done.size() && done[next].end_ns <= chunk_end; ++next) {
      chunk.succeeded += std::isfinite(done[next].latency_ms) ? 1 : 0;
    }
    chunk.ns = chunk_end - chunk_start;
    chunks.push_back(chunk);
    chunk_start = chunk_end;
  }

  // The pool: the fastest share, chosen by chunk median alone.
  std::stable_sort(chunks.begin(), chunks.end(),
                   [](const Chunk& a, const Chunk& b) {
                     return a.median < b.median;
                   });
  stats.pooled_chunks = std::clamp<size_t>(
      static_cast<size_t>(std::llround(recipe.share * chunks.size())), 1,
      chunks.size());
  std::vector<double> pool;
  size_t pooled_succeeded = 0;
  uint64_t pooled_ns = 0;
  for (size_t c = 0; c < stats.pooled_chunks; ++c) {
    pool.insert(pool.end(), latencies.begin() + chunks[c].begin,
                latencies.begin() + chunks[c].end);
    pooled_succeeded += chunks[c].succeeded;
    pooled_ns += chunks[c].ns;
  }
  stats.p50_ms = Median(pool);
  stats.tail = SelectTail(pool);
  if (pooled_ns > 0) {
    stats.throughput_ops_s = static_cast<double>(pooled_succeeded) /
                             (static_cast<double>(pooled_ns) / 1e9);
  }
  return stats;
}

// ------------------------------------------------------------ transport

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

bool Client::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  timeval timeout{60, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
}

bool Client::Fill(std::string* buffer) {
  char chunk[16384];
  const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
  if (n <= 0) return false;
  buffer->append(chunk, static_cast<size_t>(n));
  return true;
}

int Client::Exchange(const std::string& wire, std::string* body) {
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n =
        ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return 0;
    sent += static_cast<size_t>(n);
  }
  std::string buffer;
  size_t head_end = std::string::npos;
  while ((head_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    if (!Fill(&buffer)) return 0;
  }
  if (buffer.size() < 12) return 0;
  const int status = std::atoi(buffer.c_str() + 9);
  size_t length = 0;
  const size_t cl = buffer.find("Content-Length: ");
  if (cl != std::string::npos && cl < head_end) {
    length = std::strtoull(buffer.c_str() + cl + 16, nullptr, 10);
  }
  body->assign(buffer, head_end + 4);
  while (body->size() < length) {
    if (!Fill(body)) return 0;
  }
  body->resize(length);
  return status;
}

std::string PostWire(const std::string& path, const std::string& body,
                     const std::vector<std::string>& headers) {
  std::string wire = "POST " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  for (const std::string& h : headers) wire += h + "\r\n";
  wire += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  return wire + body;
}

std::string GetWire(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

std::string BlankTimings(const std::string& body) {
  static constexpr std::string_view kKeys[] = {
      "\"total_seconds\":", "\"seconds\":", "\"train_seconds\":"};
  std::string out;
  out.reserve(body.size());
  size_t i = 0;
  while (i < body.size()) {
    size_t next = std::string::npos;
    size_t key_len = 0;
    for (std::string_view key : kKeys) {
      const size_t pos = body.find(key, i);
      if (pos < next) {
        next = pos;
        key_len = key.size();
      }
    }
    if (next == std::string::npos) {
      out.append(body, i, std::string::npos);
      break;
    }
    const size_t value = next + key_len;
    out.append(body, i, value - i);
    out += '0';
    i = value;
    while (i < body.size() && body[i] != ',' && body[i] != '}') ++i;
  }
  return out;
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// ----------------------------------------------------------------- spans

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int SpanRecorder::Add(std::string name, int parent, uint64_t start_ns,
                      uint64_t end_ns) {
  spans_.push_back({std::move(name), parent, start_ns, end_ns});
  return static_cast<int>(spans_.size()) - 1;
}

int SpanRecorder::Begin(std::string name, int parent) {
  return Add(std::move(name), parent, NowNs(), 0);
}

void SpanRecorder::End(int index) { spans_[index].end_ns = NowNs(); }

double SpanRecorder::DurationMs(int index) const {
  const Span& s = spans_[index];
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

std::vector<double> SpanRecorder::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(DurationMs(static_cast<int>(i)));
  }
  return out;
}

std::string SpanRecorder::ToChromeJson() const {
  const uint64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name.c_str(),
                  static_cast<double>(s.start_ns - epoch) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent);
    out += buf;
  }
  return out + "]}\n";
}

// ------------------------------------------------------------------ host

double HostCalibrationMs() {
  // Eight independent multiply chains keep the core's multiplier busy
  // every cycle, so the loop slows when another guest shares the physical
  // core; one dependent chain would not (see README.md, "Host phases").
  const uint64_t start = NowNs();
  uint64_t x[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (uint64_t i = 0; i < 200000000ULL; ++i) {
    for (uint64_t k = 0; k < 8; ++k) x[k] = x[k] * 6364136223846793005ULL + k;
  }
  const uint64_t end = NowNs();
  // Keep the loop's result observable so it cannot be folded away.
  if ((x[0] ^ x[1] ^ x[2] ^ x[3] ^ x[4] ^ x[5] ^ x[6] ^ x[7]) == 42) {
    std::fprintf(stderr, "calibration sentinel\n");
  }
  return static_cast<double>(end - start) / 1e6;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
