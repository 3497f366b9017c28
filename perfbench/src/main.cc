// The surfd end-to-end benchmark: an in-process surfd on loopback driven
// by closed-loop keep-alive clients with a request sequence fixed by the
// seed. See perfbench/README.md for the workloads, the metrics and what
// is deliberately left unmeasured.
//
//   surf_perfbench --workload warm_light --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the JSON result; the lines before
// it are the human-readable report, including a `counts:` line of every
// quantity that must repeat exactly for a given seed.

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <latch>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/api_v2.h"
#include "bench_lib.h"
#include "core/finder.h"
#include "core/surf.h"
#include "data/synthetic.h"
#include "ml/gbrt.h"
#include "net/http_server.h"
#include "net/json_codec.h"
#include "net/metrics.h"
#include "net/surf_handler.h"
#include "serve/fingerprint.h"
#include "serve/mining_service.h"
#include "util/json.h"
#include "util/trace.h"

using namespace surf;
using namespace perfbench;

namespace {

/// Stamped during static initialisation, the earliest point of the
/// process the benchmark can see: `setup_s` counts from here.
const uint64_t kProcessStartNs = NowNs();

struct Args {
  Workload workload = Workload::kWarmLight;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Set up, print `setup_s <seconds>`, exit (see FreshSetupSeconds).
  bool setup_only = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      have_workload = ParseWorkload(value, &args->workload);
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = args->seconds > 0.0;
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--setup-only") {
      args->setup_only = value == "1";
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && argc % 2 == 1;
}

size_t InteractiveLanes(Workload workload) {
  return workload == Workload::kWarmLight ? 2 : 1;
}

// ------------------------------------------------------ in-process surfd

struct HandlerRecord {
  uint64_t id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// surfd assembled as `surf_cli serve` does, with every thread count
/// explicit: one MiningService pool thread (blocking /v1/mine runs on
/// the HTTP worker itself), one HTTP worker per interactive connection,
/// one batch worker, the event loop, and single-threaded GBRT (its
/// default). With the clients, never more runnable threads than vCPUs.
class Surfd {
 public:
  explicit Surfd(Workload workload)
      : service_(ServiceOptions()), handler_(&service_, &metrics_) {
    HttpServer::Options options;
    options.num_workers = InteractiveLanes(workload);
    options.batch_workers = 1;
    options.max_inflight = 8;
    options.request_deadline_seconds = 120.0;
    http_ = std::make_unique<HttpServer>(
        options, [this](const HttpRequest& request) { return Handle(request); });
    // As `surf_cli serve` does; without it /metrics omits the transport
    // series, surf_mine_coalesced_total among them.
    handler_.set_transport_stats_provider([this] { return http_->stats(); });
  }
  Surfd(const Surfd&) = delete;
  Surfd& operator=(const Surfd&) = delete;
  ~Surfd() { http_->Shutdown(); }

  static MiningService::Options ServiceOptions() {
    MiningService::Options options;
    options.num_threads = 1;
    return options;
  }

  Status Start() { return http_->Start(); }
  uint16_t port() const { return http_->port(); }
  MiningService& service() { return service_; }
  HttpServer& http() { return *http_; }

  /// While on, timestamps SurfHandler::Handle for requests carrying
  /// `x-perfbench-id` (traced runs only).
  void set_tracing(bool on) { tracing_.store(on); }
  std::vector<HandlerRecord> TakeRecords() {
    std::lock_guard<std::mutex> lock(records_mu_);
    return std::move(records_);
  }

 private:
  HttpResponse Handle(const HttpRequest& request) {
    const std::string* id = tracing_.load(std::memory_order_relaxed)
                                ? request.FindHeader("x-perfbench-id")
                                : nullptr;
    if (id == nullptr) return handler_.Handle(request);
    const uint64_t start = NowNs();
    HttpResponse response = handler_.Handle(request);
    const uint64_t end = NowNs();
    std::lock_guard<std::mutex> lock(records_mu_);
    records_.push_back({std::strtoull(id->c_str(), nullptr, 10), start, end});
    return response;
  }

  MiningService service_;
  ServerMetrics metrics_;
  SurfHandler handler_;
  std::atomic<bool> tracing_{false};
  std::mutex records_mu_;
  std::vector<HandlerRecord> records_;
  std::unique_ptr<HttpServer> http_;  // last: stopped before the rest dies
};

SyntheticDataset MakeDataset(Workload workload) {
  const DatasetRecipe recipe = DatasetFor(workload);
  SyntheticSpec spec;
  spec.dims = recipe.dims;
  spec.num_gt_regions = recipe.gt_regions;
  spec.statistic = SyntheticStatistic::kDensity;
  spec.num_background = recipe.background_rows;
  spec.gt_target_count = recipe.gt_target_count;
  spec.seed = recipe.seed;
  return SyntheticGenerator::Generate(spec);
}

// ---------------------------------------------------------- live passes

struct Exchange {
  uint64_t send_ns = 0;
  uint64_t recv_ns = 0;
  int status = 0;
  uint64_t hash = 0;  // of the body with wall-time fields blanked
  size_t response_bytes = 0;
  size_t request_bytes = 0;
  size_t distinct = 0;
  bool batch = false;
  bool traced = false;
};

struct LiveResult {
  RequestLog interactive;
  RequestLog writer;
  /// Every request, in lane order; latencies of failures are +infinity.
  std::vector<Completion> completions;
  uint64_t start_ns = 0;
  double wall_s = 0.0;
  std::vector<std::vector<Exchange>> lanes;
  /// distinct body → blanked body of its first response.
  std::map<size_t, std::string> first_bodies;
};

uint64_t TraceId(size_t lane, size_t index) {
  return (static_cast<uint64_t>(lane) << 32) | index;
}

/// Sends `seq` over one keep-alive connection per lane, each lane a
/// closed loop, all lanes released together. With `traced`, every second
/// request of a lane carries `x-perfbench-id`, so traced and untraced
/// requests share one pass and one host state.
LiveResult RunPass(uint16_t port, const Sequence& seq, bool traced) {
  LiveResult result;
  const size_t lanes = seq.lanes.size();
  result.lanes.resize(lanes);
  std::vector<std::map<size_t, std::string>> firsts(lanes);
  std::vector<RequestLog> logs(lanes);
  std::vector<std::vector<Completion>> done(lanes);
  std::latch ready(static_cast<std::ptrdiff_t>(lanes));
  std::latch go(1);
  std::vector<std::thread> threads;
  for (size_t lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&, lane] {
      auto client = std::make_unique<Client>();
      bool connected = client->Connect(port);
      ready.count_down();
      go.wait();
      std::string body;
      for (size_t i = 0; i < seq.lanes[lane].size(); ++i) {
        const RequestSpec& spec = seq.lanes[lane][i];
        std::vector<std::string> headers;
        if (spec.batch) headers.push_back("x-surf-priority: batch");
        Exchange ex;
        ex.traced = traced && i % 2 == 1;
        if (ex.traced) {
          headers.push_back("x-perfbench-id: " +
                            std::to_string(TraceId(lane, i)));
        }
        const std::string& body_out = seq.body(spec);
        const std::string wire = PostWire("/v1/mine", body_out, headers);
        ex.distinct = spec.distinct;
        ex.batch = spec.batch;
        ex.request_bytes = body_out.size();
        ex.send_ns = NowNs();
        ex.status = connected ? client->Exchange(wire, &body) : 0;
        ex.recv_ns = NowNs();
        const Outcome outcome = ClassifyStatus(ex.status);
        const double latency_ms =
            static_cast<double>(ex.recv_ns - ex.send_ns) / 1e6;
        logs[lane].Record(outcome, latency_ms);
        done[lane].push_back(
            {ex.recv_ns,
             outcome == Outcome::kOk
                 ? latency_ms
                 : std::numeric_limits<double>::infinity(),
             !spec.batch});
        if (ex.status == 0) {  // broken connection: count it, reconnect
          client = std::make_unique<Client>();
          connected = client->Connect(port);
        } else {
          std::string blanked = BlankTimings(body);
          ex.hash = Fnv1a(blanked);
          ex.response_bytes = blanked.size();
          if (!firsts[lane].count(spec.distinct)) {
            firsts[lane].emplace(spec.distinct, std::move(blanked));
          }
        }
        result.lanes[lane].push_back(ex);
      }
    });
  }
  ready.wait();
  result.start_ns = NowNs();
  go.count_down();
  for (std::thread& t : threads) t.join();
  result.wall_s = static_cast<double>(NowNs() - result.start_ns) / 1e9;
  for (size_t lane = 0; lane < lanes; ++lane) {
    const bool writer = !seq.lanes[lane].empty() && seq.lanes[lane][0].batch;
    (writer ? result.writer : result.interactive).Merge(logs[lane]);
    result.first_bodies.merge(firsts[lane]);
    result.completions.insert(result.completions.end(), done[lane].begin(),
                              done[lane].end());
  }
  return result;
}

// ---------------------------------------------------------------- setup

struct Setup {
  std::unique_ptr<Surfd> surfd;
  /// Planted regions of the dataset; the rows themselves live only in
  /// the service, as in a real surfd.
  std::vector<Region> gt_regions;
  double seconds = 0.0;
  double dataset_ms = 0.0;
  double server_start_ms = 0.0;
  double warmup_ms = 0.0;
  bool ok = false;
};

/// Everything before the first timed request: dataset generated and
/// registered, server listening, resident surrogates trained, and code
/// and allocator pages faulted in by the warm-up requests.
Setup DoSetup(Workload workload, const Sequence& warmup, uint64_t start_ns) {
  Setup s;
  uint64_t t = NowNs();
  SyntheticDataset dataset = MakeDataset(workload);
  s.gt_regions = std::move(dataset.gt_regions);
  s.surfd = std::make_unique<Surfd>(workload);
  if (!s.surfd->service()
           .RegisterDataset(DatasetFor(workload).name, std::move(dataset.data))
           .ok()) {
    return s;
  }
  s.dataset_ms = static_cast<double>(NowNs() - t) / 1e6;
  t = NowNs();
  if (!s.surfd->Start().ok()) return s;
  s.server_start_ms = static_cast<double>(NowNs() - t) / 1e6;
  t = NowNs();
  const LiveResult warm = RunPass(s.surfd->port(), warmup, false);
  s.warmup_ms = static_cast<double>(NowNs() - t) / 1e6;
  s.seconds = static_cast<double>(NowNs() - start_ns) / 1e9;
  s.ok = warm.interactive.failed() == 0 && warm.writer.failed() == 0;
  return s;
}

// -------------------------------------------------------------- answers

StatusOr<v2::MineRequest> Decode(const std::string& body) {
  auto json = ParseJson(body);
  if (!json.ok()) return json.status();
  return MineRequestV2FromJson(*json);
}

std::string Encode(const v2::MineResponse& response,
                   const v2::MineRequest& request) {
  return WriteJson(MineResponseV2ToJson(response, request.query.kind)) + "\n";
}

double AverageIoU(const std::vector<Region>& found,
                  const std::vector<Region>& gt) {
  if (found.empty() || gt.empty()) return 0.0;
  double total = 0.0;
  for (const Region& g : gt) {
    double best = 0.0;
    for (const Region& f : found) best = std::max(best, f.IoU(g));
    total += best;
  }
  return total / static_cast<double>(gt.size());
}

/// §V-B score of one encoded response; -1 when it does not parse.
double ResponseIoU(const std::string& body, const std::vector<Region>& gt) {
  auto json = ParseJson(body);
  if (!json.ok()) return -1.0;
  const JsonValue* result = json->Find("result");
  const JsonValue* regions = result ? result->Find("regions") : nullptr;
  if (regions == nullptr || !regions->is_array()) return -1.0;
  std::vector<Region> found;
  for (const JsonValue& r : regions->array()) {
    const JsonValue* region = r.Find("region");
    if (region == nullptr) return -1.0;
    auto decoded = RegionFromJson(*region);
    if (!decoded.ok()) return -1.0;
    found.push_back(*decoded);
  }
  return AverageIoU(found, gt);
}

SurrogateKey KeyOf(const MiningService& service, const v2::MineRequest& r) {
  SurrogateKey key;
  key.dataset = service.dataset_fingerprint(r.dataset);
  key.statistic = FingerprintStatistic(r.query.statistic);
  key.workload = FingerprintWorkloadParams(r.training.workload);
  key.model = FingerprintTrainOptions(r.training.surrogate);
  return key;
}

size_t TreeCount(const Surrogate& surrogate) {
  const auto* gbrt =
      dynamic_cast<const GradientBoostedTrees*>(&surrogate.model());
  return gbrt == nullptr ? 0 : gbrt->num_trees();
}

// --------------------------------------------------------- the report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string detail;  // sample count, base of a ratio, percentile
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string detail = "") {
    metrics_.push_back(
        {std::move(name), value, std::move(unit), std::move(detail)});
  }
  /// Adds the median of `samples` with its sample count.
  void AddMedian(std::string name, const std::vector<double>& samples,
                 std::string unit = "ms") {
    Add(std::move(name), Median(samples), std::move(unit),
        "median n=" + std::to_string(samples.size()));
  }
  void Fail(std::string why) { failures_.push_back(std::move(why)); }
  bool correct() const { return failures_.empty(); }

  void Print(const std::vector<std::string>& json_names, size_t attempted,
             size_t failed) const {
    for (const std::string& f : failures_) {
      std::printf("CHECK FAILED: %s\n", f.c_str());
    }
    for (const Metric& m : metrics_) {
      std::printf("  %-32s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.detail.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const std::string& name : json_names) {
      for (const Metric& m : metrics_) {
        if (m.name != name) continue;
        // JSON has no infinity; a run with an infinite latency has
        // failed requests and so already fails its checks.
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      first ? "" : ", ", m.name.c_str(),
                      std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
        json += buf;
        first = false;
        break;
      }
    }
    std::printf("%s}}\n", json.c_str());
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

const std::vector<std::string> kEndToEnd = {
    "latency_p50_ms", "latency_tail_ms", "throughput_ops_s",
    "answer_iou",     "peak_rss_mb",     "setup_s"};

const std::vector<std::string> kPerLayer = {
    "net.ingress_ms",        "net.egress_ms",
    "net.handler_ms",        "net.refused",
    "api.decode_ms",         "api.encode_ms",
    "api.handler_self_ms",   "api.request_bytes",
    "api.response_bytes",    "serve.mine_ms",
    "serve.cache_hit_ratio", "serve.evictions",
    "serve.coalesced",       "serve.warm_starts",
    "stats.label_ms",        "stats.labels",
    "stats.labels_defined",  "stats.validate_ms",
    "ml.train_ms",           "ml.kde_fit_ms",
    "ml.predict_ms",         "ml.trees",
    "opt.search_ms",         "opt.objective_evaluations",
    "opt.iterations",        "opt.valid_particle_fraction",
    "core.true_compliance",  "setup.dataset_ms",
    "setup.server_start_ms", "setup.warmup_ms",
    "host.calibration_ms",   "trace.overhead_p50",
    "trace.overhead_tail"};

// ---------------------------------------------------- in-process replay

/// A stage-by-stage search on one model: SurfFinder::Find, then the
/// validation pass MiningService runs, then one swarm-sized
/// Surrogate::EvaluateMany.
FindResult SearchStages(const v2::MineRequest& request,
                         const Surrogate& surrogate, const Kde* kde,
                         const RegionEvaluator& evaluator,
                         SpanRecorder* spans, int parent,
                         TraceContext* trace) {
  FindResult out;
  FinderConfig config = request.search.finder;
  if (config.auto_scale_gso) {
    config.gso.num_glowworms =
        std::max(config.gso.num_glowworms,
                 GsoParams::PaperScaled(surrogate.dims()).num_glowworms);
  }
  SurfFinder finder(surrogate.AsStatisticFn(), surrogate.space(), config);
  finder.SetBatchEstimate(surrogate.AsBatchStatisticFn());
  if (request.execution.use_kde && kde != nullptr) finder.SetKde(kde);
  finder.SetTrace(trace);
  int s = spans->Begin("search", parent);
  out = finder.Find(request.query.threshold, request.query.direction);
  spans->End(s);

  s = spans->Begin("validate", parent);
  size_t complying = 0;
  for (FoundRegion& found : out.regions) {
    found.true_value = evaluator.Evaluate(found.region);
    found.complies_true = SatisfiesThreshold(
        found.true_value, request.query.threshold, request.query.direction);
    complying += found.complies_true ? 1 : 0;
  }
  spans->End(s);
  out.report.true_compliance =
      out.regions.empty() ? 0.0
                          : static_cast<double>(complying) /
                                static_cast<double>(out.regions.size());

  s = spans->Begin("predict", parent);
  surrogate.EvaluateMany(out.gso.particles);
  spans->End(s);
  return out;
}

bool SameDouble(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

bool SameRegions(const std::vector<FoundRegion>& a,
                 const std::vector<FoundRegion>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].region.center() != b[i].region.center() ||
        a[i].region.half_lengths() != b[i].region.half_lengths() ||
        !SameDouble(a[i].fitness, b[i].fitness) ||
        !SameDouble(a[i].estimate, b[i].estimate) ||
        !SameDouble(a[i].true_value, b[i].true_value) ||
        a[i].complies_true != b[i].complies_true) {
      return false;
    }
  }
  return true;
}

/// The freshly trained pipeline of one request, stage by stage.
struct StagePipeline {
  Status status = Status::OK();
  std::unique_ptr<RegionEvaluator> evaluator;
  Surrogate surrogate;
  Kde kde;
  size_t labels = 0;
  size_t queries = 0;
};

StagePipeline TrainStages(const Dataset& data, const v2::MineRequest& r,
                          SpanRecorder* spans, int parent,
                          TraceContext* trace) {
  StagePipeline p;
  int s = spans->Begin("label", parent);
  p.evaluator = MakeEvaluator(r.execution.backend, &data, r.query.statistic,
                              r.execution.shards);
  const Bounds domain = data.ComputeBounds(r.query.statistic.region_cols);
  const RegionWorkload workload = GenerateWorkload(
      *p.evaluator, domain, r.training.workload, CancelToken(), trace);
  spans->End(s);
  p.labels = workload.size();
  p.queries = r.training.workload.num_queries;
  s = spans->Begin("train", parent);
  auto trained = Surrogate::Train(workload, r.training.surrogate, nullptr,
                                  CancelToken(), trace);
  spans->End(s);
  if (!trained.ok()) {
    p.status = trained.status();
    return p;
  }
  p.surrogate = std::move(trained).value();
  s = spans->Begin("kde_fit", parent);
  p.kde = FitDataKde(data, r.query.statistic.region_cols,
                     MiningService::Options().kde_max_samples,
                     r.training.workload.seed + 1);
  spans->End(s);
  return p;
}

/// Per-layer counts of the replay.
struct ReplayCounts {
  uint64_t labels = 0;
  uint64_t queries = 0;
  uint64_t objective_evaluations = 0;
  uint64_t iterations = 0;
  std::vector<double> valid_fraction;
  std::vector<double> compliance;
  std::array<double, kNumTraceStages> program_stage_s{};
};

/// Requests of the traced replay: a fixed prefix of the sequence, taken
/// lane by lane in round-robin order.
std::vector<std::pair<size_t, size_t>> ReplayOrder(const Sequence& seq,
                                                   size_t limit) {
  std::vector<std::pair<size_t, size_t>> order;
  for (size_t i = 0; order.size() < limit; ++i) {
    bool any = false;
    for (size_t lane = 0; lane < seq.lanes.size(); ++lane) {
      if (i < seq.lanes[lane].size() && order.size() < limit) {
        order.push_back({lane, i});
        any = true;
      }
    }
    if (!any) break;
  }
  return order;
}

size_t ReplayLimit(Workload workload) {
  switch (workload) {
    case Workload::kWarmLight: return 1024;
    case Workload::kColdTrain: return 6;
    case Workload::kFeedbackMix: return 48;
  }
  return 0;
}

/// Trains the resident surrogate of warm_light and feedback_mix on a
/// replay service (the first warm-up body carries its recipe), so timed
/// bodies replay as cache hits, as they were served. cold_train has none.
bool PrimeResident(Workload workload, const Sequence& warmup,
                   MiningService* service) {
  if (workload == Workload::kColdTrain) return true;
  auto request = Decode(warmup.bodies[0]);
  return request.ok() && service->Mine(*request).status.ok();
}

/// Replays a prefix of the sequence in-process through the public layer
/// functions, recording one span tree per request. Checks that the stage
/// pipeline agrees with MiningService::Mine region for region.
void ReplayTraced(Workload workload, const Sequence& warmup,
                  const Sequence& seq, SpanRecorder* spans,
                  ReplayCounts* counts, Report* report) {
  MiningService service(Surfd::ServiceOptions());
  const char* name = DatasetFor(workload).name;
  if (!service.RegisterDataset(name, MakeDataset(workload).data).ok()) {
    report->Fail("replay: dataset registration failed");
    return;
  }
  const Dataset& data = *service.dataset(name);
  if (!PrimeResident(workload, warmup, &service)) {
    report->Fail("replay: resident surrogate did not train");
    return;
  }
  // The program's own stage spans, one context per replayed request.
  const auto add_program_stages = [counts](const TraceContext& trace) {
    const auto stage_s = trace.StageSeconds();
    for (int i = 0; i < kNumTraceStages; ++i) {
      counts->program_stage_s[i] += stage_s[i];
    }
  };

  // The resident model's one-off stages (label, train, KDE), once.
  if (workload != Workload::kColdTrain) {
    auto first = Decode(seq.bodies[0]);
    if (first.ok()) {
      TraceContext trace;
      const int root = spans->Begin("resident_training");
      const StagePipeline p = TrainStages(data, *first, spans, root, &trace);
      spans->End(root);
      if (!p.status.ok()) report->Fail("replay: " + p.status.ToString());
      counts->labels += p.labels;
      counts->queries += p.queries;
      add_program_stages(trace);
    }
  }

  for (const auto& [lane, index] : ReplayOrder(seq, ReplayLimit(workload))) {
    const RequestSpec& spec = seq.lanes[lane][index];
    // Untimed decode: the key of the resident model, whose snapshot is
    // pinned before Mine so the stage search sees the same model even
    // when the request is a writer that appends to it.
    auto request = Decode(seq.body(spec));
    if (!request.ok()) {
      report->Fail("replay: body does not decode");
      return;
    }
    SurrogateSnapshot snap;
    if (workload != Workload::kColdTrain) {
      auto entry = service.cache().Peek(KeyOf(service, *request));
      if (entry == nullptr) {
        report->Fail("replay: resident surrogate missing");
        return;
      }
      snap = entry->Snapshot();
    }

    // The handler's mining path in-process: decode, Mine, encode. What
    // is not Mine is the API layer's own share of a request.
    const int root = spans->Begin("replay");
    const int handle =
        spans->Begin(spec.batch ? "write_handle" : "handle", root);
    int s = spans->Begin("decode", handle);
    auto decoded = Decode(seq.body(spec));
    spans->End(s);
    s = spans->Begin(spec.batch ? "write_mine" : "mine", handle);
    const v2::MineResponse response = service.Mine(*decoded);
    spans->End(s);
    s = spans->Begin("encode", handle);
    const std::string encoded = Encode(response, *decoded);
    spans->End(s);
    spans->End(handle);

    TraceContext trace;
    const int stages = spans->Begin("stages", root);
    FindResult staged;
    if (workload == Workload::kColdTrain) {
      const StagePipeline p =
          TrainStages(data, *request, spans, stages, &trace);
      if (!p.status.ok()) {
        report->Fail("replay: " + p.status.ToString());
        return;
      }
      counts->labels += p.labels;
      counts->queries += p.queries;
      staged = SearchStages(*request, p.surrogate, &p.kde, *p.evaluator,
                            spans, stages, &trace);
    } else {
      staged = SearchStages(*request, *snap.surrogate, snap.kde.get(),
                            *snap.evaluator, spans, stages, &trace);
    }
    spans->End(stages);
    spans->End(root);
    add_program_stages(trace);
    counts->objective_evaluations += staged.report.objective_evaluations;
    counts->iterations += staged.report.iterations;
    counts->valid_fraction.push_back(staged.report.particle_valid_fraction);
    counts->compliance.push_back(staged.report.true_compliance);

    if (!response.status.ok()) {
      report->Fail("replay: Mine failed: " + response.status.ToString());
      return;
    }
    if (!SameRegions(staged.regions, response.result.regions)) {
      report->Fail("replay: stage pipeline and MiningService::Mine disagree");
    }
  }
}

/// The correctness replay: every distinct body of the sequence through a
/// fresh in-process MiningService, compared with the HTTP answers byte
/// for byte (wall-time fields aside).
void ReplayCheck(Workload workload, const Sequence& warmup,
                 const Sequence& seq, const LiveResult& live,
                 Report* report) {
  MiningService::Options options = Surfd::ServiceOptions();
  options.num_threads = 4;  // untimed: the clients and server are gone
  MiningService service(options);
  if (!service.RegisterDataset(DatasetFor(workload).name,
                               MakeDataset(workload).data)
           .ok()) {
    report->Fail("check: dataset registration failed");
    return;
  }
  if (!PrimeResident(workload, warmup, &service)) {
    report->Fail("check: resident surrogate did not train");
    return;
  }

  std::vector<v2::MineRequest> requests;
  for (const std::string& body : seq.bodies) {
    auto request = Decode(body);
    if (!request.ok()) {
      report->Fail("check: body does not decode");
      return;
    }
    requests.push_back(*request);
  }
  const std::vector<v2::MineResponse> responses = service.MineBatch(requests);
  std::vector<uint64_t> expected;
  for (size_t i = 0; i < requests.size(); ++i) {
    expected.push_back(Fnv1a(BlankTimings(Encode(responses[i], requests[i]))));
  }
  size_t mismatched = 0;
  for (const auto& lane : live.lanes) {
    for (const Exchange& ex : lane) {
      if (ex.hash != expected[ex.distinct]) ++mismatched;
    }
  }
  if (mismatched > 0) {
    report->Fail(std::to_string(mismatched) +
                 " HTTP answers differ from the in-process Mine replay");
  }
}

/// Value of a Prometheus series in /metrics text; nullopt when the scrape
/// fails or the series is absent.
std::optional<double> ScrapeMetric(uint16_t port, const std::string& series) {
  Client client;
  std::string body;
  if (!client.Connect(port) || client.Exchange(GetWire("/metrics"), &body) != 200) {
    return std::nullopt;
  }
  const size_t pos = body.find("\n" + series + " ");
  if (pos == std::string::npos) return std::nullopt;
  return std::strtod(body.c_str() + pos + series.size() + 2, nullptr);
}

/// Setup times of `n` fresh processes of this benchmark, each counted
/// from its own process start like this process's setup. Re-setting up
/// inside this process would find code pages faulted in, allocator arenas
/// grown and static state initialised, and so miss one-off costs.
std::vector<double> FreshSetupSeconds(const Args& args, int n,
                                      Report* report) {
  char exe[4096];
  const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) {
    report->Fail("cannot locate the benchmark binary for fresh setups");
    return {};
  }
  const std::string command =
      "'" + std::string(exe, static_cast<size_t>(len)) + "' --workload " +
      WorkloadName(args.workload) + " --seed " + std::to_string(args.seed) +
      " --seconds 1 --setup-only 1";
  std::vector<double> seconds;
  for (int k = 0; k < n; ++k) {
    FILE* child = ::popen(command.c_str(), "r");
    double s = -1.0;
    if (child != nullptr) {
      if (std::fscanf(child, "setup_s %lf", &s) != 1) s = -1.0;
      if (::pclose(child) != 0) s = -1.0;  // waits for the child to end
    }
    if (s <= 0.0) {
      report->Fail("a setup in a fresh process failed");
      return seconds;
    }
    seconds.push_back(s);
  }
  return seconds;
}

// ----------------------------------------------------------------- main

std::string Fixed(double v, int digits = 6) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: surf_perfbench --workload "
                 "warm_light|cold_train|feedback_mix --seed N --seconds S "
                 "[--trace 0|1] [--spans-out FILE]\n");
    return 2;
  }
  const Workload workload = args.workload;
  // From process start to the end of setup, this process and the fresh
  // ones of FreshSetupSeconds do the same work.
  const Sequence warmup = MakeWarmupSequence(workload, args.seed);
  Setup active = DoSetup(workload, warmup, kProcessStartNs);
  if (!active.ok) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }
  if (args.setup_only) {
    std::printf("setup_s %.9f\n", active.seconds);
    return 0;
  }

  const Sequence timed = MakeSequence(
      workload, args.seed, TimedRequestCount(workload, args.seconds));
  std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=%d "
              "requests=%zu connections=%zu hardware_threads=%u\n",
              WorkloadName(workload), args.seed, args.seconds,
              args.trace ? 1 : 0, timed.size(), timed.lanes.size(),
              std::thread::hardware_concurrency());
  Report report;
  const double calibration_before = HostCalibrationMs();

  MiningService& service = active.surfd->service();
  const SurrogateCache::Stats cache_before = service.cache().stats();
  active.surfd->set_tracing(args.trace);
  const LiveResult live = RunPass(active.surfd->port(), timed, args.trace);
  active.surfd->set_tracing(false);
  const SurrogateCache::Stats cache_after = service.cache().stats();
  const HttpServer::Stats http_stats = active.surfd->http().stats();
  const std::optional<double> scraped =
      ScrapeMetric(active.surfd->port(), "surf_mine_coalesced_total");
  if (!scraped) report.Fail("surf_mine_coalesced_total missing from /metrics");
  const double coalesced = scraped.value_or(0.0);
  const std::vector<HandlerRecord> handler_records =
      active.surfd->TakeRecords();
  size_t warm_starts = 0, trees = 0;
  if (auto first = Decode(timed.bodies[0]); first.ok()) {
    if (auto entry = service.cache().Peek(KeyOf(service, *first))) {
      warm_starts = entry->provenance().warm_starts;
      trees = TreeCount(*entry->Snapshot().surrogate);
    }
  }
  const double peak_rss = PeakRssMb();
  active.surfd.reset();

  // ---- end-to-end metrics.
  const PoolRecipe recipe = PoolFor(workload);
  const PassStats pass =
      SummarizePass(live.completions, live.start_ns, recipe);
  const size_t attempted =
      live.interactive.attempted() + live.writer.attempted();
  const size_t failed = live.interactive.failed() + live.writer.failed();
  const std::string pooled =
      "over the pool (the fastest " + std::to_string(pass.pooled_chunks) +
      " of " + std::to_string(pass.chunks) + " chunks of " +
      std::to_string(recipe.chunk_samples) + " by median); whole pass ";
  report.Add("latency_p50_ms", pass.p50_ms, "ms",
             "median " + pooled + Fixed(pass.pass_p50_ms, 3));
  report.Add("latency_tail_ms", pass.tail.value, "ms",
             "p" + Fixed(pass.tail.percentile, 0) + " n=" +
                 std::to_string(pass.tail.samples) + " beyond=" +
                 std::to_string(pass.tail.beyond) + " " + pooled + "p" +
                 Fixed(pass.pass_tail.percentile, 0) + " " +
                 Fixed(pass.pass_tail.value, 3) + " n=" +
                 std::to_string(pass.pass_tail.samples));
  report.Add("throughput_ops_s", pass.throughput_ops_s, "ops/s",
             pooled + Fixed(pass.pass_throughput_ops_s, 2) + " over " +
                 Fixed(live.wall_s, 3) + " s");
  if (workload == Workload::kFeedbackMix) {
    report.Add("write_latency_p50_ms", Median(live.writer.samples()), "ms",
               "median n=" + std::to_string(live.writer.samples().size()));
  }
  report.Add("error_rate",
             attempted == 0 ? 1.0 : static_cast<double>(failed) /
                                        static_cast<double>(attempted),
             "ratio", "base=" + std::to_string(attempted) + " attempted");

  // answer_iou: every response, through its distinct body's first answer
  // (the hash check below proves the repeats identical).
  std::map<size_t, double> iou_of;
  for (const auto& [id, body] : live.first_bodies) {
    iou_of[id] = ResponseIoU(body, active.gt_regions);
  }
  double iou_sum = 0.0;
  size_t iou_n = 0;
  for (const auto& lane : live.lanes) {
    for (const Exchange& ex : lane) {
      if (ex.status != 200) continue;
      if (ex.hash != Fnv1a(live.first_bodies.at(ex.distinct)) ||
          iou_of[ex.distinct] < 0.0) {
        report.Fail("HTTP answers to one body differ or do not parse");
        break;
      }
      iou_sum += iou_of[ex.distinct];
      ++iou_n;
    }
  }
  const double answer_iou = iou_n == 0 ? 0.0 : iou_sum / iou_n;
  report.Add("answer_iou", answer_iou, "iou",
             "mean n=" + std::to_string(iou_n) + " floor=" +
                 Fixed(IouFloor(workload), 2));
  report.Add("peak_rss_mb", peak_rss, "MB", "VmHWM");
  // setup_s: median over this process and kFreshSetups more, each from
  // its own process start.
  constexpr int kFreshSetups = 4;
  std::vector<double> setup_s = FreshSetupSeconds(args, kFreshSetups, &report);
  setup_s.push_back(active.seconds);
  report.Add("setup_s", Median(setup_s), "s",
             "median of " + std::to_string(setup_s.size()) +
                 " processes, each from its start; this one " +
                 Fixed(active.seconds, 3) + " s");

  // ---- correctness gate.
  if (failed != 0) report.Fail(std::to_string(failed) + " requests failed");
  if (coalesced != 0.0) report.Fail("coalesced requests: " + Fixed(coalesced, 0));
  const uint64_t hits = cache_after.hits - cache_before.hits;
  const uint64_t misses = cache_after.misses - cache_before.misses;
  const double hit_ratio =
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
  if (workload == Workload::kWarmLight && hit_ratio != 1.0) {
    report.Fail("warm_light cache hit ratio " + Fixed(hit_ratio) + " != 1");
  }
  if (workload == Workload::kColdTrain && hit_ratio != 0.0) {
    report.Fail("cold_train cache hit ratio " + Fixed(hit_ratio) + " != 0");
  }
  if (answer_iou < IouFloor(workload)) {
    report.Fail("answer_iou " + Fixed(answer_iou) + " below floor " +
                Fixed(IouFloor(workload), 2));
  }

  size_t request_bytes = 0, response_bytes = 0, exchanges = 0;
  for (const auto& lane : live.lanes) {
    for (const Exchange& ex : lane) {
      // Reader answers on feedback_mix depend on which model version the
      // reader caught, so only deterministic answers count their bytes.
      if (workload == Workload::kFeedbackMix && !ex.batch) continue;
      request_bytes += ex.request_bytes;
      response_bytes += ex.response_bytes;
      ++exchanges;
    }
  }

  // ---- traced run: per-layer metrics.
  ReplayCounts counts;
  if (args.trace) {
    SpanRecorder spans;
    // Live spans: client send → handler entry → handler exit → receive.
    std::map<uint64_t, const HandlerRecord*> by_id;
    for (const HandlerRecord& r : handler_records) by_id[r.id] = &r;
    for (size_t lane = 0; lane < live.lanes.size(); ++lane) {
      for (size_t i = 0; i < live.lanes[lane].size(); ++i) {
        const Exchange& ex = live.lanes[lane][i];
        auto it = by_id.find(TraceId(lane, i));
        if (it == by_id.end()) continue;
        // Writer spans get their own names: the net metrics describe
        // interactive requests, like the end-to-end latencies.
        const std::string prefix = ex.batch ? "write_" : "";
        const HandlerRecord& h = *it->second;
        const int root = spans.Add(prefix + "http", -1, ex.send_ns, ex.recv_ns);
        spans.Add(prefix + "ingress", root, ex.send_ns, h.start_ns);
        spans.Add(prefix + "handler", root, h.start_ns, h.end_ns);
        spans.Add(prefix + "egress", root, h.end_ns, ex.recv_ns);
      }
    }
    report.AddMedian("net.ingress_ms", spans.DurationsMs("ingress"));
    report.AddMedian("net.egress_ms", spans.DurationsMs("egress"));
    report.AddMedian("net.handler_ms", spans.DurationsMs("handler"));
    report.Add("net.refused",
               static_cast<double>(http_stats.connections_rejected +
                                   http_stats.tenant_throttled +
                                   http_stats.tenant_over_quota +
                                   http_stats.requests_shed +
                                   http_stats.request_timeouts),
               "count", "429/503/408 answers");

    ReplayTraced(workload, warmup, timed, &spans, &counts, &report);
    report.AddMedian("api.decode_ms", spans.DurationsMs("decode"));
    report.AddMedian("api.encode_ms", spans.DurationsMs("encode"));
    const std::vector<double> mine_ms = spans.DurationsMs("mine");
    const std::vector<double> handle_ms = spans.DurationsMs("handle");
    std::vector<double> handler_self_ms;
    for (size_t i = 0; i < handle_ms.size() && i < mine_ms.size(); ++i) {
      handler_self_ms.push_back(handle_ms[i] - mine_ms[i]);
    }
    report.AddMedian("api.handler_self_ms", handler_self_ms);
    report.Add("api.request_bytes",
               exchanges ? static_cast<double>(request_bytes) / exchanges : 0,
               "B", "mean n=" + std::to_string(exchanges));
    report.Add("api.response_bytes",
               exchanges ? static_cast<double>(response_bytes) / exchanges : 0,
               "B", "mean n=" + std::to_string(exchanges) +
                        ", wall-time fields blanked");
    report.AddMedian("serve.mine_ms", mine_ms);
    report.Add("serve.cache_hit_ratio", hit_ratio, "ratio",
               "base=" + std::to_string(hits + misses) + " lookups");
    report.Add("serve.evictions",
               static_cast<double>(cache_after.evictions - cache_before.evictions),
               "count");
    report.Add("serve.coalesced", coalesced, "count");
    report.Add("serve.warm_starts", static_cast<double>(warm_starts), "count");
    if (workload == Workload::kFeedbackMix) {
      report.AddMedian("serve.write_mine_ms", spans.DurationsMs("write_mine"));
    }
    report.AddMedian("stats.label_ms", spans.DurationsMs("label"));
    report.Add("stats.labels", static_cast<double>(counts.labels), "count",
               "of " + std::to_string(counts.queries) + " queries");
    report.Add("stats.labels_defined",
               counts.queries ? static_cast<double>(counts.labels) /
                                    static_cast<double>(counts.queries)
                              : 0.0,
               "ratio", "base=" + std::to_string(counts.queries) + " queries");
    report.AddMedian("stats.validate_ms", spans.DurationsMs("validate"));
    report.AddMedian("ml.train_ms", spans.DurationsMs("train"));
    report.AddMedian("ml.kde_fit_ms", spans.DurationsMs("kde_fit"));
    report.AddMedian("ml.predict_ms", spans.DurationsMs("predict"));
    report.Add("ml.trees", static_cast<double>(trees), "count",
               "resident ensemble at end of run");
    report.AddMedian("opt.search_ms", spans.DurationsMs("search"));
    report.Add("opt.objective_evaluations",
               static_cast<double>(counts.objective_evaluations), "count",
               "replayed requests");
    report.Add("opt.iterations", static_cast<double>(counts.iterations),
               "count", "replayed requests");
    report.Add("opt.valid_particle_fraction", Median(counts.valid_fraction),
               "ratio", "median n=" + std::to_string(counts.valid_fraction.size()));
    report.Add("core.true_compliance", Median(counts.compliance), "ratio",
               "median n=" + std::to_string(counts.compliance.size()));
    report.Add("setup.dataset_ms", active.dataset_ms, "ms", "this process");
    report.Add("setup.server_start_ms", active.server_start_ms, "ms",
               "this process");
    report.Add("setup.warmup_ms", active.warmup_ms, "ms", "this process");

    // Tracing overhead: traced against untraced interactive requests of
    // the same pass.
    std::vector<double> with_spans, without;
    for (const auto& lane : live.lanes) {
      for (const Exchange& ex : lane) {
        if (ex.batch || ex.status != 200) continue;
        (ex.traced ? with_spans : without)
            .push_back(static_cast<double>(ex.recv_ns - ex.send_ns) / 1e6);
      }
    }
    report.Add("trace.overhead_p50", Median(with_spans) / Median(without),
               "ratio", "p50 of " + std::to_string(with_spans.size()) +
                            " traced / " + std::to_string(without.size()) +
                            " untraced requests");
    report.Add("trace.overhead_tail",
               SelectTail(with_spans).value / SelectTail(without).value,
               "ratio", "same percentile, traced / untraced");
    // Cross-check: the program's own mining-stage spans over the same
    // replayed calls.
    std::string program;
    for (int s = 1; s < kNumTraceStages; ++s) {
      program += std::string(" ") + TraceStageName(static_cast<TraceStage>(s)) +
                 "=" + Fixed(counts.program_stage_s[s] * 1e3, 1) + "ms";
    }
    std::printf("program trace stages over the replay:%s\n", program.c_str());
    if (!args.spans_out.empty()) {
      std::ofstream out(args.spans_out);
      out << spans.ToChromeJson();
    }
  }
  if (workload != Workload::kFeedbackMix) {
    ReplayCheck(workload, warmup, timed, live, &report);
  }

  std::printf("counts: {\"requests\": %zu, \"request_bytes\": %zu, "
              "\"response_bytes\": %zu, \"cache_hits\": %" PRIu64
              ", \"cache_misses\": %" PRIu64 ", \"evictions\": %" PRIu64
              ", \"warm_starts\": %zu, \"trees\": %zu, \"labels\": %" PRIu64
              ", \"objective_evaluations\": %" PRIu64
              ", \"iterations\": %" PRIu64 ", \"answer_iou\": %s}\n",
              timed.size(), request_bytes,
              response_bytes, hits, misses,
              cache_after.evictions - cache_before.evictions, warm_starts,
              trees, counts.labels, counts.objective_evaluations,
              counts.iterations,
              workload == Workload::kFeedbackMix
                  ? "null"
                  : Fixed(answer_iou, 15).c_str());
  const double calibration_after = HostCalibrationMs();
  report.Add("host.calibration_ms", (calibration_before + calibration_after) / 2,
             "ms", "mean of before " + Fixed(calibration_before, 1) +
                       " and after " + Fixed(calibration_after, 1) +
                       "; diagnostic only, never scales a metric");
  report.Print(args.trace ? kPerLayer : kEndToEnd, attempted, failed);
  return report.correct() ? 0 : 1;
}
