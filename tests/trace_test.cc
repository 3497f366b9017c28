// Tests for the pipeline trace layer: span recording and nesting, the
// disabled-mode cost contract (zero allocation), StageStats histograms,
// the trace ring, the JSON/Chrome encoders, and the guarantee that
// tracing never perturbs mined results.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/finder.h"
#include "core/surrogate.h"
#include "core/workload.h"
#include "data/synthetic.h"
#include "net/json_codec.h"
#include "util/json.h"
#include "util/trace.h"

// Global allocation counter backing the disabled-mode zero-allocation
// test. Counting relaxed-atomically keeps the override harmless for the
// rest of the binary.
namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace surf {
namespace {

// ------------------------------------------------------------ TraceContext

TEST(TraceContextTest, RaiiSpansNestThroughThreadCursor) {
  TraceContext ctx;
  {
    TraceSpan root(&ctx, "request");
    {
      TraceSpan child(&ctx, "training", TraceStage::kTraining);
      TraceSpan grandchild(&ctx, "kde_fit", TraceStage::kTraining);
      (void)grandchild;
    }
    TraceSpan sibling(&ctx, "search", TraceStage::kSearch);
    (void)sibling;
  }
  const auto spans = ctx.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_STREQ(spans[0].name, "request");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);   // training under request
  EXPECT_EQ(spans[2].parent, 1);   // kde_fit under training
  EXPECT_EQ(spans[3].parent, 0);   // search back under request
  for (const auto& span : spans) EXPECT_GT(span.dur_ns, 0u);
}

TEST(TraceContextTest, ExplicitParentCrossesThreads) {
  TraceContext ctx;
  int32_t worker_parent = -1;
  {
    TraceSpan root(&ctx, "request");
    std::thread worker([&ctx, &root, &worker_parent] {
      TraceSpan span(&ctx, "label_batch", TraceStage::kLabelling,
                     root.index());
      worker_parent = span.index();
    });
    worker.join();
  }
  const auto spans = ctx.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(worker_parent, 1);
  EXPECT_EQ(spans[1].parent, 0);
  // The worker got its own dense thread index.
  EXPECT_NE(spans[1].tid, spans[0].tid);
}

TEST(TraceContextTest, ConcurrentRecordingIsSafeAndComplete) {
  TraceContext ctx;
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ctx] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan span(&ctx, "concurrent", TraceStage::kLabelling);
        (void)span;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ctx.Snapshot().size(),
            static_cast<size_t>(kThreads * kSpansPerThread));
  EXPECT_EQ(ctx.dropped(), 0u);
}

TEST(TraceContextTest, SpanCapCountsDrops) {
  TraceContext ctx;
  for (size_t i = 0; i < TraceContext::kMaxSpans + 100; ++i) {
    ctx.EndSpan(ctx.BeginSpan("flood", TraceStage::kNone, -1));
  }
  EXPECT_EQ(ctx.Snapshot().size(), TraceContext::kMaxSpans);
  EXPECT_EQ(ctx.dropped(), 100u);
}

TEST(TraceContextTest, StageSecondsSumsClosedSpans) {
  TraceContext ctx;
  const int32_t a = ctx.BeginSpan("search", TraceStage::kSearch, -1);
  const int32_t b = ctx.BeginSpan("search", TraceStage::kSearch, -1);
  ctx.EndSpan(a);
  ctx.EndSpan(b);
  const int32_t open = ctx.BeginSpan("search", TraceStage::kSearch, -1);
  (void)open;  // never closed: must not count
  const auto stages = ctx.StageSeconds();
  EXPECT_GT(stages[static_cast<int>(TraceStage::kSearch)], 0.0);
  EXPECT_EQ(stages[static_cast<int>(TraceStage::kTraining)], 0.0);
  EXPECT_EQ(stages[0], 0.0);  // kNone never accumulates
}

TEST(TraceContextTest, CurrentTraceIdFollowsInnermostSpan) {
  EXPECT_EQ(CurrentTraceId(), nullptr);
  TraceContext ctx;
  {
    TraceSpan span(&ctx, "request");
    ASSERT_NE(CurrentTraceId(), nullptr);
    EXPECT_EQ(*CurrentTraceId(), ctx.id());
  }
  EXPECT_EQ(CurrentTraceId(), nullptr);
}

// --------------------------------------------------------- disabled mode

TEST(TraceSpanTest, DisabledModeAllocatesNothing) {
  // Warm the thread-local cursor and counters outside the window.
  { TraceSpan warm(nullptr, "warm"); }
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    TraceSpan span(nullptr, "hot", TraceStage::kSearch);
    span.Attr("count", static_cast<uint64_t>(i));
    span.Attr("ratio", 0.5);
  }
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), before);
}

TEST(TraceSpanTest, DisabledModeLeavesCursorAlone) {
  TraceContext ctx;
  TraceSpan outer(&ctx, "request");
  { TraceSpan disabled(nullptr, "noop"); }
  // A null-context span must not disturb the enclosing trace's cursor.
  TraceSpan child(&ctx, "child");
  EXPECT_EQ(ctx.Snapshot()[1].parent, 0);
}

// ------------------------------------------------------------- StageStats

TEST(StageStatsTest, RecordsIntoCorrectBucket) {
  StageStats& stats = StageStats::Instance();
  stats.Reset();
  stats.Record(TraceStage::kTraining, 2'000'000);  // 2ms → le=0.0025
  stats.Record(TraceStage::kTraining, 400'000'000);  // 0.4s → le=0.5
  stats.Record(TraceStage::kTraining, 60'000'000'000);  // 60s → +Inf
  const auto snap = stats.Get(TraceStage::kTraining);
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.buckets[2], 1u);   // 0.0025 bound
  EXPECT_EQ(snap.buckets[9], 1u);   // 0.5 bound
  EXPECT_EQ(snap.buckets[StageStats::kNumBuckets - 1], 1u);  // +Inf
  EXPECT_NEAR(snap.sum_seconds, 60.402, 1e-6);
  stats.Reset();
}

TEST(StageStatsTest, ClosedStagedSpansFeedTheHistograms) {
  StageStats& stats = StageStats::Instance();
  stats.Reset();
  TraceContext ctx;
  { TraceSpan span(&ctx, "workload_gen", TraceStage::kWorkloadGen); }
  { TraceSpan span(&ctx, "tree", TraceStage::kNone); }
  EXPECT_EQ(stats.Get(TraceStage::kWorkloadGen).count, 1u);
  // kNone spans are tree-only.
  for (int s = 1; s < kNumTraceStages; ++s) {
    if (s == static_cast<int>(TraceStage::kWorkloadGen)) continue;
    EXPECT_EQ(stats.Get(static_cast<TraceStage>(s)).count, 0u);
  }
  stats.Reset();
}

// -------------------------------------------------------------- TraceRing

TEST(TraceRingTest, FindsRetainedAndEvictsOldest) {
  TraceRing ring(2);
  auto a = std::make_shared<TraceContext>();
  auto b = std::make_shared<TraceContext>();
  auto c = std::make_shared<TraceContext>();
  const std::string id_a = a->id();
  ring.Add(a);
  ring.Add(b);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.Find(id_a), a);
  ring.Add(c);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.Find(id_a), nullptr);  // oldest fell off
  EXPECT_EQ(ring.Find(c->id()), c);
}

// --------------------------------------------------------------- encoders

TEST(TraceJsonTest, SummaryCarriesStagesAndSpans) {
  TraceContext ctx;
  {
    TraceSpan root(&ctx, "request");
    TraceSpan search(&ctx, "search", TraceStage::kSearch);
    search.Attr("iterations", static_cast<uint64_t>(42));
  }
  const JsonValue summary = TraceSummaryToJson(ctx);
  ASSERT_TRUE(summary.is_object());
  EXPECT_EQ(summary.Find("id")->string_value(), ctx.id());
  EXPECT_EQ(summary.Find("dropped_spans")->number_value(), 0.0);

  const JsonValue* stages = summary.Find("stage_seconds");
  ASSERT_NE(stages, nullptr);
  EXPECT_GT(stages->Find("search")->number_value(), 0.0);
  EXPECT_EQ(stages->Find("training")->number_value(), 0.0);

  const JsonValue* spans = summary.Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->array().size(), 2u);
  const JsonValue& search_span = spans->array()[1];
  EXPECT_EQ(search_span.Find("name")->string_value(), "search");
  EXPECT_EQ(search_span.Find("stage")->string_value(), "search");
  EXPECT_EQ(search_span.Find("parent")->number_value(), 0.0);
  EXPECT_GT(search_span.Find("dur_us")->number_value(), 0.0);
  EXPECT_EQ(search_span.Find("attrs")->Find("iterations")->string_value(),
            "42");
  // The root span carries no stage and no attrs → both keys absent.
  EXPECT_EQ(spans->array()[0].Find("stage"), nullptr);
  EXPECT_EQ(spans->array()[0].Find("attrs"), nullptr);
}

TEST(TraceJsonTest, ChromeExportIsStructurallyValid) {
  TraceContext ctx;
  {
    TraceSpan root(&ctx, "request");
    TraceSpan train(&ctx, "training", TraceStage::kTraining);
    train.Attr("rounds", std::string("0..24"));
  }
  const JsonValue chrome = TraceToChromeJson(ctx);
  ASSERT_TRUE(chrome.is_object());
  EXPECT_EQ(chrome.Find("displayTimeUnit")->string_value(), "ms");
  EXPECT_EQ(chrome.Find("otherData")->Find("trace_id")->string_value(),
            ctx.id());

  const JsonValue* events = chrome.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  const auto spans = ctx.Snapshot();
  ASSERT_EQ(events->array().size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const JsonValue& event = events->array()[i];
    // The complete-event fields Perfetto requires.
    EXPECT_EQ(event.Find("ph")->string_value(), "X");
    EXPECT_STREQ(event.Find("name")->string_value().c_str(), spans[i].name);
    EXPECT_TRUE(event.Find("cat")->is_string());
    EXPECT_EQ(event.Find("pid")->number_value(), 1.0);
    EXPECT_EQ(event.Find("tid")->number_value(),
              static_cast<double>(spans[i].tid));
    // Microsecond timestamps, straight from the nanosecond record.
    EXPECT_DOUBLE_EQ(event.Find("ts")->number_value(),
                     static_cast<double>(spans[i].start_ns) * 1e-3);
    EXPECT_DOUBLE_EQ(event.Find("dur")->number_value(),
                     static_cast<double>(spans[i].dur_ns) * 1e-3);
    ASSERT_NE(event.Find("args"), nullptr);
  }
  // The nested training event categorizes under its stage.
  EXPECT_EQ(events->array()[1].Find("cat")->string_value(), "training");
  // The whole document must serialize (Perfetto loads the string form).
  EXPECT_FALSE(WriteJson(chrome).empty());
}

TEST(TraceJsonTest, ResponseEnvelopeEmitsTraceOnlyWhenPresent) {
  v2::MineResponse response;
  response.provenance.training_set_size = 10;
  const std::string untraced = WriteJson(
      MineResponseV2ToJson(response, v2::QueryKind::kThreshold));
  EXPECT_EQ(untraced.find("\"trace\""), std::string::npos);

  auto trace = std::make_shared<TraceContext>();
  { TraceSpan span(trace.get(), "request"); }
  response.trace = trace;
  const std::string traced = WriteJson(
      MineResponseV2ToJson(response, v2::QueryKind::kThreshold));
  EXPECT_NE(traced.find("\"trace\""), std::string::npos);
  EXPECT_NE(traced.find(trace->id()), std::string::npos);

  // Dropping the trace again restores the exact pre-tracing encoding.
  response.trace = nullptr;
  EXPECT_EQ(WriteJson(MineResponseV2ToJson(response,
                                           v2::QueryKind::kThreshold)),
            untraced);
}

TEST(TraceJsonTest, RequestTraceFlagRoundTrips) {
  // The flat v1 document carries the flag at the top level; it lands in
  // the execution recipe.
  auto v1 = ParseJson(
      R"({"dataset": "d", "statistic": {"region_cols": [0, 1]},
          "trace": true})");
  ASSERT_TRUE(v1.ok());
  auto from_v1 = MineRequestV2FromJson(*v1);
  ASSERT_TRUE(from_v1.ok()) << from_v1.status().ToString();
  EXPECT_TRUE(from_v1->execution.trace);

  v2::MineRequest request;
  request.dataset = "d";
  request.query.statistic = Statistic::Count({0, 1});
  request.execution.trace = true;
  const JsonValue encoded = MineRequestV2ToJson(request);
  EXPECT_TRUE(encoded.Find("execution")->Find("trace")->bool_value());
  auto decoded = MineRequestV2FromJson(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->execution.trace);
}

// ------------------------------------------------- pipeline integration

SyntheticDataset SmallDensityData() {
  SyntheticSpec spec;
  spec.dims = 2;
  spec.num_gt_regions = 1;
  spec.statistic = SyntheticStatistic::kDensity;
  spec.num_background = 3000;
  spec.seed = 42;
  return SyntheticGenerator::Generate(spec);
}

struct PipelineOutcome {
  RegionWorkload workload;
  FindResult found;
};

PipelineOutcome RunPipeline(const SyntheticDataset& ds, TraceContext* trace) {
  ScanEvaluator eval(&ds.data, Statistic::Count({0, 1}));
  WorkloadParams wparams;
  wparams.num_queries = 800;
  PipelineOutcome out;
  out.workload = GenerateWorkload(eval, ds.data.ComputeBounds({0, 1}),
                                  wparams, {}, trace);
  SurrogateTrainOptions sopts;
  sopts.gbrt.n_estimators = 30;
  auto surrogate = Surrogate::Train(out.workload, sopts, nullptr, {}, trace);
  EXPECT_TRUE(surrogate.ok());
  FinderConfig config;
  config.gso.num_glowworms = 60;
  config.gso.max_iterations = 25;
  SurfFinder finder(surrogate->AsStatisticFn(), out.workload.space, config);
  finder.SetBatchEstimate(surrogate->AsBatchStatisticFn());
  finder.SetTrace(trace);
  out.found = finder.Find(100.0, ThresholdDirection::kAbove);
  return out;
}

TEST(TraceIdentityTest, TracingDoesNotPerturbResults) {
  const SyntheticDataset ds = SmallDensityData();
  const PipelineOutcome off = RunPipeline(ds, nullptr);
  TraceContext ctx;
  PipelineOutcome on;
  {
    TraceSpan root(&ctx, "request");
    on = RunPipeline(ds, &ctx);
  }

  // Same workload, bit for bit.
  ASSERT_EQ(on.workload.size(), off.workload.size());
  EXPECT_EQ(on.workload.targets, off.workload.targets);

  // Same mined regions, bit for bit (deterministic seeds; spans observe,
  // never branch).
  ASSERT_EQ(on.found.regions.size(), off.found.regions.size());
  for (size_t i = 0; i < on.found.regions.size(); ++i) {
    EXPECT_EQ(on.found.regions[i].region.center(),
              off.found.regions[i].region.center());
    EXPECT_EQ(on.found.regions[i].region.half_lengths(),
              off.found.regions[i].region.half_lengths());
    EXPECT_EQ(on.found.regions[i].fitness, off.found.regions[i].fitness);
    EXPECT_EQ(on.found.regions[i].estimate, off.found.regions[i].estimate);
  }
  EXPECT_EQ(on.found.report.iterations, off.found.report.iterations);
  EXPECT_EQ(on.found.report.objective_evaluations,
            off.found.report.objective_evaluations);
}

TEST(TraceIdentityTest, StageSpansPartitionPipelineTime) {
  const SyntheticDataset ds = SmallDensityData();
  TraceContext ctx;
  {
    TraceSpan root(&ctx, "request");
    RunPipeline(ds, &ctx);
  }
  const auto spans = ctx.Snapshot();
  ASSERT_FALSE(spans.empty());
  EXPECT_STREQ(spans[0].name, "request");
  const double wall = static_cast<double>(spans[0].dur_ns) * 1e-9;

  // The four top-level stages partition the request: present, and
  // summing to (almost all of) its wall time. Labelling is excluded —
  // its spans nest inside workload_gen.
  const auto stages = ctx.StageSeconds();
  const double partition =
      stages[static_cast<int>(TraceStage::kWorkloadGen)] +
      stages[static_cast<int>(TraceStage::kTraining)] +
      stages[static_cast<int>(TraceStage::kSearch)] +
      stages[static_cast<int>(TraceStage::kExtraction)];
  EXPECT_GT(stages[static_cast<int>(TraceStage::kWorkloadGen)], 0.0);
  EXPECT_GT(stages[static_cast<int>(TraceStage::kTraining)], 0.0);
  EXPECT_GT(stages[static_cast<int>(TraceStage::kSearch)], 0.0);
  EXPECT_GT(stages[static_cast<int>(TraceStage::kExtraction)], 0.0);
  EXPECT_LE(partition, wall * 1.001);
  EXPECT_GE(partition, wall * 0.90);

  // Labelling children recorded under workload_gen, and the batched GSO
  // iteration spans under search.
  bool saw_labelling = false;
  bool saw_gso_batch = false;
  for (const auto& span : spans) {
    if (span.stage == TraceStage::kLabelling) saw_labelling = true;
    if (std::string(span.name) == "gso_iterations") saw_gso_batch = true;
  }
  EXPECT_TRUE(saw_labelling);
  EXPECT_TRUE(saw_gso_batch);
  EXPECT_EQ(ctx.dropped(), 0u);
}

}  // namespace
}  // namespace surf
