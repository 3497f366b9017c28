// Tests of the benchmark's own helpers: tail-percentile selection,
// failure accounting, fast-phase chunk statistics, and seed →
// request-sequence determinism.
// Exits nonzero on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_lib.h"

using namespace perfbench;

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TestTailSelection() {
  // 1000 samples: p99 is rank 990 with exactly 10 beyond it.
  Tail t = SelectTail(Ramp(1000));
  Expect(t.percentile == 99.0 && t.value == 990.0 && t.beyond == 10 &&
             t.samples == 1000,
         "1000 samples report p99 with 10 beyond");
  // 999 samples: p99 has only 9 beyond, so p95 is the highest supported.
  t = SelectTail(Ramp(999));
  Expect(t.percentile == 95.0 && t.beyond >= kTailMinBeyond,
         "999 samples fall back to p95");
  // 40 samples: p90 has 4 beyond, p75 has 10.
  t = SelectTail(Ramp(40));
  Expect(t.percentile == 75.0 && t.value == 30.0 && t.beyond == 10,
         "40 samples report p75");
  // Too few for any tail: the median, with its true beyond count.
  t = SelectTail(Ramp(12));
  Expect(t.percentile == 50.0 && t.beyond == 6 && t.samples == 12,
         "12 samples fall back to the median");
  // Order of the input does not matter.
  std::vector<double> shuffled = Ramp(1000);
  std::swap(shuffled[0], shuffled[999]);
  Expect(SelectTail(shuffled).value == 990.0, "selection sorts its input");
  Expect(SelectTail({}).samples == 0, "empty input reports no samples");
}

void TestFailureAccounting() {
  Expect(ClassifyStatus(200) == Outcome::kOk, "200 is ok");
  Expect(ClassifyStatus(429) == Outcome::kRefused, "429 is refused");
  Expect(ClassifyStatus(503) == Outcome::kRefused, "503 is refused");
  Expect(ClassifyStatus(408) == Outcome::kTimedOut, "408 is timed out");
  Expect(ClassifyStatus(500) == Outcome::kFailed, "500 is failed");
  Expect(ClassifyStatus(0) == Outcome::kFailed, "a broken exchange failed");

  RequestLog log;
  for (int i = 0; i < 6; ++i) log.Record(Outcome::kOk, 1.0);
  log.Record(Outcome::kRefused, 0.1);
  log.Record(Outcome::kTimedOut, 0.2);
  log.Record(Outcome::kFailed, 0.3);
  Expect(log.attempted() == 9 && log.failed() == 3, "failures are counted");
  Expect(log.refused() == 1 && log.timed_out() == 1,
         "refusals and timeouts are told apart");
  size_t infinite = 0;
  for (double s : log.samples()) infinite += std::isinf(s) ? 1 : 0;
  Expect(log.samples().size() == 9 && infinite == 3,
         "failed requests miss every latency");
  // A fast refusal must not pull the median down: 6 of 9 at 1 ms.
  Expect(Median(log.samples()) == 1.0, "refusals do not lower the median");
  RequestLog worse;
  for (int i = 0; i < 5; ++i) worse.Record(Outcome::kRefused, 0.1);
  log.Merge(worse);
  Expect(log.attempted() == 14 && log.failed() == 8,
         "merge adds attempts and failures");
  Expect(std::isinf(Median(log.samples())),
         "a majority of failures puts the median out of reach");
}

void TestFastPhase() {
  // A slow phase (2 ms per request, one every 2 ms) then a fast one
  // (1 ms, one every 1 ms): 2000 interactive requests in 20 chunks of
  // 100, the fastest half pooled.
  const PoolRecipe half{100, 0.5};
  std::vector<Completion> done;
  uint64_t t = 0;
  for (int i = 0; i < 2000; ++i) {
    const bool slow = i < 1000;
    t += slow ? 2'000'000 : 1'000'000;
    done.push_back({t, slow ? 2.0 : 1.0, true});
  }
  // A writer request now and then counts toward throughput only; a
  // failed one toward neither.
  done.push_back({1'000'000, 50.0, false});
  done.push_back({2'000'000, std::numeric_limits<double>::infinity(), false});
  PassStats s = SummarizePass(done, 0, half);
  Expect(s.chunks == 20 && s.pooled_chunks == 10,
         "20 chunks of 100, the faster 10 pooled");
  Expect(s.p50_ms == 1.0, "the fast phase's median is reported");
  Expect(s.tail.percentile == 99.0 && s.tail.samples == 1000 &&
             s.tail.beyond == 10 && s.tail.value == 1.0,
         "the tail is taken over the 1000 pooled requests");
  Expect(std::abs(s.throughput_ops_s - 1000.0) < 1e-6,
         "the fast phase's throughput");
  Expect(s.pass_p50_ms == 1.0 || s.pass_p50_ms == 2.0,
         "the whole-pass median rides along");
  Expect(s.pass_tail.value == 2.0 && s.pass_tail.samples == 2000,
         "the whole-pass tail rides along");
  Expect(s.pass_throughput_ops_s == 2001.0 / 3.0,
         "whole-pass throughput counts every successful request");

  // A burst of stalls inside a fast chunk leaves its median alone, so the
  // chunk stays pooled and the stalls show in the tail.
  std::vector<Completion> stalled = done;
  for (int i = 1500; i < 1530; ++i) stalled[i].latency_ms = 100.0;
  s = SummarizePass(stalled, 0, half);
  Expect(s.pooled_chunks == 10 && s.p50_ms == 1.0 && s.tail.value == 100.0,
         "30 stalls in one fast chunk leave it pooled and move the tail");

  // A writer request that holds the pass up for 50 ms inside a fast
  // chunk: the chunk is pooled anyway, and the stall costs throughput.
  std::vector<Completion> writer = done;
  for (size_t i = 1500; i < 2000; ++i) writer[i].end_ns += 50'000'000;
  writer.push_back({2'550'000'000, 50.0, false});
  s = SummarizePass(writer, 0, half);
  Expect(s.pooled_chunks == 10 && s.p50_ms == 1.0 &&
             s.throughput_ops_s < 1000.0 * 0.96,
         "a writer stall in a pooled chunk lowers throughput");

  // A failed interactive request is an infinite sample of its chunk.
  done[1500].latency_ms = std::numeric_limits<double>::infinity();
  s = SummarizePass(done, 0, half);
  Expect(s.pass_tail.samples == 2000 && std::isfinite(s.p50_ms),
         "a failure counts as a sample, not as a fast chunk");

  // The fastest tenth of 2000 one-request chunks (cold_train's and
  // feedback_mix's recipe): the fast phase alone.
  s = SummarizePass(done, 0, {1, 0.1});
  Expect(s.chunks == 2000 && s.pooled_chunks == 200 && s.p50_ms == 1.0 &&
             s.tail.samples == 200 && s.tail.percentile == 95.0,
         "200 of 2000 one-request chunks pooled, p95 over 200");

  // A pass of 60 requests with every chunk pooled: the whole pass.
  std::vector<Completion> shortpass;
  for (int i = 0; i < 60; ++i) {
    shortpass.push_back({static_cast<uint64_t>(i + 1) * 1'000'000,
                         static_cast<double>(60 - i), true});
  }
  s = SummarizePass(shortpass, 0, {1, 1.0});
  Expect(s.chunks == 60 && s.pooled_chunks == 60, "60 chunks, all pooled");
  Expect(s.p50_ms == 30.0 && s.tail.percentile == 75.0 &&
             s.tail.beyond == 15 && s.tail.value == 45.0,
         "the median and p75 of all 60");
  Expect(std::abs(s.throughput_ops_s - 1000.0) < 1e-6,
         "throughput over the whole pass");
  Expect(SummarizePass({}, 0, {1, 1.0}).chunks == 0,
         "an empty pass has no chunks");
}

void TestSequenceDeterminism() {
  for (Workload w : {Workload::kWarmLight, Workload::kColdTrain,
                     Workload::kFeedbackMix}) {
    const size_t n = TimedRequestCount(w, 2.0);
    const Sequence a = MakeSequence(w, 17, n);
    const Sequence b = MakeSequence(w, 17, n);
    const Sequence c = MakeSequence(w, 18, n);
    Expect(a.size() == n, "a sequence has the requested length");
    bool same = a.lanes.size() == b.lanes.size();
    bool differs = false;
    for (size_t l = 0; same && l < a.lanes.size(); ++l) {
      for (size_t i = 0; i < a.lanes[l].size(); ++i) {
        same = same && a.body(a.lanes[l][i]) == b.body(b.lanes[l][i]) &&
               a.lanes[l][i].batch == b.lanes[l][i].batch &&
               a.lanes[l][i].distinct == b.lanes[l][i].distinct;
        differs = differs || a.body(a.lanes[l][i]) != c.body(c.lanes[l][i]);
      }
    }
    Expect(same, "one seed gives one sequence");
    Expect(differs, "another seed gives another sequence");
    // Warm-up requests never repeat a timed body.
    const Sequence warm = MakeWarmupSequence(w, 17);
    bool disjoint = true;
    for (const std::string& wb : warm.bodies) {
      for (const std::string& tb : a.bodies) disjoint &= wb != tb;
    }
    Expect(disjoint, "warm-up bodies are disjoint from timed bodies");
  }
  // warm_light: 256 distinct bodies; two connections never send the same
  // body at the same step (so coalescing has nothing to merge).
  const Sequence warm = MakeSequence(Workload::kWarmLight, 3, 4096);
  Expect(warm.bodies.size() == kWarmDistinctBodies, "256 distinct bodies");
  bool distinct_steps = true;
  for (size_t i = 0; i < warm.lanes[1].size(); ++i) {
    distinct_steps &=
        warm.body(warm.lanes[0][i]) != warm.body(warm.lanes[1][i]);
  }
  Expect(distinct_steps, "concurrent warm_light requests differ");
  // feedback_mix: one reader lane, one batch writer lane.
  const Sequence mix = MakeSequence(Workload::kFeedbackMix, 3, 10);
  Expect(mix.lanes.size() == 2 && !mix.lanes[0][0].batch &&
             mix.lanes[1][0].batch &&
             mix.body(mix.lanes[1][0]).find("\"record_evaluations\":true") !=
                 std::string::npos,
         "feedback_mix has one reader and one recording writer");
  Expect(TimedRequestCount(Workload::kColdTrain, 10.0) ==
             TimedRequestCount(Workload::kColdTrain, 10.0),
         "request count depends only on the run length");
}

void TestBlankTimings() {
  const std::string a =
      "{\"total_seconds\":0.125,\"x\":1,\"report\":{\"seconds\":3e-05},"
      "\"provenance\":{\"train_seconds\":1.5}}";
  const std::string b =
      "{\"total_seconds\":9.5,\"x\":1,\"report\":{\"seconds\":0.25},"
      "\"provenance\":{\"train_seconds\":2}}";
  Expect(BlankTimings(a) == BlankTimings(b), "wall-time fields are blanked");
  Expect(BlankTimings("{\"x\":1}") == "{\"x\":1}", "other fields are kept");
}

void TestSpans() {
  SpanRecorder spans;
  const int root = spans.Begin("request");
  spans.Add("mine", root, 10'000'000, 30'000'000);
  spans.Add("mine", root, 40'000'000, 45'000'000);
  spans.End(root);
  Expect(spans.DurationsMs("mine") == std::vector<double>({20.0, 5.0}),
         "durations of every span with one name, in order");
  Expect(spans.spans()[1].parent == root, "children keep their parent");
  const std::string chrome = spans.ToChromeJson();
  Expect(chrome.find("\"name\":\"mine\"") != std::string::npos &&
             chrome.rfind("{\"traceEvents\":[", 0) == 0,
         "spans export as Chrome trace events");
}

}  // namespace

int main() {
  TestTailSelection();
  TestFailureAccounting();
  TestFastPhase();
  TestSequenceDeterminism();
  TestBlankTimings();
  TestSpans();
  if (failures == 0) std::printf("perfbench self-test: all passed\n");
  return failures == 0 ? 0 : 1;
}
