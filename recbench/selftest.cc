// Self-tests of the benchmark's arithmetic (harness.h). Each run executes
// them before measuring; `recbench --selftest` runs them alone.

#include <iostream>
#include <string>
#include <vector>

#include "harness.h"
#include "report.h"

namespace recbench {

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "selftest FAILED: " << what << "\n";
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

// The tail is the highest percentile with at least ten samples beyond it,
// and the count travels with it.
void TestPercentileRule() {
  Check(TailLevel(1000) == 99.0, "n=1000 supports p99 (10 beyond)");
  Check(TailLevel(999) == 95.0, "n=999 does not support p99 (9 beyond)");
  Check(TailLevel(10000) == 99.9, "n=10000 supports p99.9");
  Check(TailLevel(20) == 50.0, "n=20 supports only the median");
  Check(TailLevel(19) == 0.0, "n=19 supports no tail");
  Check(TailLevel(100000, 99.0) == 99.0, "cap limits the level");
  const Summary s = Summarize(Ramp(1000));
  Check(s.n == 1000 && s.median == 500.0 && s.tail == 990.0,
        "nearest-rank p50/p99 of 1..1000");
  Check(SamplesBeyond(s.tail_level, s.n) >= 10, "ten samples beyond");
  Check(FormatSummary(s, "ms").find("(n=1000)") != std::string::npos,
        "the sample count is printed");
}

// Latency is charged from the DUE time: one stalled response delays every
// request queued behind it on the connection, and those requests report
// the wait even though their own calls are fast.
void TestOpenLoopTiming() {
  std::vector<Scheduled> stream;
  for (uint64_t i = 0; i < 10; ++i) {
    stream.push_back(Scheduled{i, 0.001 * static_cast<double>(i), 0});
  }
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const std::vector<Outcome> out =
      RunOpenLoop(stream, 1, start, [](int, uint64_t id) {
        if (id == 2) std::this_thread::sleep_for(std::chrono::milliseconds(30));
        return true;
      });
  // Lower bounds only: a slow host can stretch these figures, never shrink
  // them below what the schedule forces.
  Check(out[2].latency_ms >= 30.0, "the stalled request itself is slow");
  // Request 3 was due 1 ms after request 2 and could only go out when the
  // stall ended: it waited ~29 ms although its own call was trivial.
  Check(out[3].latency_ms >= 25.0 &&
            out[3].span_us / 1e3 < out[3].latency_ms / 2,
        "a request behind the stall is charged the wait");
  Check(out[3].late_ms >= 25.0, "the generator reports it ran late");
  Check(out[9].latency_ms >= 20.0, "the backlog drains across later requests");
  Check(out[0].latency_ms < out[3].latency_ms,
        "requests before the stall are not charged for it");
}

// Self time subtracts the inner span of the SAME request id, whatever the
// order the replays recorded them in.
void TestSelfTime() {
  SpanLog outer(4), inner(4), innermost(4);
  const double o[] = {100, 200, 300, 400};
  const double i[] = {60, 150, 100, 390};
  const double k[] = {10, 20, 30, 5};
  for (uint64_t id : {3u, 1u, 0u, 2u}) outer.Record(id, o[id]);
  for (uint64_t id : {0u, 2u, 1u, 3u}) inner.Record(id, i[id]);
  for (uint64_t id : {2u, 0u, 3u}) innermost.Record(id, k[id]);
  const std::vector<double> self = SelfTimes(outer, {&inner});
  Check(self == std::vector<double>({40, 50, 200, 10}),
        "outer - inner per request id");
  const std::vector<double> self2 = SelfTimes(outer, {&inner, &innermost});
  Check(self2 == std::vector<double>({30, 170, 5}),
        "ids missing from an inner log are skipped, not misattributed");
}

// A refused request is a failure against the attempted count and a miss
// against the latency limit — it cannot improve the tail by vanishing.
void TestFailureAccounting() {
  std::vector<double> lat(980, 1.0);
  lat.insert(lat.end(), 20, kFailed);
  const Summary with = Summarize(lat, 99.0);
  Check(with.failed == 20 && with.tail_level == 99.0, "failures are counted");
  Check(!MeetsLimit(with, 10.0), "2% refused misses a p99 limit");
  const std::vector<double> served(980, 1.0);
  Check(MeetsLimit(Summarize(served, 99.0), 10.0),
        "dropping the refusals would have hidden them");
  Check(FailureRatio(20, 1000) == 0.02, "failure ratio over attempted");

  // Through the generator: a refused call reports an infinite latency.
  std::vector<Scheduled> stream{{0, 0.0, 0}, {1, 0.0005, 0}};
  const auto out = RunOpenLoop(stream, 1, Clock::now(),
                               [](int, uint64_t id) { return id == 0; });
  Check(out[0].ok && !out[1].ok && out[1].latency_ms == kFailed,
        "a refused request's latency is +infinity");
}

}  // namespace

int RunSelfTests() {
  failures = 0;
  TestPercentileRule();
  TestOpenLoopTiming();
  TestSelfTime();
  TestFailureAccounting();
  return failures;
}

}  // namespace recbench
