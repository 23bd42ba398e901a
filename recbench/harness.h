// The benchmark's own arithmetic: percentiles, the open-loop load
// generator, per-request span logs with self-time subtraction, and failure
// accounting. selftest.cc checks every rule here; each run executes those
// checks before measuring anything.
#pragma once

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

namespace recbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// A failed or refused operation enters every latency distribution as
/// +infinity, so it misses any latency limit and pushes the tail up.
inline constexpr double kFailed = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile of sorted values: the value at 1-based rank
/// ceil(q/100 * n).
inline size_t RankOf(double q, size_t n) {
  const double r = std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

/// Samples strictly beyond the q-th percentile by rank.
inline size_t SamplesBeyond(double q, size_t n) {
  return n == 0 ? 0 : n - RankOf(q, n);
}

inline double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::nan("");
  return sorted[RankOf(q, sorted.size()) - 1];
}

/// The highest percentile of {99.9, 99, 95, 90, 75, 50}, at most `cap`,
/// with at least ten samples beyond it; 0 when not even the median has.
inline double TailLevel(size_t n, double cap = 99.9) {
  for (double q : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (q <= cap && SamplesBeyond(q, n) >= 10) return q;
  }
  return 0.0;
}

/// A timing distribution as the benchmark reports it: the median and the
/// highest supported percentile, with the sample count printed beside them.
struct Summary {
  size_t n = 0;
  double median = std::nan("");
  double tail_level = 0.0;  ///< 0: too few samples for any tail
  double tail = std::nan("");
  size_t failed = 0;  ///< +infinity samples (failures) in the input
};

inline Summary Summarize(std::vector<double> values, double cap = 99.9) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.failed = static_cast<size_t>(
      std::count(values.begin(), values.end(), kFailed));
  s.median = Percentile(values, 50.0);
  s.tail_level = TailLevel(values.size(), cap);
  if (s.tail_level > 0.0) s.tail = Percentile(values, s.tail_level);
  return s;
}

inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 50.0);
}

/// Failure accounting against a latency limit: a distribution meets the
/// limit when its tail is within it. Failures stay in the distribution as
/// +infinity, so each one counts as a request that missed the limit rather
/// than vanishing from the sample.
inline bool MeetsLimit(const Summary& s, double limit) {
  return s.n > 0 && s.tail_level > 0.0 && s.tail <= limit;
}

inline double FailureRatio(size_t failed, size_t attempted) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

// --- open-loop load generation -------------------------------------------

/// One scheduled request of an open-loop stream.
struct Scheduled {
  uint64_t id = 0;   ///< index into the stream; spans are keyed by it
  double at_s = 0;   ///< due time, seconds after the stream's start
  int conn = 0;      ///< connection (load thread) that sends it
};

/// What happened to one request of an open-loop stream.
struct Outcome {
  bool done = false;
  bool ok = false;
  double latency_ms = kFailed;  ///< completion - DUE time (not send time)
  double late_ms = 0.0;         ///< send - due: how late the generator ran
  double span_us = 0.0;         ///< completion - send: the call itself
};

/// Runs `stream` open loop: each connection's thread sends its requests in
/// order at their due times, one at a time, and a request whose
/// predecessor is still outstanding goes out as soon as the connection
/// frees up. Latency is timed from the due time, so a stall is charged to
/// every request queued behind it. `call(conn, id)` performs one request
/// and returns whether it succeeded. Returns outcomes indexed by id.
template <typename Call>
std::vector<Outcome> RunOpenLoop(const std::vector<Scheduled>& stream,
                                 int connections, Clock::time_point start,
                                 Call&& call) {
  std::vector<Outcome> out(stream.size());
  std::vector<std::vector<const Scheduled*>> per_conn(
      static_cast<size_t>(connections));
  for (const Scheduled& s : stream) {
    per_conn[static_cast<size_t>(s.conn)].push_back(&s);
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      // Default timer slack (50 us) would make every sleep overshoot.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      for (const Scheduled* s : per_conn[static_cast<size_t>(c)]) {
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(s->at_s));
        std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        const bool ok = call(c, s->id);
        const auto done = Clock::now();
        Outcome& o = out[s->id];
        o.done = true;
        o.ok = ok;
        o.late_ms = std::max(0.0, MsBetween(due, sent));
        o.span_us = MsBetween(sent, done) * 1e3;
        o.latency_ms = ok ? MsBetween(due, done) : kFailed;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

// --- spans ---------------------------------------------------------------

/// Durations of one layer's span, keyed by request id (NaN = the request
/// never crossed this layer in the replay that recorded it).
struct SpanLog {
  std::vector<double> us;
  explicit SpanLog(size_t n = 0) : us(n, std::nan("")) {}
  void Record(uint64_t id, double value_us) { us[id] = value_us; }
};

/// Per-request self time of a layer: its span minus the spans nested
/// inside it FOR THE SAME REQUEST ID, over the ids present in all logs.
inline std::vector<double> SelfTimes(const SpanLog& outer,
                                     const std::vector<const SpanLog*>& inner) {
  std::vector<double> out;
  for (size_t id = 0; id < outer.us.size(); ++id) {
    double v = outer.us[id];
    if (std::isnan(v)) continue;
    for (const SpanLog* log : inner) {
      v -= id < log->us.size() ? log->us[id] : std::nan("");
    }
    if (!std::isnan(v)) out.push_back(v);
  }
  return out;
}

/// Median over the recorded ids of one span log.
inline double SpanMedian(const SpanLog& log) {
  std::vector<double> v;
  for (double x : log.us) {
    if (!std::isnan(x)) v.push_back(x);
  }
  return v.empty() ? 0.0 : Median(std::move(v));
}

/// Runs the harness self-tests; returns the number of failed checks and
/// prints each failure to stderr.
int RunSelfTests();

}  // namespace recbench
