// analyst_tcp: interactive analysts on a restarted durable server.
//
// The primary recovers a CENSUS 300k SPS release on raw personal groups
// (~44k groups) from a snapshot directory written during input generation
// (ReleaseStore::RecoverFromDir, mmap). Four TCP connections send
// single-query requests open loop, Poisson arrivals, queries drawn from
// the paper's §6.1 pool (20k queries, d in {1,2,3}, selectivity >= 0.1%)
// with Zipf(1) popularity. Two declared tenants share a quota far above
// the offered rate, so admission is on the path and refuses nothing. The
// micro-batch window is 0 and nothing is published: this workload crosses
// transport, wire, service, admission, cache and the postings kernel, and
// bypasses the micro-batcher and the publish path.

#include <memory>
#include <optional>
#include <thread>

#include "client/line_protocol_client.h"
#include "client/tcp_transport.h"
#include "inputs.h"
#include "layers.h"
#include "serve/admission.h"
#include "serve/query_engine.h"
#include "serve/release_store.h"
#include "serve/server.h"
#include "serve/service.h"
#include "table/flat_group_index.h"
#include "workloads.h"

namespace recbench {

namespace {

using rp::Result;
using rp::Status;
using rp::client::QueryRequest;

constexpr char kRelease[] = "census";
constexpr int kConnections = 4;
constexpr size_t kCensusRows = 300000;
constexpr size_t kPoolSize = 20000;
constexpr double kZipfS = 1.0;
/// Set-up is ~20 ms here, so it is repeated often enough for a stable median.
constexpr int kSetupRepeats = 15;
/// Nominal offered rate: about a quarter of the ~45k req/s that 4
/// connections sustain warm on a 4-vCPU host, and below the ~16k they
/// sustain on a cold cache. The headroom keeps the open loop from
/// collapsing into a backlog when the host steals CPU (at 16% steal the
/// closed-loop capacity fell to ~13k req/s).
constexpr double kNominalRps = 10000;
/// The fixed-rate window is cut into this many slices; read_p50_ms is the
/// median of the slices' medians, so a burst of host CPU steal confined to
/// a few slices does not move it.
constexpr int kSlices = 8;
/// Requests per connection pre-drawn for the closed-loop capacity phase
/// (cycled if the phase outlasts them).
constexpr size_t kClosedLoopDraws = 100000;
/// Rate ladder for query_max_rate_rps, as multiples of the nominal rate.
/// On a shared 4-vCPU host the p99 at any rate swings between 0.3 and
/// ~25 ms from run to run with CPU steal, so the ladder is printed but the
/// gated throughput is the closed-loop capacity (RunClosedLoop).
constexpr double kLadder[] = {1.0, 2.0, 3.0, 4.0};
constexpr double kWarmupS = 1.0;
const char* const kTenants[] = {"analyst-a", "analyst-b"};

/// A query-ready stack: recovered durable store, engine, TCP server and
/// one connected client per load thread.
struct Stack {
  std::shared_ptr<rp::serve::ReleaseStore> store;
  std::shared_ptr<rp::serve::QueryEngine> engine;
  std::unique_ptr<rp::serve::Server> server;
  std::vector<std::unique_ptr<rp::client::LineProtocolClient>> clients;
  double recover_ms = 0.0;
};

Result<Stack> BuildStack(const std::string& snapshot_dir) {
  Stack s;
  rp::serve::ReleaseStore::Options store_options;
  store_options.snapshot_dir = snapshot_dir;
  s.store = std::make_shared<rp::serve::ReleaseStore>(store_options);
  const auto t0 = Clock::now();
  RECPRIV_RETURN_NOT_OK(s.store->RecoverFromDir());
  s.recover_ms = MsBetween(t0, Clock::now());
  rp::serve::QueryEngineOptions engine_options;
  engine_options.num_threads = 4;
  engine_options.micro_batch_window_us = 0;
  engine_options.tenant_quota_qps = 1e9;
  engine_options.tenant_quota_burst = 1e9;
  s.engine = std::make_shared<rp::serve::QueryEngine>(s.store, engine_options);
  RECPRIV_ASSIGN_OR_RETURN(s.server, rp::serve::Server::Start(s.engine));
  for (int c = 0; c < kConnections; ++c) {
    RECPRIV_ASSIGN_OR_RETURN(
        auto client, rp::client::ConnectTcp("127.0.0.1", s.server->port()));
    s.clients.push_back(std::move(client));
  }
  return s;
}

/// One open-loop phase: its schedule and the pool query of each request.
struct Phase {
  double rate = 0.0;
  double duration_s = 0.0;
  std::vector<Scheduled> stream;
  std::vector<uint32_t> spec;  ///< pool index per request id
};

Phase MakePhase(double rate, double duration_s, const ZipfPicker& zipf,
                rp::Rng& rng) {
  Phase p;
  p.rate = rate;
  p.duration_s = duration_s;
  p.stream = PoissonStream(rate, duration_s, kConnections, rng);
  for (size_t i = 0; i < p.stream.size(); ++i) p.spec.push_back(zipf.Pick(rng));
  return p;
}

QueryRequest MakeRequest(const Dataset& data, uint32_t spec, int conn) {
  QueryRequest r;
  r.release = kRelease;
  r.queries.push_back(data.specs[spec]);
  r.tenant = kTenants[conn % 2];
  return r;
}

/// Results of driving one phase through some entry point.
struct PhaseRun {
  std::vector<Outcome> outcomes;
  std::vector<std::optional<ServedAnswer>> answers;  ///< per request id
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

/// Drives `phase` over the stack's TCP clients.
PhaseRun RunTcp(Stack& stack, const Dataset& data, const Phase& phase) {
  PhaseRun run;
  run.answers.resize(phase.stream.size());
  std::vector<uint64_t> hits(kConnections, 0), misses(kConnections, 0);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  run.outcomes = RunOpenLoop(
      phase.stream, kConnections, start, [&](int conn, uint64_t id) {
        auto answer = stack.clients[static_cast<size_t>(conn)]->Query(
            MakeRequest(data, phase.spec[id], conn));
        if (!answer.ok() || answer->answers.size() != 1) return false;
        hits[static_cast<size_t>(conn)] += answer->cache_hits;
        misses[static_cast<size_t>(conn)] += answer->cache_misses;
        run.answers[id] = ServedAnswer{answer->epoch, phase.spec[id],
                                       answer->answers[0]};
        return true;
      });
  for (int c = 0; c < kConnections; ++c) {
    run.cache_hits += hits[static_cast<size_t>(c)];
    run.cache_misses += misses[static_cast<size_t>(c)];
  }
  return run;
}

Summary LatencySummary(const PhaseRun& run, double cap = 99.0) {
  std::vector<double> v;
  for (const Outcome& o : run.outcomes) v.push_back(o.latency_ms);
  return Summarize(std::move(v), cap);
}

size_t Failed(const PhaseRun& run) {
  size_t n = 0;
  for (const Outcome& o : run.outcomes) n += o.ok ? 0 : 1;
  return n;
}

/// Completed requests per second, from the phase's first due time to its
/// last completion.
double CompletedRate(const Phase& phase, const PhaseRun& run) {
  size_t ok = 0;
  double last_ms = 0.0;
  for (size_t i = 0; i < run.outcomes.size(); ++i) {
    const Outcome& o = run.outcomes[i];
    if (!o.ok) continue;
    ++ok;
    last_ms = std::max(last_ms, phase.stream[i].at_s * 1e3 + o.latency_ms);
  }
  return last_ms > 0 ? ok / (last_ms / 1e3) : 0.0;
}

/// A backlog grows when the generator is running later at the end of the
/// phase than its latency limit allows.
bool BacklogGrew(const PhaseRun& run, double limit_ms) {
  const size_t n = run.outcomes.size();
  std::vector<double> tail_late;
  for (size_t i = n - n / 4; i < n; ++i) {
    tail_late.push_back(run.outcomes[i].late_ms);
  }
  return !tail_late.empty() && Median(tail_late) > limit_ms;
}

void Collect(const PhaseRun& run, std::vector<ServedAnswer>* served) {
  for (const auto& a : run.answers) {
    if (a.has_value()) served->push_back(*a);
  }
}

/// Checks every served answer against an independently built snapshot of
/// the generated release (not the recovered one the server mapped).
Status CheckAll(const Dataset& data, const std::vector<ServedAnswer>& served,
                Report& report) {
  rp::workload::Oracle oracle;
  RECPRIV_ASSIGN_OR_RETURN(
      auto reference, rp::analysis::SnapshotRelease(data.release, 1));
  oracle.Register(kRelease, reference);
  const CheckResult check = CheckAnswers(oracle, kRelease, data.specs, served);
  report.Note("oracle checked " + std::to_string(check.checked) +
              " answers (" + std::to_string(check.recomputed) +
              " distinct recomputed), mismatches " +
              std::to_string(check.mismatches));
  if (check.mismatches > 0) {
    report.Fail("oracle mismatch: " + check.first_detail);
  }
  return Status::OK();
}

void ReportShares(const Dataset& data, const std::vector<Phase>& phases,
                  const PhaseRun& fixed, Report& report) {
  size_t dims[4] = {0, 0, 0, 0};
  size_t total = 0;
  for (const Phase& p : phases) {
    for (uint32_t s : p.spec) {
      ++dims[std::min<size_t>(data.specs[s].where.size(), 3)];
      ++total;
    }
  }
  for (int d = 1; d <= 3; ++d) {
    report.Share("dimensionality_" + std::to_string(d) + "_share",
                 double(dims[d]) / double(std::max<size_t>(total, 1)));
  }
  const uint64_t lookups = fixed.cache_hits + fixed.cache_misses;
  report.Share("cache_hit_share",
               lookups ? double(fixed.cache_hits) / double(lookups) : 0.0);
}

/// Closed-loop capacity: every connection sends its next request as soon
/// as the previous answer arrives, for `seconds`. The rate is the median
/// over `kSlices` time slices of the requests completed per second, so a
/// burst of host steal in a few slices does not move it. Each connection
/// keeps the first answer per pool
/// query in a preallocated table and compares every later answer to it bit
/// for bit, so memory does not grow with throughput.
struct ClosedLoopResult {
  double rate = 0.0;
  size_t attempted = 0;
  size_t failed = 0;
  size_t repeat_mismatches = 0;
  std::vector<ServedAnswer> first_answers;
};

ClosedLoopResult RunClosedLoop(Stack& stack, const Dataset& data,
                               const std::vector<std::vector<uint32_t>>& draws,
                               double seconds) {
  struct PerConn {
    size_t done = 0, failed = 0, mismatches = 0;
    size_t per_slice[kSlices] = {};
    std::vector<std::optional<rp::client::AnswerRow>> first;
  };
  std::vector<PerConn> per(kConnections);
  for (PerConn& p : per) p.first.assign(data.specs.size(), std::nullopt);
  const auto start = Clock::now();
  const auto until = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      PerConn& me = per[size_t(c)];
      const auto& mine = draws[size_t(c)];
      for (size_t i = 0; Clock::now() < until; ++i) {
        const uint32_t spec = mine[i % mine.size()];
        auto answer =
            stack.clients[size_t(c)]->Query(MakeRequest(data, spec, c));
        if (!answer.ok() || answer->answers.size() != 1) {
          ++me.failed;
          continue;
        }
        ++me.done;
        const double at = MsBetween(start, Clock::now()) / 1e3 / seconds;
        if (at < 1.0) ++me.per_slice[int(at * kSlices)];
        auto& slot = me.first[spec];
        if (!slot.has_value()) {
          slot = answer->answers[0];
        } else if (!SameAnswer(*slot, answer->answers[0])) {
          ++me.mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ClosedLoopResult r;
  std::vector<double> slice_rates;
  for (int k = 0; k < kSlices; ++k) {
    size_t n = 0;
    for (const PerConn& p : per) n += p.per_slice[k];
    slice_rates.push_back(double(n) / (seconds / kSlices));
  }
  r.rate = Median(slice_rates);
  for (const PerConn& p : per) {
    r.attempted += p.done + p.failed;
    r.failed += p.failed;
    r.repeat_mismatches += p.mismatches;
    for (uint32_t s = 0; s < p.first.size(); ++s) {
      if (p.first[s].has_value()) {
        r.first_answers.push_back(ServedAnswer{1, s, *p.first[s]});
      }
    }
  }
  return r;
}

/// Median over `kSlices` equal time slices of the phase of each slice's
/// median latency.
double SliceMedian(const Phase& phase, const PhaseRun& run) {
  std::vector<std::vector<double>> slices(kSlices);
  for (size_t i = 0; i < run.outcomes.size(); ++i) {
    const int k = std::min(
        kSlices - 1, int(phase.stream[i].at_s / phase.duration_s * kSlices));
    slices[size_t(k)].push_back(run.outcomes[i].latency_ms);
  }
  std::vector<double> medians;
  for (auto& s : slices) {
    if (!s.empty()) medians.push_back(Median(std::move(s)));
  }
  return Median(std::move(medians));
}

// --- untraced run --------------------------------------------------------

Status RunUntraced(const RunConfig& config, const Dataset& data,
                   const std::string& snapshot_dir, rp::Rng& rng,
                   Report& report) {
  ZipfPicker zipf(data.specs.size(), kZipfS, rng);
  const double fixed_s = 0.35 * config.seconds;
  const double step_s = 0.3 * config.seconds / std::size(kLadder);
  const double closed_s = 0.35 * config.seconds;
  std::vector<Phase> phases;
  phases.push_back(MakePhase(kNominalRps, kWarmupS, zipf, rng));
  phases.push_back(MakePhase(kNominalRps, fixed_s, zipf, rng));
  for (double m : kLadder) {
    phases.push_back(MakePhase(m * kNominalRps, step_s, zipf, rng));
  }
  std::vector<std::vector<uint32_t>> draws(kConnections);
  for (auto& d : draws) {
    for (size_t i = 0; i < kClosedLoopDraws; ++i) d.push_back(zipf.Pick(rng));
  }
  StreamHasher hasher;
  for (const Phase& p : phases) {
    for (size_t i = 0; i < p.stream.size(); ++i) {
      hasher.Add(p.stream[i].at_s);
      hasher.Add(uint64_t(p.stream[i].conn));
      hasher.Add(data.specs[p.spec[i]]);
    }
  }
  for (const auto& d : draws) {
    for (uint32_t spec : d) hasher.Add(data.specs[spec]);
  }
  report.Digest("request_stream", hasher.Hex());

  Stack stack;
  double setup_s = 0.0;
  RECPRIV_RETURN_NOT_OK(MedianSetup(
      kSetupRepeats, [&] { return BuildStack(snapshot_dir); }, &stack,
      &setup_s));

  std::vector<PhaseRun> runs;
  for (const Phase& p : phases) runs.push_back(RunTcp(stack, data, p));
  const ClosedLoopResult closed = RunClosedLoop(stack, data, draws, closed_s);
  const double rss = PeakRssMb();

  // query_p50/p99 at the nominal rate.
  const PhaseRun& fixed = runs[1];
  const Summary lat = LatencySummary(fixed);
  // Ladder: the highest step whose p99 meets the limit with no growing
  // backlog (a lower step spoiled by a burst of host steal does not cap it).
  double max_rate = 0.0;
  for (size_t k = 0; k < std::size(kLadder); ++k) {
    const Phase& p = phases[2 + k];
    const PhaseRun& r = runs[2 + k];
    const Summary s = LatencySummary(r);
    const bool grew = BacklogGrew(r, config.latency_limit_ms);
    const bool pass = MeetsLimit(s, config.latency_limit_ms) && !grew;
    report.Note("ladder " + Num(p.rate) + " req/s: " +
                FormatSummary(s, "ms") + (grew ? ", backlog grew" : "") +
                (pass ? " -> meets " : " -> misses ") +
                Num(config.latency_limit_ms) + " ms");
    if (pass) max_rate = std::max(max_rate, CompletedRate(p, r));
  }

  size_t attempted = closed.attempted, failed = closed.failed;
  std::vector<ServedAnswer> served = closed.first_answers;
  for (const PhaseRun& r : runs) {
    attempted += r.outcomes.size();
    failed += Failed(r);
    Collect(r, &served);
  }
  report.Count(attempted, failed);
  if (closed.repeat_mismatches > 0) {
    report.Fail("a repeated query was answered differently in the closed loop");
  }
  const double slice_p50 = SliceMedian(phases[1], fixed);

  report.Timing("query_p50_ms", "query_p99_ms", lat, "ms");
  report.Metric("query_max_rate_rps", max_rate, "req/s",
                "p99 limit " + Num(config.latency_limit_ms) + " ms");
  report.Metric("query_p50_slice_median_ms", slice_p50, "ms",
                "median of " + std::to_string(kSlices) + " slice medians");
  report.Metric("query_closed_loop_rps", closed.rate, "req/s",
                std::to_string(kConnections) + " connections, " +
                    Num(closed_s) + " s");
  report.Metric("failure_ratio", FailureRatio(failed, attempted), "ratio",
                std::to_string(failed) + "/" + std::to_string(attempted));
  report.Metric("setup_s", setup_s, "s",
                "median of " + std::to_string(kSetupRepeats));
  report.Metric("peak_rss_mb", rss, "MB");
  ReportShares(data, phases, fixed, report);
  if (const auto tenants = stack.engine->tenant_stats()) {
    for (const auto& [name, c] : tenants->tenants) {
      report.Note("tenant " + name + ": admitted " +
                  std::to_string(c.admitted) + ", rejected " +
                  std::to_string(c.rejected));
    }
  }

  report.EndToEnd("setup_s", setup_s, "s");
  report.EndToEnd("read_p50_ms", slice_p50, "ms");
  report.EndToEnd("read_qps", closed.rate, "queries/s");
  report.EndToEnd("peak_rss_mb", rss, "MB");

  stack = Stack();
  return CheckAll(data, served, report);
}

// --- traced run ----------------------------------------------------------

Status RunTraced(const RunConfig& config, const Dataset& data,
                 const std::string& snapshot_dir, rp::Rng& rng,
                 Report& report) {
  ZipfPicker zipf(data.specs.size(), kZipfS, rng);
  const double window_s = std::max(1.5, 0.2 * config.seconds);
  // The recorded stream: warm-up then the measured window, as one phase so
  // request ids are stable across every replay.
  Phase phase = MakePhase(kNominalRps, kWarmupS + window_s, zipf, rng);
  const size_t n = phase.stream.size();
  auto measured = [&](uint64_t id) {
    return phase.stream[id].at_s >= kWarmupS;
  };
  std::vector<ServedAnswer> served;

  // 1. Untraced baseline over TCP, for the tracing overhead.
  double untraced_p50 = 0.0;
  {
    RECPRIV_ASSIGN_OR_RETURN(Stack stack, BuildStack(snapshot_dir));
    const PhaseRun run = RunTcp(stack, data, phase);
    std::vector<double> v;
    for (size_t id = 0; id < n; ++id) {
      if (measured(id)) v.push_back(run.outcomes[id].latency_ms);
    }
    untraced_p50 = Median(v);
    Collect(run, &served);
  }

  // 2. client.query: LineProtocolClient::Query over loopback TCP.
  ReadSpans spans(n);
  uint64_t hits = 0, misses = 0;
  rp::client::TransportStats transport;
  std::optional<rp::client::TenantStats> tenants;
  std::vector<double> late;
  size_t sent = 0, completed = 0;
  {
    RECPRIV_ASSIGN_OR_RETURN(Stack stack, BuildStack(snapshot_dir));
    report.Layer("store.recover_ms", stack.recover_ms, "ms");
    const PhaseRun run = RunTcp(stack, data, phase);
    for (size_t id = 0; id < n; ++id) {
      const Outcome& o = run.outcomes[id];
      sent += o.done ? 1 : 0;
      completed += o.ok ? 1 : 0;
      if (!measured(id)) continue;
      late.push_back(o.late_ms);
      if (o.ok) spans.client.Record(id, o.span_us);
    }
    hits = run.cache_hits;
    misses = run.cache_misses;
    transport = stack.server->Metrics();
    tenants = stack.engine->tenant_stats();
    Collect(run, &served);
    report.Count(n, n - completed);
  }

  // 3. wire: the client codec and HandleRequestLine, no transport.
  {
    RECPRIV_ASSIGN_OR_RETURN(Stack stack, BuildStack(snapshot_dir));
    std::vector<std::optional<ServedAnswer>> answers(n);
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    RunOpenLoop(phase.stream, kConnections, start, [&](int conn, uint64_t id) {
      auto answer = WireReplay(*stack.engine,
                               MakeRequest(data, phase.spec[id], conn), id,
                               spans);
      if (!answer.ok() || answer->answers.size() != 1) return false;
      answers[id] = ServedAnswer{answer->epoch, phase.spec[id],
                                 answer->answers[0]};
      return true;
    });
    for (const auto& a : answers) {
      if (a.has_value()) served.push_back(*a);
    }
  }

  // 4. service: serve::ExecuteQuery.
  {
    RECPRIV_ASSIGN_OR_RETURN(Stack stack, BuildStack(snapshot_dir));
    std::vector<std::optional<ServedAnswer>> answers(n);
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    RunOpenLoop(phase.stream, kConnections, start, [&](int conn, uint64_t id) {
      const QueryRequest request = MakeRequest(data, phase.spec[id], conn);
      const auto t0 = Clock::now();
      auto answer = rp::serve::ExecuteQuery(*stack.engine, request);
      const auto t1 = Clock::now();
      if (!answer.ok() || answer->answers.size() != 1) return false;
      spans.service.Record(id, MsBetween(t0, t1) * 1e3);
      answers[id] = ServedAnswer{answer->epoch, phase.spec[id],
                                 answer->answers[0]};
      return true;
    });
    for (const auto& a : answers) {
      if (a.has_value()) served.push_back(*a);
    }
  }

  // 5. engine: QueryEngine::AnswerBatchScheduled on pre-bound queries,
  // then 6. both kernels, one thread, on exactly the engine's misses.
  std::vector<double> postings_ns, fused_ns, groups;
  {
    RECPRIV_ASSIGN_OR_RETURN(Stack stack, BuildStack(snapshot_dir));
    RECPRIV_ASSIGN_OR_RETURN(rp::serve::SnapshotPtr snap,
                             stack.store->Get(kRelease));
    std::vector<rp::query::CountQuery> bound;
    bound.reserve(n);
    for (size_t id = 0; id < n; ++id) {
      RECPRIV_ASSIGN_OR_RETURN(
          auto q, Bind(data.specs[phase.spec[id]], *snap->bundle.data.schema()));
      bound.push_back(std::move(q));
    }
    std::vector<char> missed(n, 0);
    std::vector<std::optional<ServedAnswer>> answers(n);
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    RunOpenLoop(phase.stream, kConnections, start, [&](int, uint64_t id) {
      const auto t0 = Clock::now();
      auto result = stack.engine->AnswerBatchScheduled(kRelease, snap,
                                                       {bound[id]});
      const auto t1 = Clock::now();
      if (!result.ok() || result->answers.size() != 1) return false;
      spans.engine.Record(id, MsBetween(t0, t1) * 1e3);
      const rp::serve::Answer& a = result->answers[0];
      missed[id] = a.cached ? 0 : 1;
      answers[id] = ServedAnswer{
          result->epoch, phase.spec[id],
          rp::client::AnswerRow{a.observed, a.matched_size, a.estimate,
                                a.cached}};
      return true;
    });
    for (const auto& a : answers) {
      if (a.has_value()) served.push_back(*a);
    }
    rp::table::AnswerScratch scratch;
    for (size_t id = 0; id < n; ++id) {
      if (std::isnan(spans.engine.us[id])) continue;
      if (!missed[id]) {
        spans.kernel.Record(id, 0.0);
        continue;
      }
      const KernelTiming k = TimeKernels(*snap, bound[id], scratch);
      if (!k.agree) {
        report.Fail("postings and fused kernels disagree on request " +
                    std::to_string(id));
      }
      spans.kernel.Record(id, k.postings_ns / 1e3);
      postings_ns.push_back(k.postings_ns);
      fused_ns.push_back(k.fused_ns);
      groups.push_back(double(k.matched_groups));
    }
  }

  std::vector<char> in_window(n);
  for (size_t id = 0; id < n; ++id) in_window[id] = measured(id) ? 1 : 0;
  ReportReadLayers(spans, in_window, report);
  report.Layer("table.postings_ns_per_query", MedianOr0(postings_ns), "ns");
  report.Layer("table.fused_ns_per_query", MedianOr0(fused_ns), "ns");
  report.Layer("table.matched_groups_per_query", MedianOr0(groups), "count");
  report.Layer("engine.cache_hit_ratio",
               hits + misses ? double(hits) / double(hits + misses) : 0.0,
               "ratio");
  uint64_t admitted = 0, rejected = 0;
  if (tenants.has_value()) {
    for (const auto& [name, c] : tenants->tenants) {
      admitted += c.admitted;
      rejected += c.rejected;
    }
  }
  report.Layer("admission.admitted", double(admitted), "count");
  report.Layer("admission.rejected", double(rejected), "count");
  if (rejected > 0) report.Fail("admission rejected requests under quota");
  report.Layer("server.requests", double(transport.requests), "count");
  report.Layer("server.errors", double(transport.errors), "count");
  report.Layer("loadgen.late_p99_ms", Summarize(late, 99.0).tail, "ms");
  report.Layer("loadgen.sent", double(sent), "count");
  report.Layer("loadgen.completed", double(completed), "count");
  ReportTraceOverhead(SpanMedian(spans.client), untraced_p50, report);
  report.Note("per-layer numbers cover " + Num(window_s) +
              " s after a " + Num(kWarmupS) + " s warm-up; " +
              std::to_string(postings_ns.size()) + " kernel misses");
  return CheckAll(data, served, report);
}

}  // namespace

Status RunAnalystTcp(const RunConfig& config, Report& report) {
  rp::Rng rng(config.seed);
  RECPRIV_ASSIGN_OR_RETURN(
      Dataset data, MakeDataset(Source::kCensus, kRelease, kCensusRows,
                                kPoolSize, rng));
  // The durable server's snapshot directory, written before any timing.
  RECPRIV_ASSIGN_OR_RETURN(const std::string dir,
                           FreshDir(config.workdir, "analyst_snapshots"));
  {
    rp::serve::ReleaseStore::Options options;
    options.snapshot_dir = dir;
    rp::serve::ReleaseStore writer(options);
    RECPRIV_RETURN_NOT_OK(writer.Publish(kRelease, data.release).status());
  }
  rp::Rng stream_rng = rng.Fork();
  return config.trace ? RunTraced(config, data, dir, stream_rng, report)
                      : RunUntraced(config, data, dir, stream_rng, report);
}

}  // namespace recbench
