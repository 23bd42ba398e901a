// bulk_batch: the paper's evaluation run as an embedded bulk job.
//
// Two closed-loop InProcessClients submit 1000-query batches drawn from
// the §6.1 pools, alternating between an ADULT 45k release (~1.3k groups)
// and a CENSUS 300k release (~44k groups), with the answer cache off. The
// engine evaluator, the pool fan-out and the service layer's binding of
// 1000 specs do nearly all the work; net, wire, cache and publish are
// bypassed. The engine's kAuto strategy picks group-shard on ADULT (batch
// x 4 >= groups) and postings on CENSUS, so a change to either evaluator
// shows on one release and not the other.

#include <atomic>
#include <optional>
#include <set>
#include <memory>
#include <mutex>
#include <thread>

#include "client/in_process_client.h"
#include "common/thread_pool.h"
#include "inputs.h"
#include "query/canonical.h"
#include "layers.h"
#include "serve/query_engine.h"
#include "serve/release_store.h"
#include "serve/service.h"
#include "table/flat_group_index.h"
#include "workloads.h"

namespace recbench {

namespace {

using rp::Result;
using rp::Status;
using rp::client::QueryRequest;

constexpr int kClients = 2;
constexpr size_t kBatchQueries = 1000;
constexpr size_t kPoolSize = 20000;
constexpr size_t kAdultRows = 45222;
constexpr size_t kCensusRows = 300000;
constexpr int kSetupRepeats = 9;
/// The timed window is cut into this many slices; batch_qps is the median
/// of the slices' rates, so a burst of host CPU steal confined to a few
/// slices does not move it.
constexpr int kSlices = 8;
/// Distinct batches per client; the closed loop cycles through them.
constexpr size_t kBatchesPerClient = 48;
/// Queries per release whose serial kernel cost is sampled (traced run).
constexpr size_t kKernelSample = 2000;

/// The two releases; index 0 = ADULT, 1 = CENSUS.
struct Inputs {
  std::vector<Dataset> data;
  /// Per client, its cycle of batches: release index and pool indices.
  struct Batch {
    int release = 0;
    std::vector<uint32_t> spec;
    QueryRequest request;
  };
  std::vector<std::vector<Batch>> batches;
};

struct Stack {
  std::shared_ptr<rp::serve::ReleaseStore> store;
  std::shared_ptr<rp::serve::QueryEngine> engine;
  std::vector<std::unique_ptr<rp::client::InProcessClient>> clients;
  double publish_census_ms = 0.0;
};

/// Builds the stack from bundle copies made before the clock starts.
Result<Stack> BuildStack(std::vector<rp::analysis::ReleaseBundle> bundles,
                         const Inputs& in) {
  Stack s;
  s.store = std::make_shared<rp::serve::ReleaseStore>();
  rp::serve::QueryEngineOptions options;
  options.num_threads = 4;
  options.cache_capacity = 0;  // the --cache 0 deployment
  s.engine = std::make_shared<rp::serve::QueryEngine>(s.store, options);
  for (int c = 0; c < kClients; ++c) {
    s.clients.push_back(std::make_unique<rp::client::InProcessClient>(s.engine));
  }
  for (size_t r = 0; r < bundles.size(); ++r) {
    const auto t0 = Clock::now();
    RECPRIV_RETURN_NOT_OK(
        s.clients[0]->PublishBundle(in.data[r].name, std::move(bundles[r]))
            .status());
    if (r == 1) s.publish_census_ms = MsBetween(t0, Clock::now());
  }
  return s;
}

std::vector<rp::analysis::ReleaseBundle> CopyBundles(const Inputs& in) {
  std::vector<rp::analysis::ReleaseBundle> out;
  for (const Dataset& d : in.data) out.push_back(d.release);
  return out;
}

Result<Inputs> MakeInputs(uint64_t seed, StreamHasher* hasher) {
  rp::Rng rng(seed);
  Inputs in;
  RECPRIV_ASSIGN_OR_RETURN(
      Dataset adult,
      MakeDataset(Source::kAdult, "adult", kAdultRows, kPoolSize, rng));
  RECPRIV_ASSIGN_OR_RETURN(
      Dataset census,
      MakeDataset(Source::kCensus, "census", kCensusRows, kPoolSize, rng));
  in.data.push_back(std::move(adult));
  in.data.push_back(std::move(census));
  rp::Rng batch_rng = rng.Fork();
  in.batches.resize(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (size_t k = 0; k < kBatchesPerClient; ++k) {
      Inputs::Batch b;
      // Clients start on different releases so both are always in flight.
      b.release = static_cast<int>((k + static_cast<size_t>(c)) % 2);
      const Dataset& d = in.data[static_cast<size_t>(b.release)];
      b.request.release = d.name;
      for (size_t q = 0; q < kBatchQueries; ++q) {
        const uint32_t s =
            static_cast<uint32_t>(batch_rng.NextUint64(d.specs.size()));
        b.spec.push_back(s);
        b.request.queries.push_back(d.specs[s]);
        hasher->Add(d.specs[s]);
      }
      hasher->Add(uint64_t(b.release));
      in.batches[static_cast<size_t>(c)].push_back(std::move(b));
    }
  }
  return in;
}

/// One completed batch of a closed-loop run.
struct BatchRecord {
  int client = 0;
  size_t seq = 0;  ///< position in the client's stream (cycles the batches)
  double latency_ms = kFailed;
  bool ok = false;
  double end_s = 0.0;  ///< completion, seconds after the loop started
};

/// Closed loop: each client submits its next batch as soon as the previous
/// one returns, until `until` (time-bounded) or `limit` batches (replays).
/// `call(client, batch, seq)` returns whether the batch succeeded.
template <typename Call>
std::vector<BatchRecord> RunClosedLoop(const Inputs& in, Clock::time_point until,
                                       const std::vector<size_t>& limit,
                                       Call&& call) {
  std::vector<std::vector<BatchRecord>> per(kClients);
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const auto& mine = in.batches[static_cast<size_t>(c)];
      for (size_t seq = 0;; ++seq) {
        if (limit.empty() ? Clock::now() >= until
                          : seq >= limit[static_cast<size_t>(c)]) {
          break;
        }
        const Inputs::Batch& b = mine[seq % mine.size()];
        const auto t0 = Clock::now();
        const bool ok = call(c, b, seq);
        const auto t1 = Clock::now();
        BatchRecord r{c, seq, ok ? MsBetween(t0, t1) : kFailed, ok,
                      MsBetween(start, t1) / 1e3};
        per[static_cast<size_t>(c)].push_back(r);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<BatchRecord> out;
  for (auto& p : per) out.insert(out.end(), p.begin(), p.end());
  return out;
}

/// Served answers, kept per distinct batch: the first answer to a batch is
/// stored for the oracle, and every later answer to the same batch (the
/// closed loop cycles through them, and the replays repeat them) must be
/// bit-identical to it. Memory stays bounded by the distinct batches, so
/// peak_rss_mb does not grow with throughput. Each client thread touches
/// only its own slots.
struct Served {
  struct Stored {
    uint64_t epoch = 0;
    std::vector<rp::client::AnswerRow> rows;
  };
  std::vector<std::vector<std::optional<Stored>>> first =
      std::vector<std::vector<std::optional<Stored>>>(
          kClients, std::vector<std::optional<Stored>>(kBatchesPerClient));
  std::atomic<size_t> repeats{0};
  std::atomic<size_t> repeat_mismatches{0};

  void Add(int client, size_t seq, uint64_t epoch,
           const std::vector<rp::client::AnswerRow>& rows) {
    auto& slot = first[size_t(client)][seq % kBatchesPerClient];
    if (!slot.has_value()) {
      slot = Stored{epoch, rows};
      return;
    }
    ++repeats;
    bool same = slot->epoch == epoch && slot->rows.size() == rows.size();
    for (size_t i = 0; same && i < rows.size(); ++i) {
      same = SameAnswer(slot->rows[i], rows[i]);
    }
    if (!same) ++repeat_mismatches;
  }
};

/// Checks every stored answer against snapshots built independently from
/// the generated bundles; repeats were compared against those as they came.
Status CheckAll(const Inputs& in, const Served& served, Report& report) {
  std::vector<ServedAnswer> by_release[2];
  for (int c = 0; c < kClients; ++c) {
    for (size_t k = 0; k < kBatchesPerClient; ++k) {
      const auto& slot = served.first[size_t(c)][k];
      if (!slot.has_value()) continue;
      const Inputs::Batch& b = in.batches[size_t(c)][k];
      for (size_t i = 0; i < slot->rows.size(); ++i) {
        by_release[b.release].push_back(
            ServedAnswer{slot->epoch, b.spec[i], slot->rows[i]});
      }
    }
  }
  for (size_t r = 0; r < in.data.size(); ++r) {
    rp::workload::Oracle oracle;
    RECPRIV_ASSIGN_OR_RETURN(auto reference,
                             rp::analysis::SnapshotRelease(in.data[r].release, 1));
    oracle.Register(in.data[r].name, reference);
    const CheckResult check = CheckAnswers(oracle, in.data[r].name,
                                           in.data[r].specs, by_release[r]);
    report.Note("oracle " + in.data[r].name + ": checked " +
                std::to_string(check.checked) + " answers (" +
                std::to_string(check.recomputed) +
                " distinct recomputed), mismatches " +
                std::to_string(check.mismatches));
    if (check.mismatches > 0) {
      report.Fail("oracle mismatch on " + in.data[r].name + ": " +
                  check.first_detail);
    }
  }
  report.Note(std::to_string(served.repeats.load()) +
              " repeated batches compared with their first answer, " +
              std::to_string(served.repeat_mismatches.load()) + " differed");
  if (served.repeat_mismatches > 0) {
    report.Fail("a repeated batch was answered differently");
  }
  return Status::OK();
}

bool QueryThroughClient(Stack& stack, int c, const Inputs::Batch& b,
                        size_t seq, Served& served) {
  auto answer = stack.clients[static_cast<size_t>(c)]->Query(b.request);
  if (!answer.ok() || answer->answers.size() != b.spec.size()) return false;
  served.Add(c, seq, answer->epoch, answer->answers);
  return true;
}

// --- untraced run --------------------------------------------------------

Status RunUntraced(const RunConfig& config, const Inputs& in, Report& report) {
  std::vector<std::vector<rp::analysis::ReleaseBundle>> copies;
  for (int i = 0; i < kSetupRepeats; ++i) copies.push_back(CopyBundles(in));
  Stack stack;
  double setup_s = 0.0;
  int next_copy = 0;
  RECPRIV_RETURN_NOT_OK(MedianSetup(
      kSetupRepeats,
      [&] { return BuildStack(std::move(copies[next_copy++]), in); }, &stack,
      &setup_s));

  Served served;
  const auto start = Clock::now();
  const auto records = RunClosedLoop(
      in, start + std::chrono::seconds(config.seconds), {},
      [&](int c, const Inputs::Batch& b, size_t seq) {
        return QueryThroughClient(stack, c, b, seq, served);
      });
  const double elapsed_s = MsBetween(start, Clock::now()) / 1e3;
  const double rss = PeakRssMb();

  std::vector<double> lat, lat_by[2];
  size_t queries = 0, failed = 0, batches_by[2] = {0, 0};
  std::vector<double> slice_queries(kSlices, 0.0);
  const double seconds = config.seconds;
  for (const BatchRecord& r : records) {
    const auto& b = in.batches[static_cast<size_t>(r.client)]
                              [r.seq % kBatchesPerClient];
    lat.push_back(r.latency_ms);
    lat_by[b.release].push_back(r.latency_ms);
    ++batches_by[b.release];
    if (!r.ok) {
      ++failed;
      continue;
    }
    queries += b.spec.size();
    // Spread the batch's queries over the slices its run overlapped.
    const double begin_s = r.end_s - r.latency_ms / 1e3;
    const double slice_s = seconds / kSlices;
    for (int k = 0; k < kSlices; ++k) {
      const double overlap = std::min(r.end_s, (k + 1) * slice_s) -
                             std::max(begin_s, k * slice_s);
      if (overlap > 0) {
        slice_queries[size_t(k)] +=
            double(b.spec.size()) * overlap / (r.end_s - begin_s);
      }
    }
  }
  for (double& q : slice_queries) q /= seconds / kSlices;
  const double qps = Median(slice_queries);
  const Summary s = Summarize(lat, 99.0);
  report.Count(records.size(), failed);
  report.Metric("batch_qps", qps, "queries/s",
                "median of " + std::to_string(kSlices) + " slice rates; " +
                    std::to_string(queries) + " queries in " + Num(elapsed_s) +
                    " s, " + std::to_string(kClients) + " closed-loop clients");
  report.Timing("batch_p50_ms", "batch_p99_ms", s, "ms");
  report.Note("adult batches: " + FormatSummary(Summarize(lat_by[0]), "ms"));
  report.Note("census batches: " + FormatSummary(Summarize(lat_by[1]), "ms"));
  report.Metric("failure_ratio", FailureRatio(failed, records.size()), "ratio",
                std::to_string(failed) + "/" + std::to_string(records.size()));
  report.Metric("setup_s", setup_s, "s",
                "median of " + std::to_string(kSetupRepeats));
  report.Metric("peak_rss_mb", rss, "MB");
  const double total = double(std::max<size_t>(records.size(), 1));
  report.Share("adult_batch_share", batches_by[0] / total);
  report.Share("census_batch_share", batches_by[1] / total);
  size_t dims[4] = {0, 0, 0, 0}, n = 0;
  for (const auto& mine : in.batches) {
    for (const auto& b : mine) {
      for (uint32_t sp : b.spec) {
        ++dims[std::min<size_t>(
            in.data[static_cast<size_t>(b.release)].specs[sp].where.size(), 3)];
        ++n;
      }
    }
  }
  for (int d = 1; d <= 3; ++d) {
    report.Share("dimensionality_" + std::to_string(d) + "_share",
                 double(dims[d]) / double(std::max<size_t>(n, 1)));
  }
  report.Share("cache_hit_share", 0.0);

  report.EndToEnd("setup_s", setup_s, "s");
  // The overall median of a two-mode mix falls in the gap between the
  // modes; the gated figure weighs each release's median batch equally.
  const double balanced_p50 = (Median(lat_by[0]) + Median(lat_by[1])) / 2.0;
  report.Metric("batch_p50_balanced_ms", balanced_p50, "ms",
                "mean of the adult and census medians");
  report.EndToEnd("read_p50_ms", balanced_p50, "ms");
  report.EndToEnd("read_qps", qps, "queries/s");
  report.EndToEnd("peak_rss_mb", rss, "MB");
  stack = Stack();
  return CheckAll(in, served, report);
}

// --- traced run ----------------------------------------------------------

/// The postings kernel as the engine serves with it, on a pool: the
/// distinct queries of one batch evaluated by posting intersection.
double KernelWallUs(rp::ThreadPool& pool,
                    const rp::analysis::ReleaseSnapshot& snap,
                    const std::vector<rp::query::CountQuery>& unique) {
  // The sums are stored, so the compiler cannot drop the work.
  std::vector<std::pair<uint64_t, uint64_t>> sums(unique.size());
  const auto t0 = Clock::now();
  pool.ParallelFor(0, unique.size(), pool.GrainFor(unique.size()),
                   [&](size_t lo, size_t hi) {
                     rp::table::AnswerScratch scratch;
                     for (size_t k = lo; k < hi; ++k) {
                       const auto& q = unique[k];
                       snap.postings->MatchingGroupsInto(
                           q.na_predicate, scratch.intersect, scratch.groups);
                       uint64_t observed = 0, size = 0;
                       for (uint32_t g : scratch.groups) {
                         observed += snap.index.sa_count(g, q.sa_code);
                         size += snap.index.group_size(g);
                       }
                       sums[k] = {observed, size};
                     }
                   });
  return MsBetween(t0, Clock::now()) * 1e3;
}

Status RunTraced(const RunConfig& config, const Inputs& in, Report& report) {
  const double window_s = std::max(1.5, 0.2 * config.seconds);
  Served served;

  // 1. Untraced pass over the client API; it fixes the recorded stream
  // (the batches each client completed) that every replay repeats.
  std::vector<size_t> limit(kClients, 0);
  double untraced_p50 = 0.0, publish_census_ms = 0.0;
  {
    RECPRIV_ASSIGN_OR_RETURN(Stack stack, BuildStack(CopyBundles(in), in));
    publish_census_ms = stack.publish_census_ms;
    const auto records = RunClosedLoop(
        in, Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(window_s)),
        {}, [&](int c, const Inputs::Batch& b, size_t seq) {
          return QueryThroughClient(stack, c, b, seq, served);
        });
    std::vector<double> lat;
    size_t failed = 0;
    for (const BatchRecord& r : records) {
      lat.push_back(r.latency_ms);
      failed += r.ok ? 0 : 1;
      limit[static_cast<size_t>(r.client)] =
          std::max(limit[static_cast<size_t>(r.client)], r.seq + 1);
    }
    untraced_p50 = Median(lat);
    report.Count(records.size(), failed);
  }
  // Span logs keyed by request id = client * kMaxSeq + seq.
  const size_t max_seq = std::max(limit[0], limit[1]);
  const size_t n = kClients * max_seq;
  auto id_of = [&](int c, size_t seq) { return size_t(c) * max_seq + seq; };

  // 2. service: serve::ExecuteQuery.
  SpanLog service_span(n);
  {
    RECPRIV_ASSIGN_OR_RETURN(Stack stack, BuildStack(CopyBundles(in), in));
    RunClosedLoop(in, Clock::time_point(), limit,
                  [&](int c, const Inputs::Batch& b, size_t seq) {
                    const auto t0 = Clock::now();
                    auto answer = rp::serve::ExecuteQuery(*stack.engine, b.request);
                    const auto t1 = Clock::now();
                    if (!answer.ok()) return false;
                    service_span.Record(id_of(c, seq), MsBetween(t0, t1) * 1e3);
                    served.Add(c, seq, answer->epoch, answer->answers);
                    return true;
                  });
  }

  // 3. engine: AnswerBatchScheduled on pre-bound batches; then 4. the
  // postings kernel on each batch's distinct queries, same pool size.
  SpanLog engine_span(n), kernel_span(n);
  size_t groupshard[2] = {0, 0}, batches[2] = {0, 0};
  std::vector<double> postings_ns[2], fused_ns[2];
  double matched_groups = 0.0;
  {
    RECPRIV_ASSIGN_OR_RETURN(Stack stack, BuildStack(CopyBundles(in), in));
    rp::serve::SnapshotPtr snaps[2];
    for (int r = 0; r < 2; ++r) {
      RECPRIV_ASSIGN_OR_RETURN(snaps[r],
                               stack.store->Get(in.data[static_cast<size_t>(r)].name));
    }
    // Bind every distinct batch once (outside the spans).
    std::vector<std::vector<std::vector<rp::query::CountQuery>>> bound_batches(
        kClients);
    for (int c = 0; c < kClients; ++c) {
      for (const auto& b : in.batches[static_cast<size_t>(c)]) {
        std::vector<rp::query::CountQuery> qs;
        const auto& d = in.data[static_cast<size_t>(b.release)];
        for (uint32_t s : b.spec) {
          RECPRIV_ASSIGN_OR_RETURN(
              auto q, Bind(d.specs[s], *snaps[b.release]->bundle.data.schema()));
          qs.push_back(std::move(q));
        }
        bound_batches[static_cast<size_t>(c)].push_back(std::move(qs));
      }
    }
    std::mutex mu;
    RunClosedLoop(in, Clock::time_point(), limit,
                  [&](int c, const Inputs::Batch& b, size_t seq) {
                    const auto& qs = bound_batches[static_cast<size_t>(c)]
                                                  [seq % kBatchesPerClient];
                    const auto t0 = Clock::now();
                    auto result = stack.engine->AnswerBatchScheduled(
                        b.request.release, snaps[b.release], qs);
                    const auto t1 = Clock::now();
                    if (!result.ok()) return false;
                    engine_span.Record(id_of(c, seq), MsBetween(t0, t1) * 1e3);
                    std::vector<rp::client::AnswerRow> rows;
                    for (const auto& a : result->answers) {
                      rows.push_back({a.observed, a.matched_size, a.estimate,
                                      a.cached});
                    }
                    served.Add(c, seq, result->epoch, rows);
                    std::lock_guard<std::mutex> lock(mu);
                    ++batches[b.release];
                    if (result->strategy_used ==
                        rp::serve::EvalStrategy::kGroupShard) {
                      ++groupshard[b.release];
                    }
                    return true;
                  });

    // Kernel spans: each batch's distinct queries (the engine dedups by
    // canonical key, and the pools repeat queries) through postings on a
    // pool the engine's size, from the same two client threads.
    std::vector<std::vector<std::vector<rp::query::CountQuery>>> distinct(
        kClients);
    for (int c = 0; c < kClients; ++c) {
      for (const auto& qs : bound_batches[size_t(c)]) {
        std::set<std::string> seen;
        std::vector<rp::query::CountQuery> unique;
        for (const auto& q : qs) {
          if (seen.insert(rp::query::CanonicalKey(q)).second) unique.push_back(q);
        }
        distinct[size_t(c)].push_back(std::move(unique));
      }
    }
    rp::ThreadPool pool(4);
    RunClosedLoop(in, Clock::time_point(), limit,
                  [&](int c, const Inputs::Batch& b, size_t seq) {
                    kernel_span.Record(
                        id_of(c, seq),
                        KernelWallUs(pool, *snaps[b.release],
                                     distinct[size_t(c)][seq % kBatchesPerClient]));
                    return true;
                  });

    // Serial per-query cost of both kernels on each release's queries.
    for (int r = 0; r < 2; ++r) {
      const auto& snap = *snaps[r];
      rp::table::AnswerScratch scratch;
      size_t sampled = 0;
      double groups_sum = 0.0;
      for (int c = 0; c < kClients; ++c) {
        for (size_t k = 0; k < kBatchesPerClient; ++k) {
          if (in.batches[size_t(c)][k].release != r) continue;
          for (const auto& q : bound_batches[size_t(c)][k]) {
            if (sampled >= kKernelSample) break;
            const KernelTiming k = TimeKernels(snap, q, scratch);
            if (!k.agree) {
              report.Fail("postings and fused kernels disagree on " +
                          in.data[size_t(r)].name);
            }
            postings_ns[r].push_back(k.postings_ns);
            fused_ns[r].push_back(k.fused_ns);
            groups_sum += double(k.matched_groups);
            ++sampled;
          }
        }
      }
      if (r == 1 && sampled > 0) matched_groups = groups_sum / double(sampled);
    }
  }

  const double outer = SpanMedian(service_span);
  report.Layer("service.execute_us", outer, "us");
  report.Layer("service.self_us",
               MedianOr0(SelfTimes(service_span, {&engine_span})), "us");
  report.Layer("engine.answer_us", SpanMedian(engine_span), "us");
  report.Layer("engine.self_us",
               MedianOr0(SelfTimes(engine_span, {&kernel_span})), "us");
  report.Layer("table.postings_ns_per_query", MedianOr0(postings_ns[1]), "ns");
  report.Layer("table.fused_ns_per_query", MedianOr0(fused_ns[1]), "ns");
  report.Layer("table.postings_ns_per_query_adult", MedianOr0(postings_ns[0]),
               "ns");
  report.Layer("table.fused_ns_per_query_adult", MedianOr0(fused_ns[0]), "ns");
  report.Layer("table.matched_groups_per_query", matched_groups, "count");
  report.Layer("engine.cache_hit_ratio", 0.0, "ratio");
  const size_t all = batches[0] + batches[1];
  report.Layer("engine.groupshard_batch_share",
               all ? double(groupshard[0] + groupshard[1]) / double(all) : 0.0,
               "ratio");
  report.Layer("engine.groupshard_batch_share_adult",
               batches[0] ? double(groupshard[0]) / double(batches[0]) : 0.0,
               "ratio");
  report.Share("census_groupshard_share",
               batches[1] ? double(groupshard[1]) / double(batches[1]) : 0.0);
  report.Layer("release_store.publish_bundle_ms", publish_census_ms, "ms");
  ReportTraceOverhead(outer, untraced_p50, report);
  report.Note("replayed " + std::to_string(limit[0] + limit[1]) +
              " batches per entry point");
  // Per release, since kAuto evaluates the two differently.
  for (int r = 0; r < 2; ++r) {
    SpanLog engine_r(n), kernel_r(n);
    for (int c = 0; c < kClients; ++c) {
      for (size_t seq = 0; seq < limit[size_t(c)]; ++seq) {
        if (in.batches[size_t(c)][seq % kBatchesPerClient].release != r) continue;
        engine_r.us[id_of(c, seq)] = engine_span.us[id_of(c, seq)];
        kernel_r.us[id_of(c, seq)] = kernel_span.us[id_of(c, seq)];
      }
    }
    report.Note(in.data[size_t(r)].name + " batches: engine.answer_us " +
                Num(SpanMedian(engine_r)) + ", postings kernel wall " +
                Num(SpanMedian(kernel_r)) + " us, engine.self_us " +
                Num(MedianOr0(SelfTimes(engine_r, {&kernel_r}))) +
                ", group-shard share " +
                Num(batches[r] ? double(groupshard[r]) / double(batches[r])
                               : 0.0));
  }
  return CheckAll(in, served, report);
}

}  // namespace

Status RunBulkBatch(const RunConfig& config, Report& report) {
  StreamHasher hasher;
  RECPRIV_ASSIGN_OR_RETURN(Inputs in, MakeInputs(config.seed, &hasher));
  report.Digest("request_stream", hasher.Hex());
  return config.trace ? RunTraced(config, in, report)
                      : RunUntraced(config, in, report);
}

}  // namespace recbench
