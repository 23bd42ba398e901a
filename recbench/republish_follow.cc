// republish_follow: writes beside reads.
//
// A durable primary serves CENSUS 300k through a StreamingPublisher. On a
// fixed schedule a writer inserts a 1% delta drawn from the same
// distribution and calls ReleaseStore::PublishIncremental; one
// binary-framed follower replicates every epoch into its own durable
// store. Two TCP reader connections send open-loop "dashboard" bursts of
// hot 0- and 1-dimensional queries after each scheduled publish, with the
// micro-batch window at 200 us. Every publish changes the content digest,
// so the answer cache goes cold and the readers stampede: this workload
// crosses the micro-batcher, incremental SPS, the table run merge, store
// writes, replication serialize/fetch/open, and reads contending with all
// of them.
//
// Snapshot directories live under the run's work directory (inside the
// checkout), so the store writes go to whatever backs the checkout.

#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "client/in_process_client.h"
#include "client/line_protocol_client.h"
#include "client/tcp_transport.h"
#include "core/streaming.h"
#include "datagen/census.h"
#include "inputs.h"
#include "layers.h"
#include "repl/digest.h"
#include "repl/replicator.h"
#include "repl/snapshot_provider.h"
#include "serve/query_engine.h"
#include "serve/release_store.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "store/snapshot_writer.h"
#include "table/flat_group_index.h"
#include "workloads.h"

namespace recbench {

namespace {

using rp::Result;
using rp::Status;
using rp::client::QueryRequest;
using rp::client::QuerySpec;

constexpr char kRelease[] = "census";
constexpr size_t kBaseRows = 300000;
constexpr size_t kDeltaRows = kBaseRows / 100;  // the 1% insert batch
constexpr double kPeriodS = 0.5;                // publish schedule
constexpr size_t kWarmupPeriods = 2;            // excluded from metrics
constexpr int kReaders = 2;
/// Each period's reader burst starts once the publish has normally
/// returned, so it reads the new epoch on a cold cache, and spans kBurstS.
constexpr double kBurstStartS = 0.25;
constexpr double kBurstS = 0.2;
constexpr int kSetupRepeats = 5;
constexpr int kWaitMs = 30000;

struct Inputs {
  rp::table::Table rows;  ///< base rows, then one delta after another
  size_t publishes = 0;   ///< incremental publishes after the first
  uint64_t publish_seed = 0;
  std::vector<QuerySpec> dashboard;
  std::vector<Scheduled> stream;
  std::vector<uint32_t> spec;  ///< dashboard index per request id
};

Result<Inputs> MakeInputs(const RunConfig& config, StreamHasher* hasher) {
  rp::Rng rng(config.seed);
  // A traced run replays the schedule five times, so each replay is shorter.
  const double window_s =
      config.trace ? std::max(3.0, 0.4 * config.seconds) : config.seconds;
  const size_t publishes =
      kWarmupPeriods + static_cast<size_t>(std::ceil(window_s / kPeriodS));
  rp::Rng data_rng = rng.Fork();
  RECPRIV_ASSIGN_OR_RETURN(
      rp::table::Table rows,
      rp::datagen::GenerateCensus(
          {.num_records = kBaseRows + publishes * kDeltaRows}, data_rng));
  Inputs in{std::move(rows), publishes, rng(), {}, {}, {}};
  const rp::table::Schema& schema = *in.rows.schema();

  // The dashboard: a count per SA value, and a count per value of every
  // public attribute (with a seeded SA value) — the same shape of work on
  // every seed, so the figures do not hinge on which queries were drawn.
  rp::Rng dash_rng = rng.Fork();
  const rp::table::Attribute& sa = schema.sensitive();
  for (uint32_t v = 0; v < sa.domain.size(); ++v) {
    in.dashboard.push_back(QuerySpec{{}, sa.domain.value(v)});
  }
  for (size_t a : schema.public_indices()) {
    const rp::table::Attribute& attr = schema.attribute(a);
    for (uint32_t v = 0; v < attr.domain.size(); ++v) {
      const uint32_t s = uint32_t(dash_rng.NextUint64(sa.domain.size()));
      in.dashboard.push_back(
          QuerySpec{{{attr.name, attr.domain.value(v)}}, sa.domain.value(s)});
    }
  }

  // Reader bursts: after each publish both readers refresh the whole
  // dashboard, from the same seeded starting point at the same due times,
  // so each pair of requests races into the micro-batcher together.
  rp::Rng order_rng = rng.Fork();
  const size_t n = in.dashboard.size();
  const double gap_s = kBurstS / double(n);
  for (size_t k = 0; k < publishes; ++k) {
    const size_t offset = order_rng.NextUint64(n);
    for (size_t j = 0; j < n; ++j) {
      for (int r = 0; r < kReaders; ++r) {
        const uint64_t id = in.stream.size();
        in.stream.push_back(
            Scheduled{id, double(k) * kPeriodS + kBurstStartS + double(j) * gap_s,
                      r});
        in.spec.push_back(uint32_t((offset + j) % n));
      }
    }
  }
  for (size_t i = 0; i < in.stream.size(); ++i) {
    hasher->Add(in.stream[i].at_s);
    hasher->Add(uint64_t(in.stream[i].conn));
    hasher->Add(in.dashboard[in.spec[i]]);
  }
  hasher->Add(in.publish_seed);
  hasher->Add(uint64_t(in.publishes));
  hasher->Add(uint64_t(in.rows.num_rows()));
  for (size_t c = 0; c < in.rows.num_columns(); ++c) {
    const auto col = in.rows.column(c);
    hasher->Add(rp::repl::FormatDigest(rp::repl::BytesDigest(
        reinterpret_cast<const uint8_t*>(col.data()),
        col.size() * sizeof(uint32_t))));
  }
  return in;
}

Status InsertRows(rp::core::StreamingPublisher& publisher,
                  const rp::table::Table& rows, size_t begin, size_t end) {
  std::vector<uint32_t> row(rows.num_columns());
  for (size_t r = begin; r < end; ++r) {
    for (size_t c = 0; c < rows.num_columns(); ++c) row[c] = rows.at(r, c);
    RECPRIV_RETURN_NOT_OK(publisher.Insert(row));
  }
  return Status::OK();
}

/// Primary + follower + reader connections, query-ready at epoch 1.
/// Members are destroyed in reverse order: readers disconnect, then the
/// replicator stops, then the server drains.
struct Stack {
  std::shared_ptr<rp::serve::ReleaseStore> store;
  std::shared_ptr<rp::serve::QueryEngine> engine;
  std::unique_ptr<rp::repl::SnapshotProvider> provider;
  std::unique_ptr<rp::serve::Server> server;
  std::unique_ptr<rp::core::StreamingPublisher> publisher;
  std::unique_ptr<rp::Rng> publish_rng;
  std::shared_ptr<rp::serve::ReleaseStore> follower_store;
  std::shared_ptr<rp::serve::QueryEngine> follower_engine;
  std::unique_ptr<rp::repl::Replicator> replicator;
  std::vector<std::unique_ptr<rp::client::LineProtocolClient>> readers;
  double initial_sync_ms = 0.0;
};

Result<std::unique_ptr<Stack>> BuildStack(const Inputs& in,
                                          const std::string& dir) {
  auto s = std::make_unique<Stack>();
  rp::serve::ReleaseStore::Options primary;
  primary.snapshot_dir = dir + "/primary";
  s->store = std::make_shared<rp::serve::ReleaseStore>(primary);
  RECPRIV_RETURN_NOT_OK(s->store->RecoverFromDir());
  rp::serve::QueryEngineOptions options;
  options.num_threads = 4;
  options.micro_batch_window_us = 200;
  s->engine = std::make_shared<rp::serve::QueryEngine>(s->store, options);
  s->provider = std::make_unique<rp::repl::SnapshotProvider>(*s->store);
  rp::serve::ServerOptions server_options;
  server_options.snapshot_provider = s->provider.get();
  RECPRIV_ASSIGN_OR_RETURN(s->server,
                           rp::serve::Server::Start(s->engine, server_options));

  RECPRIV_ASSIGN_OR_RETURN(
      rp::core::StreamingPublisher publisher,
      rp::core::StreamingPublisher::Make(in.rows.schema(),
                                         DefaultParams(in.rows)));
  s->publisher =
      std::make_unique<rp::core::StreamingPublisher>(std::move(publisher));
  RECPRIV_RETURN_NOT_OK(InsertRows(*s->publisher, in.rows, 0, kBaseRows));
  s->publish_rng = std::make_unique<rp::Rng>(in.publish_seed);
  RECPRIV_RETURN_NOT_OK(
      s->store->PublishIncremental(kRelease, *s->publisher, *s->publish_rng)
          .status());

  rp::serve::ReleaseStore::Options follower;
  follower.snapshot_dir = dir + "/follower";
  s->follower_store = std::make_shared<rp::serve::ReleaseStore>(follower);
  RECPRIV_RETURN_NOT_OK(s->follower_store->RecoverFromDir());
  rp::serve::QueryEngineOptions follower_options;
  follower_options.num_threads = 2;
  s->follower_engine = std::make_shared<rp::serve::QueryEngine>(
      s->follower_store, follower_options);
  rp::repl::ReplicatorOptions repl_options;
  repl_options.primary_port = s->server->port();
  repl_options.binary_frame = true;
  repl_options.idle_poll_ms = 10;
  repl_options.retry.initial_backoff_ms = 1;
  repl_options.retry.max_backoff_ms = 50;
  const auto t0 = Clock::now();
  RECPRIV_ASSIGN_OR_RETURN(
      s->replicator,
      rp::repl::Replicator::Start(*s->follower_store, repl_options));
  if (!s->replicator->WaitForEpoch(kRelease, 1, kWaitMs)) {
    return Status::Unavailable("follower never served epoch 1");
  }
  s->initial_sync_ms = MsBetween(t0, Clock::now());

  for (int r = 0; r < kReaders; ++r) {
    RECPRIV_ASSIGN_OR_RETURN(
        auto client, rp::client::ConnectTcp("127.0.0.1", s->server->port()));
    s->readers.push_back(std::move(client));
  }
  return s;
}

/// What the primary published for one epoch, as observed when it did.
struct EpochRecord {
  uint64_t epoch = 0;
  uint64_t content_digest = 0;
  uint64_t image_digest = 0;
  double publish_ms = 0.0;
  double lag_ms = kFailed;  ///< publish returned -> follower serves it
  double touched_ratio = 0.0;
  bool ok = false;
  Clock::time_point returned_at;
};

/// One run of the schedule: the writer, the follower-lag watcher and the
/// open-loop readers, all against `stack`. `read(conn, id)` performs one
/// reader request.
template <typename Read>
Result<std::vector<EpochRecord>> RunSchedule(const Inputs& in, Stack& stack,
                                             std::vector<Outcome>* outcomes,
                                             Read&& read) {
  std::vector<EpochRecord> epochs(in.publishes);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> to_watch;
  bool writer_done = false;
  Status writer_status;
  const auto start = Clock::now() + std::chrono::milliseconds(50);

  std::thread writer([&] {
    for (size_t k = 0; k < in.publishes; ++k) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(double(k) * kPeriodS)));
      const size_t begin = kBaseRows + k * kDeltaRows;
      Status st = InsertRows(*stack.publisher, in.rows, begin,
                             begin + kDeltaRows);
      rp::core::IncrementalPublishStats stats;
      const auto t0 = Clock::now();
      Result<rp::serve::SnapshotPtr> snap =
          st.ok() ? stack.store->PublishIncremental(
                        kRelease, *stack.publisher, *stack.publish_rng,
                        /*merge_index=*/true, &stats)
                  : Result<rp::serve::SnapshotPtr>(st);
      const auto t1 = Clock::now();
      EpochRecord& e = epochs[k];
      if (!snap.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        writer_status = snap.status();
        break;
      }
      e.epoch = (*snap)->epoch;
      e.content_digest = (*snap)->content_digest;
      e.publish_ms = MsBetween(t0, t1);
      const double groups = double(stats.groups_touched + stats.groups_carried);
      e.touched_ratio = groups > 0 ? stats.groups_touched / groups : 0.0;
      if (auto packed = stack.provider->Get(kRelease, e.epoch); packed.ok()) {
        e.image_digest = packed->digest;
      }
      e.ok = true;
      e.returned_at = t1;
      {
        std::lock_guard<std::mutex> lock(mu);
        to_watch.push_back(k);
      }
      cv.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu);
    writer_done = true;
    cv.notify_one();
  });

  std::thread watcher([&] {
    for (;;) {
      size_t k = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return writer_done || !to_watch.empty(); });
        if (to_watch.empty()) return;
        k = to_watch.front();
        to_watch.pop_front();
      }
      const bool seen =
          stack.replicator->WaitForEpoch(kRelease, epochs[k].epoch, kWaitMs);
      epochs[k].lag_ms =
          seen ? MsBetween(epochs[k].returned_at, Clock::now()) : kFailed;
    }
  });

  *outcomes = RunOpenLoop(in.stream, kReaders, start, read);
  writer.join();
  watcher.join();
  RECPRIV_RETURN_NOT_OK(writer_status);
  return epochs;
}

bool Measured(const Inputs& in, uint64_t id) {
  return in.stream[id].at_s >= kWarmupPeriods * kPeriodS;
}

/// What the follower holds after a run: the image digest of each retained
/// epoch's file and a sample of its answers at every retained epoch.
struct FollowerSample {
  std::map<uint64_t, uint64_t> digest;
  std::vector<ServedAnswer> answers;
};

Result<FollowerSample> SampleFollower(const Inputs& in, Stack& stack,
                                      Report& report) {
  FollowerSample out;
  RECPRIV_ASSIGN_OR_RETURN(auto window,
                           stack.follower_store->Window(kRelease));
  rp::client::InProcessClient follower(stack.follower_engine);
  for (const rp::serve::SnapshotPtr& snap : window) {
    RECPRIV_ASSIGN_OR_RETURN(
        const std::string path,
        stack.follower_store->ManagedSnapshotPath(kRelease, snap->epoch));
    RECPRIV_ASSIGN_OR_RETURN(out.digest[snap->epoch],
                             rp::repl::FileDigest(path));
    for (uint32_t s = 0; s < in.dashboard.size(); s += 4) {
      QueryRequest request{kRelease, snap->epoch, {in.dashboard[s]}, "", {}};
      auto answer = follower.Query(request);
      if (!answer.ok() || answer->answers.size() != 1) {
        report.Fail("follower could not answer at epoch " +
                    std::to_string(snap->epoch));
        continue;
      }
      out.answers.push_back(ServedAnswer{answer->epoch, s, answer->answers[0]});
    }
  }
  const auto stats = stack.replicator->Stats();
  if (stats.digest_mismatches > 0) {
    report.Fail("follower saw " + std::to_string(stats.digest_mismatches) +
                " digest mismatches");
  }
  return out;
}

/// The correctness pass over one or more runs of the schedule (all runs
/// publish bit-identical epochs): a twin StreamingPublisher fed the same
/// rows and RNG seed must reproduce every served epoch's content and image
/// digest; every served answer must match an independently re-indexed twin
/// of its epoch; the follower's files and sampled answers must match the
/// primary's. Returns the twin's per-epoch timings for the trace.
struct TwinTimings {
  SpanLog core_ms, write_ms, serialize_ms;  ///< keyed by publish index
};

Result<TwinTimings> CheckRun(const Inputs& in, const std::string& dir,
                             const std::vector<std::vector<EpochRecord>>& runs,
                             std::vector<ServedAnswer> all,
                             const FollowerSample& follower, Report& report) {
  TwinTimings t{SpanLog(in.publishes), SpanLog(in.publishes),
                SpanLog(in.publishes)};
  all.insert(all.end(), follower.answers.begin(), follower.answers.end());
  const std::map<uint64_t, uint64_t>& follower_digest = follower.digest;

  // Group served answers by epoch, then walk the twin publisher forward.
  std::map<uint64_t, std::vector<ServedAnswer>> by_epoch;
  for (const ServedAnswer& a : all) by_epoch[a.epoch].push_back(a);
  RECPRIV_ASSIGN_OR_RETURN(
      rp::core::StreamingPublisher twin,
      rp::core::StreamingPublisher::Make(in.rows.schema(),
                                         DefaultParams(in.rows)));
  RECPRIV_RETURN_NOT_OK(InsertRows(twin, in.rows, 0, kBaseRows));
  rp::Rng rng(in.publish_seed);
  size_t checked = 0, mismatches = 0, follower_checked = 0;
  std::string first_detail;
  for (size_t k = 0; k <= in.publishes; ++k) {
    if (k > 0) {
      const size_t begin = kBaseRows + (k - 1) * kDeltaRows;
      RECPRIV_RETURN_NOT_OK(InsertRows(twin, in.rows, begin, begin + kDeltaRows));
    }
    const uint64_t epoch = k + 1;
    const auto t0 = Clock::now();
    RECPRIV_ASSIGN_OR_RETURN(rp::core::IncrementalPublishResult result,
                             twin.PublishIncremental(rng, true));
    const double core_ms = MsBetween(t0, Clock::now());
    std::string sensitive = result.table.schema()->sensitive().name;
    RECPRIV_ASSIGN_OR_RETURN(
        rp::serve::SnapshotPtr snap,
        rp::analysis::AssembleSnapshot(
            rp::analysis::ReleaseBundle{std::move(result.table), twin.params(),
                                        std::move(sensitive), {}},
            epoch, std::move(result.index), {}));
    const auto t1 = Clock::now();
    RECPRIV_ASSIGN_OR_RETURN(auto image,
                             rp::store::SerializeSnapshot(*snap, kRelease));
    const double serialize_ms = MsBetween(t1, Clock::now());
    const uint64_t image_digest = rp::repl::BytesDigest(image.data(), image.size());
    image.clear();
    image.shrink_to_fit();
    const auto t2 = Clock::now();
    RECPRIV_RETURN_NOT_OK(rp::store::WriteSnapshot(*snap, kRelease,
                                                   dir + "/twin.rps"));
    const double write_ms = MsBetween(t2, Clock::now());
    if (k > 0) {
      t.core_ms.Record(k - 1, core_ms);
      t.serialize_ms.Record(k - 1, serialize_ms);
      t.write_ms.Record(k - 1, write_ms);
      for (const auto& run : runs) {
        const EpochRecord& e = run[k - 1];
        if (!e.ok) continue;
        if (e.epoch != epoch || e.content_digest != snap->content_digest ||
            e.image_digest != image_digest) {
          report.Fail("twin publisher disagrees with the primary at epoch " +
                      std::to_string(epoch));
        }
      }
    }
    if (auto it = follower_digest.find(epoch);
        it != follower_digest.end() && it->second != image_digest) {
      report.Fail("follower image digest differs at epoch " +
                  std::to_string(epoch));
    }
    if (auto it = by_epoch.find(epoch); it != by_epoch.end()) {
      rp::workload::Oracle oracle;
      oracle.RegisterRebuilt(kRelease, snap);
      const CheckResult check =
          CheckAnswers(oracle, kRelease, in.dashboard, it->second);
      checked += check.checked;
      mismatches += check.mismatches;
      if (follower_digest.count(epoch)) follower_checked += 1;
      if (first_detail.empty()) first_detail = check.first_detail;
    }
  }
  std::error_code ec;
  std::filesystem::remove(dir + "/twin.rps", ec);
  report.Note("twin publisher reproduced " + std::to_string(in.publishes + 1) +
              " epochs; oracle checked " + std::to_string(checked) +
              " answers (" + std::to_string(follower_checked) +
              " follower epochs sampled), mismatches " +
              std::to_string(mismatches));
  if (mismatches > 0) report.Fail("oracle mismatch: " + first_detail);
  return t;
}

/// A reader request over TCP; fills `answers[id]`.
auto TcpRead(const Inputs& in, Stack& stack,
             std::vector<std::optional<ServedAnswer>>& answers) {
  return [&](int conn, uint64_t id) {
    QueryRequest request{kRelease, std::nullopt, {in.dashboard[in.spec[id]]},
                         "", {}};
    auto answer = stack.readers[size_t(conn)]->Query(request);
    if (!answer.ok() || answer->answers.size() != 1) return false;
    answers[id] = ServedAnswer{answer->epoch, in.spec[id], answer->answers[0]};
    return true;
  };
}

void Collect(const std::vector<std::optional<ServedAnswer>>& answers,
             std::vector<ServedAnswer>* served) {
  for (const auto& a : answers) {
    if (a.has_value()) served->push_back(*a);
  }
}

std::vector<double> MeasuredEpochs(const std::vector<EpochRecord>& epochs,
                                   double EpochRecord::*field) {
  std::vector<double> v;
  for (size_t k = kWarmupPeriods; k < epochs.size(); ++k) {
    v.push_back(epochs[k].ok ? epochs[k].*field : kFailed);
  }
  return v;
}

// --- untraced run --------------------------------------------------------

Status RunUntraced(const RunConfig& config, const Inputs& in, Report& report) {
  std::unique_ptr<Stack> stack;
  double setup_s = 0.0;
  int attempt = 0;
  RECPRIV_RETURN_NOT_OK(MedianSetup(
      kSetupRepeats,
      [&]() -> Result<std::unique_ptr<Stack>> {
        RECPRIV_ASSIGN_OR_RETURN(
            const std::string dir,
            FreshDir(config.workdir, "setup" + std::to_string(attempt++)));
        return BuildStack(in, dir);
      },
      &stack, &setup_s));

  std::vector<std::optional<ServedAnswer>> answers(in.stream.size());
  std::vector<Outcome> outcomes;
  RECPRIV_ASSIGN_OR_RETURN(auto epochs,
                           RunSchedule(in, *stack, &outcomes,
                                       TcpRead(in, *stack, answers)));
  const double rss = PeakRssMb();

  std::vector<double> lat;
  std::vector<std::vector<double>> per_period(in.publishes);
  size_t reads = 0, failed_reads = 0, completed = 0;
  double first_due = 1e300, last_done = 0.0;
  for (size_t id = 0; id < outcomes.size(); ++id) {
    if (!Measured(in, id)) continue;
    const Outcome& o = outcomes[id];
    lat.push_back(o.latency_ms);
    per_period[size_t(in.stream[id].at_s / kPeriodS)].push_back(o.latency_ms);
    ++reads;
    failed_reads += o.ok ? 0 : 1;
    if (!o.ok) continue;
    ++completed;
    first_due = std::min(first_due, in.stream[id].at_s);
    last_done = std::max(last_done, in.stream[id].at_s + o.latency_ms / 1e3);
  }
  // Reads the dashboards were served per second: the open-loop offered
  // rate, unless the stack fell behind it.
  const double read_qps = completed / std::max(last_done - first_due, 1e-9);
  // read_p50_ms: the median over publish periods of each period's median,
  // so a burst of host steal confined to a few periods does not move it.
  std::vector<double> period_medians;
  for (auto& v : per_period) {
    if (!v.empty()) period_medians.push_back(Median(std::move(v)));
  }
  const double period_p50 = Median(period_medians);
  const Summary q = Summarize(lat, 99.0);
  const Summary pub = Summarize(MeasuredEpochs(epochs, &EpochRecord::publish_ms));
  const Summary lag = Summarize(MeasuredEpochs(epochs, &EpochRecord::lag_ms));
  size_t publishes = 0, failed_publishes = 0, failed_installs = 0;
  double touched = 0.0;
  for (size_t k = kWarmupPeriods; k < epochs.size(); ++k) {
    ++publishes;
    failed_publishes += epochs[k].ok ? 0 : 1;
    failed_installs += epochs[k].lag_ms == kFailed ? 1 : 0;
    touched += epochs[k].touched_ratio;
  }
  const size_t attempted = reads + 2 * publishes;
  const size_t failed = failed_reads + failed_publishes + failed_installs;
  report.Count(attempted, failed);

  report.Timing("query_p50_ms", "query_p99_ms", q, "ms");
  report.Metric("query_p50_period_median_ms", period_p50, "ms",
                "median of " + std::to_string(period_medians.size()) +
                    " per-period medians");
  report.Metric("query_served_qps", read_qps, "queries/s",
                "open-loop dashboard reads completed per second");
  report.Timing("publish_p50_ms", "publish_tail_ms", pub, "ms");
  report.Timing("follower_lag_p50_ms", "follower_lag_tail_ms", lag, "ms");
  report.Metric("failure_ratio", FailureRatio(failed, attempted), "ratio",
                std::to_string(failed) + "/" + std::to_string(attempted) +
                    " queries, publishes and follower installs");
  report.Metric("setup_s", setup_s, "s",
                "median of " + std::to_string(kSetupRepeats));
  report.Metric("peak_rss_mb", rss, "MB");
  if (const auto sched = stack->engine->scheduler_stats()) {
    report.Share("coalesced_submission_share",
                 sched->submissions ? double(sched->coalesced_submissions) /
                                          double(sched->submissions)
                                    : 0.0);
  }
  report.Share("groups_touched_share_per_publish",
               publishes ? touched / double(publishes) : 0.0);
  const double zero_dim = double(in.rows.schema()->sa_domain_size());
  report.Share("dimensionality_0_share", zero_dim / double(in.dashboard.size()));
  report.Share("dimensionality_1_share",
               1.0 - zero_dim / double(in.dashboard.size()));

  report.EndToEnd("setup_s", setup_s, "s");
  report.EndToEnd("read_p50_ms", period_p50, "ms");
  report.EndToEnd("read_qps", read_qps, "queries/s");
  report.EndToEnd("peak_rss_mb", rss, "MB");

  std::vector<ServedAnswer> served;
  Collect(answers, &served);
  RECPRIV_ASSIGN_OR_RETURN(FollowerSample follower,
                           SampleFollower(in, *stack, report));
  stack.reset();
  return CheckRun(in, config.workdir, {epochs}, std::move(served), follower,
                  report)
      .status();
}

/// repl.fetch_ms and store.open_ms: each retained epoch fetched over a fresh
/// binary-framed session (the FetchSnapshotChunk loop a follower runs),
/// then opened with ReleaseStore::OpenSnapshot into a scratch store.
Status TimeFetchAndOpen(Stack& stack, const std::string& workdir,
                        Report& report) {
  rp::client::TcpTransportOptions options;
  options.max_line_bytes = 8 << 20;
  options.read_chunk_bytes = 64 * 1024;
  RECPRIV_ASSIGN_OR_RETURN(
      auto fetcher,
      rp::client::ConnectTcp("127.0.0.1", stack.server->port(), options));
  RECPRIV_ASSIGN_OR_RETURN(const bool binary, fetcher->NegotiateBinaryFrame());
  if (!binary) report.Fail("primary refused binary framing");
  RECPRIV_ASSIGN_OR_RETURN(auto window, stack.store->Window(kRelease));
  RECPRIV_ASSIGN_OR_RETURN(const std::string dir, FreshDir(workdir, "fetched"));
  std::vector<double> fetch_ms, open_ms;
  for (const rp::serve::SnapshotPtr& snap : window) {
    std::vector<uint8_t> image;
    uint64_t digest = 0;
    const auto t0 = Clock::now();
    for (uint64_t offset = 0;;) {
      RECPRIV_ASSIGN_OR_RETURN(
          auto chunk,
          fetcher->FetchSnapshotChunk(kRelease, snap->epoch, offset,
                                      rp::serve::kDefaultFetchChunkBytes));
      image.insert(image.end(), chunk.data.begin(), chunk.data.end());
      offset += chunk.data.size();
      RECPRIV_ASSIGN_OR_RETURN(digest, rp::repl::ParseDigest(chunk.digest));
      if (chunk.eof) break;
    }
    fetch_ms.push_back(MsBetween(t0, Clock::now()));
    if (rp::repl::BytesDigest(image.data(), image.size()) != digest) {
      report.Fail("fetched image digest mismatch at epoch " +
                  std::to_string(snap->epoch));
    }
    const std::string path = dir + "/e" + std::to_string(snap->epoch) + ".rps";
    RECPRIV_RETURN_NOT_OK(rp::store::WriteBytesAtomic(image, path));
    rp::serve::ReleaseStore opened;
    const auto t1 = Clock::now();
    RECPRIV_RETURN_NOT_OK(opened.OpenSnapshot(path).status());
    open_ms.push_back(MsBetween(t1, Clock::now()));
  }
  report.Layer("repl.fetch_ms", MedianOr0(fetch_ms), "ms");
  report.Layer("store.open_ms", MedianOr0(open_ms), "ms");
  return Status::OK();
}

// --- traced run ----------------------------------------------------------

Status RunTraced(const RunConfig& config, const Inputs& in, Report& report) {
  const size_t n = in.stream.size();
  std::vector<ServedAnswer> served;
  std::vector<std::vector<EpochRecord>> runs;
  int replay = 0;
  auto fresh = [&]() -> Result<std::unique_ptr<Stack>> {
    RECPRIV_ASSIGN_OR_RETURN(
        const std::string dir,
        FreshDir(config.workdir, "replay" + std::to_string(replay++)));
    return BuildStack(in, dir);
  };
  auto measured_median = [&](const std::vector<Outcome>& outcomes) {
    std::vector<double> v;
    for (size_t id = 0; id < n; ++id) {
      if (Measured(in, id)) v.push_back(outcomes[id].latency_ms);
    }
    return Median(v);
  };

  // 1. Untraced baseline.
  double untraced_p50 = 0.0;
  {
    RECPRIV_ASSIGN_OR_RETURN(auto stack, fresh());
    std::vector<std::optional<ServedAnswer>> answers(n);
    std::vector<Outcome> outcomes;
    RECPRIV_ASSIGN_OR_RETURN(
        auto epochs,
        RunSchedule(in, *stack, &outcomes, TcpRead(in, *stack, answers)));
    untraced_p50 = measured_median(outcomes);
    Collect(answers, &served);
    runs.push_back(std::move(epochs));
  }

  // 2. client.query over TCP, plus the publish path and follower spans.
  ReadSpans spans(n);
  std::vector<double> late;
  size_t sent = 0, completed = 0;
  std::vector<EpochRecord> traced_epochs;
  FollowerSample follower;
  {
    RECPRIV_ASSIGN_OR_RETURN(auto kept, fresh());
    std::vector<std::optional<ServedAnswer>> answers(n);
    std::vector<Outcome> outcomes;
    RECPRIV_ASSIGN_OR_RETURN(
        traced_epochs,
        RunSchedule(in, *kept, &outcomes, TcpRead(in, *kept, answers)));
    for (size_t id = 0; id < n; ++id) {
      const Outcome& o = outcomes[id];
      sent += o.done ? 1 : 0;
      completed += o.ok ? 1 : 0;
      if (!Measured(in, id)) continue;
      late.push_back(o.late_ms);
      if (o.ok) spans.client.Record(id, o.span_us);
    }
    report.Count(n, n - completed);
    Collect(answers, &served);
    runs.push_back(traced_epochs);
    report.Layer("repl.initial_sync_ms", kept->initial_sync_ms, "ms");
    const auto transport = kept->server->Metrics();
    report.Layer("server.requests", double(transport.requests), "count");
    report.Layer("server.errors", double(transport.errors), "count");
    if (const auto sched = kept->engine->scheduler_stats()) {
      report.Layer("batcher.coalesced_ratio",
                   sched->submissions ? double(sched->coalesced_submissions) /
                                            double(sched->submissions)
                                      : 0.0,
                   "ratio");
      report.Layer("batcher.queries_per_batch",
                   sched->batches ? double(sched->batched_queries) /
                                        double(sched->batches)
                                  : 0.0,
                   "count");
    }
    const auto repl = kept->replicator->Stats();
    report.Layer("repl.bytes_per_epoch",
                 repl.snapshots_fetched
                     ? double(repl.bytes_fetched) / double(repl.snapshots_fetched)
                     : 0.0,
                 "bytes");
    report.Layer("repl.reconnects", double(repl.reconnects), "count");
    report.Layer("repl.digest_mismatches", double(repl.digest_mismatches),
                 "count");

    RECPRIV_RETURN_NOT_OK(TimeFetchAndOpen(*kept, config.workdir, report));
    RECPRIV_ASSIGN_OR_RETURN(follower, SampleFollower(in, *kept, report));
  }

  // 3. wire: codec + HandleRequestLine while the writer publishes.
  {
    RECPRIV_ASSIGN_OR_RETURN(auto stack, fresh());
    std::vector<std::optional<ServedAnswer>> answers(n);
    std::vector<Outcome> outcomes;
    RECPRIV_ASSIGN_OR_RETURN(
        auto epochs,
        RunSchedule(in, *stack, &outcomes, [&](int, uint64_t id) {
          auto answer = WireReplay(
              *stack->engine,
              QueryRequest{kRelease, std::nullopt,
                           {in.dashboard[in.spec[id]]}, "", {}},
              id, spans);
          if (!answer.ok() || answer->answers.size() != 1) return false;
          answers[id] = ServedAnswer{answer->epoch, in.spec[id],
                                     answer->answers[0]};
          return true;
        }));
    Collect(answers, &served);
    runs.push_back(std::move(epochs));
  }

  // 4. service: serve::ExecuteQuery.
  {
    RECPRIV_ASSIGN_OR_RETURN(auto stack, fresh());
    std::vector<std::optional<ServedAnswer>> answers(n);
    std::vector<Outcome> outcomes;
    RECPRIV_ASSIGN_OR_RETURN(
        auto epochs,
        RunSchedule(in, *stack, &outcomes, [&](int, uint64_t id) {
          const QueryRequest request{kRelease, std::nullopt,
                                     {in.dashboard[in.spec[id]]}, "", {}};
          const auto t0 = Clock::now();
          auto answer = rp::serve::ExecuteQuery(*stack->engine, request);
          const auto t1 = Clock::now();
          if (!answer.ok() || answer->answers.size() != 1) return false;
          spans.service.Record(id, MsBetween(t0, t1) * 1e3);
          answers[id] = ServedAnswer{answer->epoch, in.spec[id],
                                     answer->answers[0]};
          return true;
        }));
    Collect(answers, &served);
    runs.push_back(std::move(epochs));
  }

  // 5. engine: AnswerBatchScheduled on the snapshot a service call would
  // resolve; both kernels run right after, outside the span, on misses.
  std::vector<double> postings_ns, fused_ns, groups;
  size_t hits = 0, lookups = 0;
  bool kernels_agree = true;
  {
    RECPRIV_ASSIGN_OR_RETURN(auto stack, fresh());
    RECPRIV_ASSIGN_OR_RETURN(auto first, stack->store->Get(kRelease));
    std::vector<rp::query::CountQuery> bound;
    for (const QuerySpec& spec : in.dashboard) {
      RECPRIV_ASSIGN_OR_RETURN(auto q, Bind(spec, *first->bundle.data.schema()));
      bound.push_back(std::move(q));
    }
    std::vector<std::optional<ServedAnswer>> answers(n);
    std::vector<Outcome> outcomes;
    std::mutex mu;
    RECPRIV_ASSIGN_OR_RETURN(
        auto epochs,
        RunSchedule(in, *stack, &outcomes, [&](int, uint64_t id) {
          auto snap = stack->store->Get(kRelease);
          if (!snap.ok()) return false;
          const rp::query::CountQuery& q = bound[in.spec[id]];
          const auto t0 = Clock::now();
          auto result = stack->engine->AnswerBatchScheduled(kRelease, *snap, {q});
          const auto t1 = Clock::now();
          if (!result.ok() || result->answers.size() != 1) return false;
          spans.engine.Record(id, MsBetween(t0, t1) * 1e3);
          const rp::serve::Answer& a = result->answers[0];
          answers[id] = ServedAnswer{
              result->epoch, in.spec[id],
              rp::client::AnswerRow{a.observed, a.matched_size, a.estimate,
                                    a.cached}};
          if (a.cached) {
            spans.kernel.Record(id, 0.0);
            std::lock_guard<std::mutex> lock(mu);
            ++hits;
            ++lookups;
            return true;
          }
          rp::table::AnswerScratch scratch;
          const KernelTiming k = TimeKernels(**snap, q, scratch);
          spans.kernel.Record(id, k.postings_ns / 1e3);
          std::lock_guard<std::mutex> lock(mu);
          ++lookups;
          postings_ns.push_back(k.postings_ns);
          fused_ns.push_back(k.fused_ns);
          groups.push_back(double(k.matched_groups));
          kernels_agree = kernels_agree && k.agree &&
                          k.observed == a.observed &&
                          k.matched_size == a.matched_size;
          return true;
        }));
    if (!kernels_agree) {
      report.Fail("postings kernel, fused kernel and engine disagree");
    }
    Collect(answers, &served);
    runs.push_back(std::move(epochs));
  }

  // Publish-path spans: the traced replay's publishes against the twin's
  // uncontended timings of the same epochs, and the correctness pass.
  RECPRIV_ASSIGN_OR_RETURN(
      TwinTimings twin,
      CheckRun(in, config.workdir, runs, std::move(served), follower, report));
  SpanLog publish_span(in.publishes);
  std::vector<double> touched;
  for (size_t k = kWarmupPeriods; k < traced_epochs.size(); ++k) {
    if (!traced_epochs[k].ok) continue;
    publish_span.Record(k, traced_epochs[k].publish_ms);
    touched.push_back(traced_epochs[k].touched_ratio);
  }
  report.Layer("release_store.publish_ms", SpanMedian(publish_span), "ms");
  report.Layer("core.publish_incremental_ms", SpanMedian(twin.core_ms), "ms");
  report.Layer("store.write_ms", SpanMedian(twin.write_ms), "ms");
  report.Layer("repl.serialize_ms", SpanMedian(twin.serialize_ms), "ms");
  report.Layer("release_store.self_ms",
               MedianOr0(SelfTimes(publish_span,
                                   {&twin.core_ms, &twin.write_ms,
                                    &twin.serialize_ms})),
               "ms");
  report.Layer("core.groups_touched_ratio", MedianOr0(touched), "ratio");

  std::vector<char> in_window(n);
  for (size_t id = 0; id < n; ++id) in_window[id] = Measured(in, id) ? 1 : 0;
  ReportReadLayers(spans, in_window, report);
  report.Layer("table.postings_ns_per_query", MedianOr0(postings_ns), "ns");
  report.Layer("table.fused_ns_per_query", MedianOr0(fused_ns), "ns");
  report.Layer("table.matched_groups_per_query", MedianOr0(groups), "count");
  report.Layer("engine.cache_hit_ratio",
               lookups ? double(hits) / double(lookups) : 0.0, "ratio");
  report.Layer("loadgen.late_p99_ms", Summarize(late, 99.0).tail, "ms");
  report.Layer("loadgen.sent", double(sent), "count");
  report.Layer("loadgen.completed", double(completed), "count");
  ReportTraceOverhead(SpanMedian(spans.client), untraced_p50, report);
  return Status::OK();
}

}  // namespace

Status RunRepublishFollow(const RunConfig& config, Report& report) {
  StreamHasher hasher;
  RECPRIV_ASSIGN_OR_RETURN(Inputs in, MakeInputs(config, &hasher));
  report.Digest("request_and_op_stream", hasher.Hex());
  return config.trace ? RunTraced(config, in, report)
                      : RunUntraced(config, in, report);
}

}  // namespace recbench
