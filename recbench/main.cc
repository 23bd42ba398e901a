// recbench: the end-to-end + per-layer benchmark of recpriv.
//
//   recbench --workload analyst_tcp|bulk_batch|republish_follow
//            --seed N --seconds S --trace 0|1 --workdir DIR
//            [--latency-limit-ms L]
//   recbench --selftest
//
// Untraced runs (--trace 0) print the BENCHMARK.json end-to-end metrics;
// traced runs (--trace 1) replay the recorded stream once per layer entry
// point and print the per-layer metrics. Exit codes: 0 clean, 1 a
// correctness failure (oracle, twin-publisher or digest mismatch; the
// result line still prints with "correct": false), 2 the run could not be
// carried out (no result line).

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>

#include "harness.h"
#include "table/simd/dispatch.h"
#include "report.h"
#include "workloads.h"

namespace {

using recbench::Report;
using recbench::RunConfig;

/// Every BENCHMARK.json per-layer metric, in print order. A workload that
/// does not cross a layer reports its work there as 0 (see the notes).
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"client.query_us", "us"},
    {"transport.self_us", "us"},
    {"wire.client_codec_us", "us"},
    {"wire.handle_us", "us"},
    {"wire.self_us", "us"},
    {"service.execute_us", "us"},
    {"service.self_us", "us"},
    {"engine.answer_us", "us"},
    {"engine.self_us", "us"},
    {"table.postings_ns_per_query", "ns"},
    {"table.fused_ns_per_query", "ns"},
    {"table.postings_ns_per_query_adult", "ns"},
    {"table.fused_ns_per_query_adult", "ns"},
    {"table.matched_groups_per_query", "count"},
    {"engine.cache_hit_ratio", "ratio"},
    {"engine.groupshard_batch_share", "ratio"},
    {"engine.groupshard_batch_share_adult", "ratio"},
    {"batcher.coalesced_ratio", "ratio"},
    {"batcher.queries_per_batch", "count"},
    {"admission.admitted", "count"},
    {"admission.rejected", "count"},
    {"server.requests", "count"},
    {"server.errors", "count"},
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.sent", "count"},
    {"loadgen.completed", "count"},
    {"release_store.publish_ms", "ms"},
    {"core.publish_incremental_ms", "ms"},
    {"store.write_ms", "ms"},
    {"repl.serialize_ms", "ms"},
    {"release_store.self_ms", "ms"},
    {"core.groups_touched_ratio", "ratio"},
    {"repl.fetch_ms", "ms"},
    {"store.open_ms", "ms"},
    {"repl.bytes_per_epoch", "bytes"},
    {"repl.reconnects", "count"},
    {"repl.digest_mismatches", "count"},
    {"store.recover_ms", "ms"},
    {"release_store.publish_bundle_ms", "ms"},
    {"repl.initial_sync_ms", "ms"},
    {"trace.outer_p50_us", "us"},
    {"trace.untraced_p50_us", "us"},
    {"trace.overhead_ratio", "ratio"},
};

const char* const kEndToEnd[] = {"setup_s", "read_p50_ms", "read_qps",
                                 "peak_rss_mb"};

int Usage(const std::string& why) {
  std::cerr << "recbench: " << why << "\n"
            << "usage: recbench --workload W --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--latency-limit-ms L]\n"
               "       recbench --selftest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string workload;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atoi(value().c_str());
    } else if (arg == "--trace") {
      config.trace = value() == "1";
    } else if (arg == "--workdir") {
      config.workdir = value();
    } else if (arg == "--latency-limit-ms") {
      config.latency_limit_ms = std::atof(value().c_str());
    } else {
      return Usage("unknown argument " + arg);
    }
  }

  const int selftest_failures = recbench::RunSelfTests();
  if (selftest) {
    std::cout << (selftest_failures == 0 ? "selftest passed" : "selftest FAILED")
              << std::endl;
    return selftest_failures == 0 ? 0 : 1;
  }
  if (selftest_failures != 0) {
    return Usage("the benchmark's own arithmetic failed its self-tests");
  }
  if (config.seconds < 1) return Usage("--seconds must be >= 1");
  if (config.workdir.empty()) return Usage("--workdir is required");
  if (config.latency_limit_ms <= 0) return Usage("bad --latency-limit-ms");

  Report report(config.trace);
  std::cout << "# recbench workload=" << workload << " seed=" << config.seed
            << " seconds=" << config.seconds
            << " trace=" << (config.trace ? 1 : 0) << std::endl;
  recpriv::Status status;
  if (workload == "analyst_tcp") {
    status = recbench::RunAnalystTcp(config, report);
  } else if (workload == "bulk_batch") {
    status = recbench::RunBulkBatch(config, report);
  } else if (workload == "republish_follow") {
    status = recbench::RunRepublishFollow(config, report);
  } else {
    return Usage("unknown --workload '" + workload + "'");
  }
  std::error_code ec;
  std::filesystem::remove_all(config.workdir, ec);
  if (!status.ok()) {
    std::cerr << "recbench: " << workload << " failed: " << status << "\n";
    return 2;
  }

  if (config.trace) {
    // Layers this workload does not cross did no work there.
    std::set<std::string> reported;
    for (const auto& [name, value] : report.layers()) reported.insert(name);
    std::string bypassed;
    for (const auto& [name, unit] : kLayerMetrics) {
      if (reported.count(name)) continue;
      report.Layer(name, 0.0, unit);
      bypassed += std::string(bypassed.empty() ? "" : " ") + name;
    }
    if (!bypassed.empty()) report.Note("not crossed (0): " + bypassed);
    report.Note(std::string("fused kernel dispatch level: ") +
                recpriv::table::simd::LevelName(
                    recpriv::table::simd::ActiveLevel()));
  } else {
    for (const char* name : kEndToEnd) {
      bool found = false;
      for (const auto& [n, v] : report.end_to_end()) {
        if (n != name) continue;
        found = true;
        if (!std::isfinite(v.value) || v.value <= 0) {
          std::cerr << "recbench: end-to-end metric " << name
                    << " was not measured (" << v.value << ")\n";
          return 2;
        }
      }
      if (!found) {
        std::cerr << "recbench: end-to-end metric " << name << " missing\n";
        return 2;
      }
    }
  }
  report.PrintResult();
  return report.correct() ? 0 : 1;
}
