// The three workloads. Each generates its inputs from the seed, sets up
// its stack several times (setup_s is the median), measures for the run's
// seconds, then checks every answer it was served. With trace on, it
// instead replays its recorded request stream once per layer entry point,
// each time against a freshly built stack, and reports per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "harness.h"
#include "report.h"

namespace recbench {

struct RunConfig {
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir;  ///< scratch files of this run (snapshot dirs)
  /// analyst_tcp: p99 limit of the rate ladder (BENCHMARK.json command).
  double latency_limit_ms = 20.0;
};

recpriv::Status RunAnalystTcp(const RunConfig& config, Report& report);
recpriv::Status RunBulkBatch(const RunConfig& config, Report& report);
recpriv::Status RunRepublishFollow(const RunConfig& config, Report& report);

/// Times `setup` `times` times and returns the median seconds; `keep`
/// receives the stack built by the last call.
template <typename Stack, typename Setup>
recpriv::Status MedianSetup(int times, Setup&& setup, Stack* keep,
                            double* median_s) {
  std::vector<double> seconds;
  for (int i = 0; i < times; ++i) {
    *keep = Stack();  // tear the previous stack down before timing a new one
    const auto start = Clock::now();
    RECPRIV_ASSIGN_OR_RETURN(*keep, setup());
    seconds.push_back(MsBetween(start, Clock::now()) / 1e3);
  }
  *median_s = Median(seconds);
  return recpriv::Status::OK();
}

}  // namespace recbench
