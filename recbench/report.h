// What a run prints. Human-readable lines (prefixed "# ") come first:
// every metric the workload defines under its own name, traffic shares,
// stream digests and notes. The last line is the result JSON
// {"correct","attempted","failed","metrics"}, whose metrics are the
// BENCHMARK.json end-to-end metrics (untraced run) or the per-layer
// metrics (traced run).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace recbench {

class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  /// A BENCHMARK.json end-to-end metric (result JSON of untraced runs).
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  /// A BENCHMARK.json per-layer metric (result JSON of traced runs). A
  /// value that could not be measured (no samples) is reported as 0.
  void Layer(const std::string& name, double value, const std::string& unit);
  /// A metric under the workload's own name, printed with its detail.
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& detail = "");
  /// A timing distribution under the workload's own names: its median as
  /// `p50_name` and its highest supported percentile as `tail_name`, each
  /// printed with the percentile and the sample count.
  void Timing(const std::string& p50_name, const std::string& tail_name,
              const Summary& s, const std::string& unit);
  /// A measured traffic property of the workload.
  void Share(const std::string& name, double value);
  void Digest(const std::string& name, const std::string& hex);
  void Note(const std::string& text);

  /// Operations attempted / failed (queries, publishes, follower installs).
  void Count(size_t attempted, size_t failed);
  /// A correctness failure: the run reports correct=false and exits 1.
  void Fail(const std::string& what);

  bool correct() const { return failures_.empty(); }

  struct Value {
    double value;
    std::string unit;
  };
  const std::vector<std::pair<std::string, Value>>& end_to_end() const {
    return end_to_end_;
  }
  const std::vector<std::pair<std::string, Value>>& layers() const {
    return layers_;
  }

  /// Prints the failures (stderr) and the result JSON line (stdout).
  void PrintResult() const;

 private:
  void Line(const std::string& kind, const std::string& text) const;

  const bool trace_;
  std::vector<std::pair<std::string, Value>> end_to_end_;
  std::vector<std::pair<std::string, Value>> layers_;
  std::vector<std::string> failures_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

/// "p50 0.1 ms, p99 1.2 ms (n=4000)": each percentile named, count shown.
std::string FormatSummary(const Summary& s, const std::string& unit);

/// Shortest text that parses back to exactly `v`.
std::string Num(double v);

}  // namespace recbench
