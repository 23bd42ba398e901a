// Input generation and answer checking shared by the workloads. Every input
// is a pure function of the run's seed and is generated before any timed
// phase (setup included) begins.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/release.h"
#include "client/api.h"
#include "common/random.h"
#include "common/result.h"
#include "core/reconstruction_privacy.h"
#include "query/count_query.h"
#include "serve/release_store.h"
#include "table/table.h"
#include "workload/oracle.h"
#include "harness.h"

namespace recbench {

namespace rp = recpriv;

/// The paper's default privacy setting (lambda = delta = 0.3, p = 0.5).
rp::core::PrivacyParams DefaultParams(const rp::table::Table& raw);

/// One dataset as the benchmark serves it: the raw table, its SPS release
/// on raw personal groups, and the paper's §6.1 query pool over it
/// (d in {1,2,3}, selectivity >= 0.1%), both as codes and as the
/// string-level specs clients send.
struct Dataset {
  std::string name;
  rp::table::Table raw;
  rp::analysis::ReleaseBundle release;
  std::vector<rp::query::CountQuery> pool;
  std::vector<rp::client::QuerySpec> specs;
};

enum class Source { kCensus, kAdult };

/// Generates the raw table (CENSUS or ADULT), its SPS release and a pool
/// of `pool_size` queries, all from `rng`.
rp::Result<Dataset> MakeDataset(Source source, const std::string& name,
                                size_t rows, size_t pool_size, rp::Rng& rng);

/// The string-level spec of a code-level query, named by `schema`.
rp::client::QuerySpec ToSpec(const rp::query::CountQuery& q,
                             const rp::table::Schema& schema);

/// A spec bound to codes against `schema` (what the service layer does).
rp::Result<rp::query::CountQuery> Bind(const rp::client::QuerySpec& spec,
                                       const rp::table::Schema& schema);

/// Incremental XXH64 over a canonical byte rendering of a generated
/// stream, so two runs on one seed can be shown to replay the same traffic.
class StreamHasher {
 public:
  void Add(uint64_t v);
  void Add(double v);
  void Add(const std::string& s);
  void Add(const rp::client::QuerySpec& spec);
  std::string Hex() const;

 private:
  std::string bytes_;
};

/// Peak resident set of this process so far, in MB (getrusage).
double PeakRssMb();

/// One answer as served, to be checked after the timed window.
struct ServedAnswer {
  uint64_t epoch = 0;
  uint32_t spec = 0;  ///< index into the workload's spec table
  rp::client::AnswerRow row;
};

/// Bit-exact equality of the answer fields (the cache flag is ignored).
bool SameAnswer(const rp::client::AnswerRow& a, const rp::client::AnswerRow& b);

/// Result of checking served answers.
struct CheckResult {
  size_t checked = 0;       ///< answers compared
  size_t recomputed = 0;    ///< distinct (epoch, spec) recomputed by the oracle
  size_t mismatches = 0;
  std::string first_detail;
};

/// Checks every served answer bit-exactly. Each distinct (epoch, spec) is
/// recomputed once by `oracle` (workload::Oracle over the registered
/// snapshot); every other answer with the same key must equal that
/// verified answer bit for bit. Runs on `threads` threads, untimed.
CheckResult CheckAnswers(const rp::workload::Oracle& oracle,
                         const std::string& release,
                         const std::vector<rp::client::QuerySpec>& specs,
                         const std::vector<ServedAnswer>& served,
                         size_t threads = 4);

/// Poisson arrivals at `rate_per_s` over [0, duration_s), dealt round-robin
/// to `connections` load threads.
std::vector<Scheduled> PoissonStream(double rate_per_s, double duration_s,
                                     int connections, recpriv::Rng& rng);

/// Zipf(s) popularity over `n` items with a seeded rank permutation:
/// returns a sampler of item indices.
class ZipfPicker {
 public:
  ZipfPicker(size_t n, double s, recpriv::Rng& rng);
  uint32_t Pick(recpriv::Rng& rng) const;

 private:
  std::vector<uint32_t> item_of_rank_;
  recpriv::AliasSampler ranks_;
};

/// A unique scratch directory under `base`, created empty.
rp::Result<std::string> FreshDir(const std::string& base,
                                 const std::string& name);

}  // namespace recbench
