// Group-index bench: the FlatGroupIndex on the operations every scan-bound
// workload in the repo reduces to (paper §3.2, §5):
//
//   build            index construction from a table (packed-key radix
//                    sort + run-length pass)
//   scan_match       MatchingGroupsInto over a query-pool's NA predicates
//                    (one linear pass of the NA keys per query)
//   count_answer     a full count-query answer: observed O* + matched |S*|
//                    (the fused AnswerInto kernel, no match list), at the
//                    auto dispatch level and pinned to scalar / AVX2
//   posting_match    matching group ids from the inverted GroupPostingIndex
//                    (posting-list intersection)
//   serve            the serving engine's count kernel: observed O* +
//                    matched |S*| from GroupPostingIndex::AnswerInto, which
//                    sums narrow SA-major columns ("columns");
//                    build/postings_columns is the posting index plus its
//                    one-time column build
//
// Datasets are the paper's two scales, synthesized: ADULT (45,222 records)
// and CENSUS (300,000 records — the >=100k "serving-relevant" scale the
// speedup gate runs on). Both are indexed on their raw (ungeneralized)
// public attributes, the group-rich regime where scan cost matters.
//
// Results go to stdout as tables and to --out (default
// BENCH_group_index.json) as machine-readable JSON:
//
//   {
//     "schema": "bench_group_index/v1",
//     "quick": false,
//     "datasets": { "<name>": {"rows": R, "groups": G, "pool": Q} },
//     "benchmarks": { "<dataset>/<op>/<arm>":
//         {"ns_per_op": N, "throughput": T, "unit": "<ops>/s", "iters": I} },
//     "speedups": { "<dataset>/count_answer_simd": scalar_ns / avx2_ns }
//   }
//
// Scalar and AVX2 answers, and the serve kernel's answers against the
// fused kernel's, are asserted identical per pool query before any
// timing. On AVX2 hosts the binary exits non-zero unless the AVX2 kernel
// wins >=2x over scalar on count_answer at the >=100k-row scale, so CI can
// gate on it. --quick shrinks both datasets for smoke runs (the gate is
// skipped below 100k rows, but the JSON is still emitted).

#include <functional>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "datagen/adult.h"
#include "datagen/census.h"
#include "exp/reporting.h"
#include "query/count_query.h"
#include "query/query_pool.h"
#include "table/flat_group_index.h"
#include "table/simd/dispatch.h"
#include "testing_util.h"

namespace {

using namespace recpriv;  // NOLINT

struct Measurement {
  double ns_per_op = 0.0;
  double per_sec = 0.0;  ///< ops per second
  size_t iters = 0;      ///< timed repetitions of the workload
};

/// Times `fn` (a workload of `ops` logical operations): one warmup run,
/// then repeats until `min_seconds` of wall time has accumulated.
Measurement Measure(size_t ops, double min_seconds,
                    const std::function<void()>& fn) {
  fn();  // warmup: faults pages, fills allocator caches
  Measurement m;
  WallTimer timer;
  double elapsed = 0.0;
  do {
    fn();
    ++m.iters;
    elapsed = timer.Seconds();
  } while (elapsed < min_seconds);
  const double total_ops = double(m.iters) * double(ops);
  m.ns_per_op = elapsed * 1e9 / total_ops;
  m.per_sec = total_ops / elapsed;
  return m;
}

/// Best (fastest) of `rounds` Measure calls. Used for the arms the speedup
/// gate compares: on a busy or thermally-throttling host the mean drifts
/// between two runs of the *same* code by more than the gate margin, while
/// the per-round minimum converges on the code's actual cost.
Measurement MeasureBest(size_t rounds, size_t ops, double min_seconds,
                        const std::function<void()>& fn) {
  Measurement best = Measure(ops, min_seconds, fn);
  for (size_t r = 1; r < rounds; ++r) {
    const Measurement m = Measure(ops, min_seconds, fn);
    if (m.ns_per_op < best.ns_per_op) best = m;
  }
  return best;
}

struct Dataset {
  std::string name;
  table::Table table;
  std::vector<query::CountQuery> pool;
};

/// One dataset's results, keyed "<op>/<arm>".
using Results = std::map<std::string, Measurement>;

Results RunDataset(const Dataset& ds, double min_seconds) {
  Results out;

  // --- build ---------------------------------------------------------------
  out["build/flat"] = Measure(ds.table.num_rows(), min_seconds, [&] {
    auto idx = table::FlatGroupIndex::Build(ds.table);
    if (idx.num_groups() == 0) std::abort();
  });

  const table::FlatGroupIndex flat = table::FlatGroupIndex::Build(ds.table);
  const table::GroupPostingIndex postings(flat);

  // --- scan_match: matching group ids per pool predicate -------------------
  uint64_t sink = 0;
  {
    std::vector<uint32_t> matches;
    out["scan_match/flat"] = Measure(ds.pool.size(), min_seconds, [&] {
      for (const auto& q : ds.pool) {
        flat.MatchingGroupsInto(q.na_predicate, matches);
        sink += matches.size();
      }
    });
  }
  {
    std::vector<uint32_t> scratch, matches;
    out["posting_match/flat"] = Measure(ds.pool.size(), min_seconds, [&] {
      for (const auto& q : ds.pool) {
        postings.MatchingGroupsInto(q.na_predicate, scratch, matches);
        sink += matches.size();
      }
    });
  }

  // --- count_answer: observed O* + matched |S*| per pool query -------------
  out["count_answer/flat"] = Measure(ds.pool.size(), min_seconds, [&] {
    for (const auto& q : ds.pool) {
      uint64_t observed = 0, matched_size = 0;
      flat.AnswerInto(q.na_predicate, q.sa_code, &observed, &matched_size);
      sink += observed + matched_size;
    }
  });

  // --- serve: the engine's count kernel -----------------------------------
  // Identity with the fused kernel is asserted per pool query before any
  // timing; the check also builds the columns, so the timed arm measures
  // warm evaluation only (build/postings_columns prices the build).
  {
    table::AnswerScratch scratch;
    for (const auto& q : ds.pool) {
      uint64_t want_observed = 0, want_matched = 0, observed = 0, matched = 0;
      flat.AnswerInto(q.na_predicate, q.sa_code, &want_observed,
                      &want_matched);
      postings.AnswerInto(q.na_predicate, q.sa_code, scratch, &observed,
                          &matched);
      if (observed != want_observed || matched != want_matched) {
        std::cerr << "serve kernel answer mismatch on " << ds.name
                  << ": fused (" << want_observed << ", " << want_matched
                  << ") vs columns (" << observed << ", " << matched << ")\n";
        std::abort();
      }
    }
    out["serve/columns"] = Measure(ds.pool.size(), min_seconds, [&] {
      for (const auto& q : ds.pool) {
        uint64_t observed = 0, matched_size = 0;
        postings.AnswerInto(q.na_predicate, q.sa_code, scratch, &observed,
                            &matched_size);
        sink += observed + matched_size;
      }
    });
    out["build/postings_columns"] =
        Measure(ds.table.num_rows(), min_seconds, [&] {
          const table::GroupPostingIndex fresh(flat);
          sink += fresh.CountAnswer(ds.pool.front().na_predicate,
                                    ds.pool.front().sa_code, scratch);
        });
  }

  // --- count_answer under pinned kernel dispatch levels --------------------
  // The "flat" arm above runs at the as-shipped auto level; these arms pin
  // the level so the SIMD speedup is measured against the scalar kernel on
  // identical data. Bit-identity across levels is asserted per pool query
  // before anything is timed — a wrong fast kernel must fail loudly here,
  // not surface as a serving discrepancy.
  {
    const table::simd::DispatchLevel restore = table::simd::ActiveLevel();
    table::simd::SetDispatchLevel(table::simd::DispatchLevel::kScalar);
    if (table::simd::HostSupportsAvx2()) {
      for (const auto& q : ds.pool) {
        uint64_t scalar_observed = 0, scalar_matched = 0;
        flat.AnswerInto(q.na_predicate, q.sa_code, &scalar_observed,
                        &scalar_matched);
        table::simd::SetDispatchLevel(table::simd::DispatchLevel::kAvx2);
        uint64_t avx2_observed = 0, avx2_matched = 0;
        flat.AnswerInto(q.na_predicate, q.sa_code, &avx2_observed,
                        &avx2_matched);
        table::simd::SetDispatchLevel(table::simd::DispatchLevel::kScalar);
        if (avx2_observed != scalar_observed ||
            avx2_matched != scalar_matched) {
          std::cerr << "SIMD kernel answer mismatch on " << ds.name
                    << ": scalar (" << scalar_observed << ", "
                    << scalar_matched << ") vs avx2 (" << avx2_observed
                    << ", " << avx2_matched << ")\n";
          std::abort();
        }
      }
    }
    out["count_answer/flat_scalar"] =
        MeasureBest(3, ds.pool.size(), min_seconds, [&] {
          for (const auto& q : ds.pool) {
            uint64_t observed = 0, matched_size = 0;
            flat.AnswerInto(q.na_predicate, q.sa_code, &observed,
                            &matched_size);
            sink += observed + matched_size;
          }
        });
    if (table::simd::HostSupportsAvx2()) {
      table::simd::SetDispatchLevel(table::simd::DispatchLevel::kAvx2);
      out["count_answer/flat_avx2"] =
          MeasureBest(3, ds.pool.size(), min_seconds, [&] {
            for (const auto& q : ds.pool) {
              uint64_t observed = 0, matched_size = 0;
              flat.AnswerInto(q.na_predicate, q.sa_code, &observed,
                              &matched_size);
              sink += observed + matched_size;
            }
          });
    }
    table::simd::SetDispatchLevel(restore);
  }
  if (sink == uint64_t(-1)) std::abort();  // keep the loops observable

  return out;
}

Result<Dataset> MakeDataset(std::string name, table::Table table,
                            size_t pool_size, Rng& rng) {
  const table::FlatGroupIndex index = table::FlatGroupIndex::Build(table);
  query::QueryPoolConfig config;
  config.pool_size = pool_size;
  RECPRIV_ASSIGN_OR_RETURN(std::vector<query::CountQuery> pool,
                           query::GenerateQueryPool(index, config, rng));
  if (pool.empty()) return Status::Internal("empty query pool for " + name);
  return Dataset{std::move(name), std::move(table), std::move(pool)};
}

int Run(int argc, char** argv) {
  auto flags = FlagSet::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status() << "\n";
    return 2;
  }
  const bool quick = *flags->GetBool("quick", false);
  const std::string out_path =
      flags->GetString("out", "BENCH_group_index.json");
  // Long enough for stable numbers; --quick only needs the plumbing to run.
  const double min_seconds = quick ? 0.01 : 0.25;
  const size_t adult_rows = quick ? 4000 : 45222;
  const size_t census_rows = quick ? 8000 : 300000;
  const size_t pool_size = quick ? 200 : 1000;

  exp::PrintBanner(std::cout,
                   "Group index: build, match and count-answer kernels of "
                   "FlatGroupIndex",
                   quick ? "quick smoke sizes (gate skipped)"
                         : "ADULT 45k / CENSUS 300k, 1,000-query pools");

  Rng rng(recpriv::testing::HarnessSeed(20150315));
  std::vector<Dataset> datasets;
  {
    auto adult = datagen::GenerateAdult({.num_records = adult_rows}, rng);
    if (!adult.ok()) {
      std::cerr << adult.status() << "\n";
      return 1;
    }
    auto ds = MakeDataset("adult", *std::move(adult), pool_size, rng);
    if (!ds.ok()) {
      std::cerr << ds.status() << "\n";
      return 1;
    }
    datasets.push_back(*std::move(ds));
  }
  {
    auto census = datagen::GenerateCensus({.num_records = census_rows}, rng);
    if (!census.ok()) {
      std::cerr << census.status() << "\n";
      return 1;
    }
    auto ds = MakeDataset("census", *std::move(census), pool_size, rng);
    if (!ds.ok()) {
      std::cerr << ds.status() << "\n";
      return 1;
    }
    datasets.push_back(*std::move(ds));
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("bench_group_index/v1"));
  doc.Set("quick", JsonValue::Bool(quick));
  JsonValue json_datasets = JsonValue::Object();
  JsonValue json_benchmarks = JsonValue::Object();
  JsonValue json_speedups = JsonValue::Object();

  // The kernel-dispatch gate: on AVX2 hosts, the vector kernel must
  // win >=2x over the pinned scalar kernel on count_answer at >=100k rows.
  bool simd_gate_applicable = false;
  bool simd_gate_passed = false;

  for (const Dataset& ds : datasets) {
    const table::FlatGroupIndex index = table::FlatGroupIndex::Build(ds.table);
    std::cout << "\n" << ds.name << ": "
              << FormatWithCommas(int64_t(ds.table.num_rows())) << " records, "
              << FormatWithCommas(int64_t(index.num_groups())) << " groups, "
              << ds.pool.size() << "-query pool ("
              << (index.packed() ? "packed 64-bit keys" : "wide keys")
              << ")\n";
    JsonValue meta = JsonValue::Object();
    meta.Set("rows", JsonValue::Int(int64_t(ds.table.num_rows())));
    meta.Set("groups", JsonValue::Int(int64_t(index.num_groups())));
    meta.Set("pool", JsonValue::Int(int64_t(ds.pool.size())));
    json_datasets.Set(ds.name, std::move(meta));

    const Results results = RunDataset(ds, min_seconds);
    exp::AsciiTable table(
        {"benchmark", "ns/op", "throughput", "unit", "iters"});
    for (const auto& [key, m] : results) {
      const bool is_build = key.rfind("build/", 0) == 0;
      const std::string unit = is_build ? "rows/s" : "queries/s";
      table.AddRow({key, FormatWithCommas(int64_t(m.ns_per_op)),
                    FormatWithCommas(int64_t(m.per_sec)), unit,
                    std::to_string(m.iters)});
      JsonValue entry = JsonValue::Object();
      entry.Set("ns_per_op", JsonValue::Number(m.ns_per_op));
      entry.Set("throughput", JsonValue::Number(m.per_sec));
      entry.Set("unit", JsonValue::String(unit));
      entry.Set("iters", JsonValue::Int(int64_t(m.iters)));
      json_benchmarks.Set(ds.name + "/" + key, std::move(entry));
    }
    table.Print(std::cout);

    if (table::simd::HostSupportsAvx2()) {
      const double simd_speedup =
          results.at("count_answer/flat_scalar").ns_per_op /
          results.at("count_answer/flat_avx2").ns_per_op;
      json_speedups.Set(ds.name + "/count_answer_simd",
                        JsonValue::Number(simd_speedup));
      std::cout << "avx2 vs scalar kernel:  count_answer "
                << FormatDouble(simd_speedup, 2) << "x (answers identical)\n";
      if (ds.table.num_rows() >= 100000) {
        simd_gate_applicable = true;
        if (simd_speedup >= 2.0) simd_gate_passed = true;
      }
    }
  }

  doc.Set("datasets", std::move(json_datasets));
  doc.Set("benchmarks", std::move(json_benchmarks));
  doc.Set("speedups", std::move(json_speedups));
  doc.Set("simd_level",
          JsonValue::String(table::simd::LevelName(
              table::simd::ActiveLevel())));
  // Scalar/AVX2 answer identity is abort-checked per pool query before any
  // timing; reaching the report at all means it held.
  doc.Set("simd_identical", JsonValue::Bool(true));
  {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    out << doc.ToString(2) << "\n";
  }
  std::cout << "\nresults written to " << out_path << "\n";

  int exit_code = 0;
  if (simd_gate_applicable) {
    std::cout << ">=2x avx2 vs scalar on count_answer at >=100k rows: "
              << (simd_gate_passed ? "PASS" : "FAIL") << "\n";
    if (!simd_gate_passed) exit_code = 1;
  } else {
    std::cout << "simd kernel gate skipped ("
              << (table::simd::HostSupportsAvx2()
                      ? "no >=100k-row dataset at this size"
                      : "no AVX2 on this host")
              << ")\n";
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
