#include "inputs.h"

#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <unordered_map>
#include <mutex>
#include <numeric>
#include <thread>

#include "core/sps.h"
#include "datagen/adult.h"
#include "datagen/census.h"
#include "query/query_pool.h"
#include "repl/digest.h"
#include "table/flat_group_index.h"

namespace recbench {

using rp::Result;
using rp::Status;
using rp::client::QuerySpec;
using rp::query::CountQuery;

rp::core::PrivacyParams DefaultParams(const rp::table::Table& raw) {
  rp::core::PrivacyParams params;
  params.lambda = 0.3;
  params.delta = 0.3;
  params.retention_p = 0.5;
  params.domain_m = raw.schema()->sa_domain_size();
  return params;
}

QuerySpec ToSpec(const CountQuery& q, const rp::table::Schema& schema) {
  QuerySpec spec;
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    if (schema.is_sensitive(a) || !q.na_predicate.is_bound(a)) continue;
    const rp::table::Attribute& attr = schema.attribute(a);
    spec.where.emplace_back(attr.name, attr.domain.value(q.na_predicate.code(a)));
  }
  spec.sa = schema.sensitive().domain.value(q.sa_code);
  return spec;
}

Result<CountQuery> Bind(const QuerySpec& spec, const rp::table::Schema& schema) {
  CountQuery q(schema.num_attributes());
  RECPRIV_ASSIGN_OR_RETURN(q.na_predicate,
                           rp::table::Predicate::FromBindings(schema, spec.where));
  q.dimensionality = q.na_predicate.num_bound();
  RECPRIV_ASSIGN_OR_RETURN(q.sa_code,
                           schema.sensitive().domain.GetCode(spec.sa));
  return q;
}

Result<Dataset> MakeDataset(Source source, const std::string& name,
                            size_t rows, size_t pool_size, rp::Rng& rng) {
  rp::Rng data_rng = rng.Fork();
  rp::Rng sps_rng = rng.Fork();
  rp::Rng pool_rng = rng.Fork();
  Result<rp::table::Table> generated =
      source == Source::kCensus
          ? rp::datagen::GenerateCensus({.num_records = rows}, data_rng)
          : rp::datagen::GenerateAdult({.num_records = rows}, data_rng);
  RECPRIV_ASSIGN_OR_RETURN(rp::table::Table raw, std::move(generated));
  const rp::core::PrivacyParams params = DefaultParams(raw);
  RECPRIV_ASSIGN_OR_RETURN(rp::core::SpsTableResult sps,
                           rp::core::SpsPerturbTable(params, raw, sps_rng));
  std::string sensitive = sps.table.schema()->sensitive().name;

  const rp::table::FlatGroupIndex raw_index =
      rp::table::FlatGroupIndex::Build(raw);
  rp::query::QueryPoolConfig config;
  config.pool_size = pool_size;
  RECPRIV_ASSIGN_OR_RETURN(
      std::vector<CountQuery> pool,
      rp::query::GenerateQueryPool(raw_index, config, pool_rng));
  if (pool.size() != pool_size) {
    return Status::Internal("query pool came up short: " +
                            std::to_string(pool.size()));
  }
  std::vector<QuerySpec> specs;
  specs.reserve(pool.size());
  for (const CountQuery& q : pool) specs.push_back(ToSpec(q, *raw.schema()));
  return Dataset{name, std::move(raw),
                 rp::analysis::ReleaseBundle{std::move(sps.table), params,
                                             std::move(sensitive), {}},
                 std::move(pool), std::move(specs)};
}

void StreamHasher::Add(uint64_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  bytes_.append(buf, sizeof buf);
}

void StreamHasher::Add(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  Add(bits);
}

void StreamHasher::Add(const std::string& s) {
  Add(static_cast<uint64_t>(s.size()));
  bytes_ += s;
}

void StreamHasher::Add(const QuerySpec& spec) {
  Add(static_cast<uint64_t>(spec.where.size()));
  for (const auto& [attr, value] : spec.where) {
    Add(attr);
    Add(value);
  }
  Add(spec.sa);
}

std::string StreamHasher::Hex() const {
  return rp::repl::FormatDigest(rp::repl::BytesDigest(
      reinterpret_cast<const uint8_t*>(bytes_.data()), bytes_.size()));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

bool SameAnswer(const rp::client::AnswerRow& a,
                const rp::client::AnswerRow& b) {
  return a.observed == b.observed && a.matched_size == b.matched_size &&
         std::memcmp(&a.estimate, &b.estimate, sizeof a.estimate) == 0;
}

CheckResult CheckAnswers(const rp::workload::Oracle& oracle,
                         const std::string& release,
                         const std::vector<QuerySpec>& specs,
                         const std::vector<ServedAnswer>& served,
                         size_t threads) {
  // First occurrence of each (epoch, spec): the one the oracle recomputes.
  auto key_of = [](const ServedAnswer& s) { return (s.epoch << 32) | s.spec; };
  std::unordered_map<uint64_t, size_t> first;
  for (size_t i = 0; i < served.size(); ++i) {
    first.emplace(key_of(served[i]), i);
  }
  std::vector<size_t> keys;
  keys.reserve(first.size());
  for (const auto& [key, index] : first) keys.push_back(index);

  std::vector<char> verified(served.size(), 0);
  std::atomic<size_t> next{0};
  std::atomic<size_t> mismatches{0};
  std::mutex detail_mu;
  std::string detail;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < std::max<size_t>(threads, 1); ++t) {
    workers.emplace_back([&] {
      for (size_t k = next++; k < keys.size(); k = next++) {
        const ServedAnswer& s = served[keys[k]];
        rp::client::BatchAnswer answer;
        answer.release = release;
        answer.epoch = s.epoch;
        answer.answers.push_back(s.row);
        std::string why;
        const auto verdict =
            oracle.Verify(release, {specs[s.spec]}, answer, &why);
        if (verdict == rp::workload::Oracle::Verdict::kVerified) {
          verified[keys[k]] = 1;
          continue;
        }
        ++mismatches;
        std::lock_guard<std::mutex> lock(detail_mu);
        if (detail.empty()) {
          detail = verdict == rp::workload::Oracle::Verdict::kUnknownEpoch
                       ? "answer from unregistered epoch " +
                             std::to_string(s.epoch)
                       : why;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  CheckResult result;
  result.recomputed = keys.size();
  result.mismatches = mismatches.load();
  result.first_detail = detail;
  for (const ServedAnswer& s : served) {
    const size_t ref = first.at(key_of(s));
    ++result.checked;
    if (!verified[ref]) continue;  // already counted as a mismatch
    if (!SameAnswer(s.row, served[ref].row)) {
      ++result.mismatches;
      if (result.first_detail.empty()) {
        result.first_detail = "answer to spec " + std::to_string(s.spec) +
                              " @epoch " + std::to_string(s.epoch) +
                              " differs from the verified answer";
      }
    }
  }
  return result;
}

std::vector<Scheduled> PoissonStream(double rate_per_s, double duration_s,
                                     int connections, rp::Rng& rng) {
  std::vector<Scheduled> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / rate_per_s;
    if (t >= duration_s) break;
    const uint64_t id = out.size();
    out.push_back(Scheduled{id, t, static_cast<int>(id % connections)});
  }
  return out;
}

namespace {

std::vector<double> ZipfWeights(size_t n, double s) {
  std::vector<double> w(n);
  for (size_t r = 0; r < n; ++r) w[r] = 1.0 / std::pow(double(r + 1), s);
  return w;
}

}  // namespace

ZipfPicker::ZipfPicker(size_t n, double s, rp::Rng& rng)
    : item_of_rank_(n), ranks_(ZipfWeights(n, s)) {
  std::iota(item_of_rank_.begin(), item_of_rank_.end(), 0u);
  rp::Shuffle(rng, item_of_rank_);
}

uint32_t ZipfPicker::Pick(rp::Rng& rng) const {
  return item_of_rank_[ranks_.Sample(rng)];
}

Result<std::string> FreshDir(const std::string& base, const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(base) / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create " + dir.string() + ": " +
                           ec.message());
  }
  return dir.string();
}

}  // namespace recbench
