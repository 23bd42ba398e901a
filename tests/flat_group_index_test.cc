// FlatGroupIndex tests: layout invariants, the packed/wide key paths, and a
// randomized property suite asserting the index agrees with a naive
// map-based grouping on groups, SA histograms, MatchingGroups, FindGroup,
// and CountAnswer across schemas — including domains too wide for the
// packed-key fast path. Also checks the posting-list index's count kernel
// (narrow SA-major columns) against the scalar fused kernel, at the column
// width boundaries and under a race to build the columns, and checks the
// seeded row order against the per-attribute comparator sort. Hand-checked
// groups of a small table live in group_index_test.cc.

#include "table/flat_group_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "table/simd/dispatch.h"

namespace recpriv::table {
namespace {

using recpriv::Rng;

SchemaPtr MakeSchema(const std::vector<size_t>& public_domains,
                     size_t sa_domain) {
  std::vector<Attribute> attrs;
  for (size_t a = 0; a < public_domains.size(); ++a) {
    Dictionary d;
    for (size_t v = 0; v < public_domains[a]; ++v) {
      d.GetOrAdd("a" + std::to_string(a) + "v" + std::to_string(v));
    }
    attrs.push_back(Attribute{"A" + std::to_string(a), std::move(d)});
  }
  Dictionary sa;
  for (size_t v = 0; v < sa_domain; ++v) sa.GetOrAdd("s" + std::to_string(v));
  attrs.push_back(Attribute{"SA", std::move(sa)});
  const size_t sa_index = attrs.size() - 1;
  return std::make_shared<Schema>(*Schema::Make(std::move(attrs), sa_index));
}

Table RandomTable(const SchemaPtr& schema, size_t rows, Rng& rng) {
  Table t(schema);
  std::vector<uint32_t> codes(schema->num_attributes());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < schema->num_attributes(); ++a) {
      codes[a] = uint32_t(rng.NextUint64(schema->attribute(a).domain.size()));
    }
    t.AppendRowUnchecked(codes);
  }
  return t;
}

/// Reference personal groups of `t`, computed naively: an ordered map from
/// NA key (public-index order) to the group's rows and SA histogram. The map
/// orders keys lexicographically, which is the index's group order.
struct RefGroup {
  std::vector<uint32_t> rows;
  std::vector<uint64_t> sa_counts;
};
std::map<std::vector<uint32_t>, RefGroup> ReferenceGroups(const Table& t) {
  std::map<std::vector<uint32_t>, RefGroup> groups;
  const auto pub = t.schema()->public_indices();
  const size_t sa_col = t.schema()->sensitive_index();
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::vector<uint32_t> key;
    for (size_t attr : pub) key.push_back(t.at(r, attr));
    RefGroup& g = groups[key];
    g.sa_counts.resize(t.schema()->sa_domain_size(), 0);
    g.rows.push_back(uint32_t(r));
    ++g.sa_counts[t.at(r, sa_col)];
  }
  return groups;
}

/// Full agreement check between the index and the reference groups.
void ExpectAgreement(const Table& t, FlatGroupIndex::KeyMode mode,
                     Rng& rng) {
  const auto ref = ReferenceGroups(t);
  std::vector<std::vector<uint32_t>> ref_keys;
  std::vector<const RefGroup*> ref_groups;
  for (const auto& [key, g] : ref) {
    ref_keys.push_back(key);
    ref_groups.push_back(&g);
  }
  const FlatGroupIndex flat = FlatGroupIndex::Build(t, mode);

  ASSERT_EQ(flat.num_groups(), ref.size());
  ASSERT_EQ(flat.num_records(), t.num_rows());
  EXPECT_DOUBLE_EQ(flat.AverageGroupSize(),
                   ref.empty() ? 0.0 : double(t.num_rows()) / ref.size());

  for (size_t gi = 0; gi < ref_keys.size(); ++gi) {
    const RefGroup& g = *ref_groups[gi];
    // Same group order (NA-lexicographic), same keys, same histograms.
    ASSERT_EQ(std::vector<uint32_t>(flat.na_codes(gi).begin(),
                                    flat.na_codes(gi).end()),
              ref_keys[gi])
        << "group " << gi;
    EXPECT_EQ(std::vector<uint64_t>(flat.sa_counts(gi).begin(),
                                    flat.sa_counts(gi).end()),
              g.sa_counts);
    EXPECT_EQ(flat.group_size(gi), g.rows.size());
    uint64_t max_count = 0;
    for (const uint64_t c : g.sa_counts) max_count = std::max(max_count, c);
    EXPECT_DOUBLE_EQ(flat.MaxFrequency(gi),
                     double(max_count) / double(g.rows.size()));
    // Same rows, ascending (the reference collects them in table order).
    EXPECT_EQ(std::vector<uint32_t>(flat.rows(gi).begin(),
                                    flat.rows(gi).end()),
              g.rows);

    // FindGroup locates every group by its own key.
    auto found = flat.FindGroup(flat.na_codes(gi));
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(*found, gi);
  }

  // Random predicates (wildcards, bound values, out-of-domain codes):
  // MatchingGroups, CountAnswer and AnswerInto must agree with a linear
  // scan of the reference groups.
  const auto& pub = flat.public_indices();
  const size_t n_attr = t.schema()->num_attributes();
  const size_t m = t.schema()->sa_domain_size();
  for (int trial = 0; trial < 40; ++trial) {
    Predicate pred(n_attr);
    for (size_t attr : pub) {
      const size_t dom = t.schema()->attribute(attr).domain.size();
      switch (rng.NextUint64(4)) {
        case 0:  // wildcard
          break;
        case 1:  // out-of-domain code: matches nothing on this attribute
          pred.Bind(attr, uint32_t(dom + rng.NextUint64(1000)));
          break;
        default:
          pred.Bind(attr, uint32_t(rng.NextUint64(dom)));
      }
    }
    std::vector<uint32_t> slow;
    for (size_t gi = 0; gi < ref_keys.size(); ++gi) {
      bool match = true;
      for (size_t k = 0; k < pub.size(); ++k) {
        if (pred.is_bound(pub[k]) && pred.code(pub[k]) != ref_keys[gi][k]) {
          match = false;
        }
      }
      if (match) slow.push_back(uint32_t(gi));
    }
    ASSERT_EQ(flat.MatchingGroups(pred), slow) << pred.ToString(*t.schema());

    const uint32_t sa = uint32_t(rng.NextUint64(m));
    uint64_t slow_obs = 0, slow_size = 0;
    for (uint32_t gi : slow) {
      slow_obs += ref_groups[gi]->sa_counts[sa];
      slow_size += ref_groups[gi]->rows.size();
    }
    EXPECT_EQ(flat.CountAnswer(pred, sa), slow_obs);
    uint64_t obs = 0, size = 0;
    flat.AnswerInto(pred, sa, &obs, &size);
    EXPECT_EQ(obs, slow_obs);
    EXPECT_EQ(size, slow_size);
  }

  // Missing keys are NotFound.
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint32_t> key;
    for (size_t attr : pub) {
      key.push_back(uint32_t(
          rng.NextUint64(t.schema()->attribute(attr).domain.size() + 3)));
    }
    const auto it = ref.find(key);
    const auto flat_found = flat.FindGroup(key);
    EXPECT_EQ(flat_found.ok(), it != ref.end());
    if (it != ref.end()) {
      EXPECT_EQ(*flat_found, size_t(std::distance(ref.begin(), it)));
    }
  }
}

TEST(FlatGroupIndexTest, AgreesWithReferenceAcrossRandomSchemas) {
  Rng rng(20150407);
  for (int round = 0; round < 12; ++round) {
    const size_t n_pub = 1 + rng.NextUint64(4);
    std::vector<size_t> domains;
    for (size_t a = 0; a < n_pub; ++a) {
      domains.push_back(1 + rng.NextUint64(6));
    }
    const size_t m = 2 + rng.NextUint64(5);
    SchemaPtr schema = MakeSchema(domains, m);
    Table t = RandomTable(schema, rng.NextUint64(400), rng);
    {
      SCOPED_TRACE("round " + std::to_string(round) + " auto");
      const FlatGroupIndex flat = FlatGroupIndex::Build(t);
      EXPECT_TRUE(flat.packed());  // narrow domains: fast path expected
      ExpectAgreement(t, FlatGroupIndex::KeyMode::kAuto, rng);
    }
    {
      // The wide fallback must agree on the same narrow data.
      SCOPED_TRACE("round " + std::to_string(round) + " forced-wide");
      const FlatGroupIndex wide =
          FlatGroupIndex::Build(t, FlatGroupIndex::KeyMode::kForceWide);
      EXPECT_FALSE(wide.packed());
      ExpectAgreement(t, FlatGroupIndex::KeyMode::kForceWide, rng);
    }
  }
}

TEST(FlatGroupIndexTest, WideDomainsFallBackAndAgree) {
  // 9 public attributes x 8 bits (129-value domains) = 72 key bits: the
  // packed path cannot hold the key, Build must choose the wide layout and
  // still agree with the reference grouping.
  Rng rng(77);
  std::vector<size_t> domains(9, 129);
  SchemaPtr schema = MakeSchema(domains, 3);
  Table t = RandomTable(schema, 600, rng);
  const FlatGroupIndex flat = FlatGroupIndex::Build(t);
  EXPECT_FALSE(flat.packed());
  ExpectAgreement(t, FlatGroupIndex::KeyMode::kAuto, rng);
}

TEST(FlatGroupIndexTest, SixtyFourBitKeyStillPacks) {
  // 4 x 65536-value domains = exactly 64 bits: boundary of the fast path.
  Rng rng(99);
  std::vector<size_t> domains(4, 65536);
  SchemaPtr schema = MakeSchema(domains, 2);
  Table t = RandomTable(schema, 300, rng);
  const FlatGroupIndex flat = FlatGroupIndex::Build(t);
  EXPECT_TRUE(flat.packed());
  ExpectAgreement(t, FlatGroupIndex::KeyMode::kAuto, rng);
}

TEST(FlatGroupIndexTest, EmptyTable) {
  SchemaPtr schema = MakeSchema({2, 3}, 2);
  Table t(schema);
  const FlatGroupIndex flat = FlatGroupIndex::Build(t);
  EXPECT_EQ(flat.num_groups(), 0u);
  EXPECT_EQ(flat.AverageGroupSize(), 0.0);
  EXPECT_FALSE(flat.FindGroup(std::vector<uint32_t>{0, 0}).ok());
  Predicate all(3);
  EXPECT_TRUE(flat.MatchingGroups(all).empty());
  EXPECT_EQ(flat.CountAnswer(all, 0), 0u);
}

TEST(FlatGroupIndexTest, NoPublicAttributes) {
  // A schema that is all-SA has one personal group holding every record.
  SchemaPtr schema = MakeSchema({}, 3);
  Rng rng(5);
  Table t = RandomTable(schema, 50, rng);
  const FlatGroupIndex flat = FlatGroupIndex::Build(t);
  ASSERT_EQ(flat.num_groups(), 1u);
  EXPECT_EQ(flat.group_size(0), 50u);
  uint64_t total = 0;
  for (uint64_t c : flat.sa_counts(0)) total += c;
  EXPECT_EQ(total, 50u);
  auto found = flat.FindGroup(std::span<const uint32_t>{});
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, 0u);
  Predicate all(1);
  EXPECT_EQ(flat.MatchingGroups(all).size(), 1u);
}

TEST(FlatGroupIndexTest, RowsAreAscendingWithinGroups) {
  // Both key paths are stable sorts, so CSR row slices come out ascending —
  // a locality guarantee scan consumers may rely on.
  Rng rng(123);
  SchemaPtr schema = MakeSchema({3, 3}, 2);
  Table t = RandomTable(schema, 500, rng);
  for (auto mode : {FlatGroupIndex::KeyMode::kAuto,
                    FlatGroupIndex::KeyMode::kForceWide}) {
    const FlatGroupIndex flat = FlatGroupIndex::Build(t, mode);
    for (size_t gi = 0; gi < flat.num_groups(); ++gi) {
      const auto rows = flat.rows(gi);
      EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
    }
  }
}

/// Pins kernel dispatch to the scalar reference for one scope.
class ScopedScalarDispatch {
 public:
  ScopedScalarDispatch() : restore_(simd::ActiveLevel()) {
    simd::SetDispatchLevel(simd::DispatchLevel::kScalar);
  }
  ~ScopedScalarDispatch() { simd::SetDispatchLevel(restore_); }

 private:
  simd::DispatchLevel restore_;
};

/// A predicate binding exactly `num_bound` distinct public attributes
/// (capped at the number there are); each bound code is out of its domain
/// with probability 1/5.
Predicate RandomPredicate(const Schema& schema, size_t num_bound, Rng& rng) {
  std::vector<size_t> pub = schema.public_indices();
  Predicate pred(schema.num_attributes());
  for (size_t i = 0; i < num_bound && !pub.empty(); ++i) {
    const size_t pick = rng.NextUint64(pub.size());
    const size_t attr = pub[pick];
    pub.erase(pub.begin() + pick);
    const size_t dom = schema.attribute(attr).domain.size();
    pred.Bind(attr, rng.NextUint64(5) == 0
                        ? uint32_t(dom + rng.NextUint64(3))
                        : uint32_t(rng.NextUint64(dom)));
  }
  return pred;
}

/// GroupPostingIndex::AnswerInto must equal the scalar fused kernel on
/// unbound, one-bound and multi-bound predicates for every SA value.
void ExpectPostingAnswersMatchScalar(const FlatGroupIndex& flat, Rng& rng) {
  const ScopedScalarDispatch scalar;
  const GroupPostingIndex postings(flat);
  const Schema& schema = *flat.schema();
  AnswerScratch scratch;
  for (int trial = 0; trial < 60; ++trial) {
    const size_t num_bound = trial % 4 == 0 ? 0
                             : trial % 4 == 1
                                 ? 1
                                 : 2 + rng.NextUint64(flat.num_public() + 1);
    const Predicate pred = RandomPredicate(schema, num_bound, rng);
    for (uint32_t sa = 0; sa < flat.sa_domain(); ++sa) {
      uint64_t want_obs = 0, want_size = 0, obs = 1, size = 1;
      flat.AnswerInto(pred, sa, &want_obs, &want_size);
      postings.AnswerInto(pred, sa, scratch, &obs, &size);
      ASSERT_EQ(obs, want_obs) << pred.ToString(schema) << " sa " << sa;
      ASSERT_EQ(size, want_size) << pred.ToString(schema) << " sa " << sa;
      EXPECT_EQ(postings.CountAnswer(pred, sa), want_obs);
    }
  }
}

TEST(GroupPostingIndexTest, AnswerIntoMatchesScalarKernelPackedAndWide) {
  Rng rng(20151013);
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const size_t n_pub = 1 + rng.NextUint64(4);
    std::vector<size_t> domains;
    for (size_t a = 0; a < n_pub; ++a) domains.push_back(1 + rng.NextUint64(6));
    const SchemaPtr schema = MakeSchema(domains, 2 + rng.NextUint64(5));
    const Table t = RandomTable(schema, rng.NextUint64(2000), rng);
    for (auto mode : {FlatGroupIndex::KeyMode::kAuto,
                      FlatGroupIndex::KeyMode::kForceWide}) {
      const FlatGroupIndex flat = FlatGroupIndex::Build(t, mode);
      ExpectPostingAnswersMatchScalar(flat, rng);
    }
  }
  // 9 x 8 key bits: a schema whose keys cannot pack.
  const SchemaPtr wide = MakeSchema(std::vector<size_t>(9, 129), 3);
  const Table t = RandomTable(wide, 3000, rng);
  const FlatGroupIndex flat = FlatGroupIndex::Build(t);
  ASSERT_FALSE(flat.packed());
  ExpectPostingAnswersMatchScalar(flat, rng);
}

TEST(GroupPostingIndexTest, ColumnWidthBoundaries) {
  // Each SA column's maximum sits on one side of an 8- or 16-bit boundary
  // (255 / 256 / 65535 / 65536) beside small counts, so a column narrowed
  // one width too far would lose its maximum from the sums.
  const SchemaPtr schema = MakeSchema({4}, 4);
  const std::vector<uint32_t> keys = {0, 1, 2, 3};
  const std::vector<uint64_t> counts = {
      255, 3,   65535, 7,      //
      1,   256, 2,     65536,  //
      0,   9,   65534, 1,      //
      254, 0,   1,     2,
  };
  const FlatGroupIndex::GroupRun base{keys, counts, 4};
  const FlatGroupIndex::GroupRun none{{}, {}, 0};
  auto merged = FlatGroupIndex::MergeRuns(schema, base, none);
  ASSERT_TRUE(merged.ok()) << merged.status();
  const FlatGroupIndex& flat = *merged;
  const GroupPostingIndex postings(flat);
  AnswerScratch scratch;
  const std::vector<uint64_t> totals = {510, 268, 131072, 65546};
  for (uint32_t sa = 0; sa < 4; ++sa) {
    uint64_t obs = 0, size = 0;
    postings.AnswerInto(Predicate(2), sa, scratch, &obs, &size);
    EXPECT_EQ(obs, totals[sa]) << "sa " << sa;
    EXPECT_EQ(size, flat.num_records());
    for (uint32_t g = 0; g < 4; ++g) {
      Predicate pred(2);
      pred.Bind(0, g);
      postings.AnswerInto(pred, sa, scratch, &obs, &size);
      EXPECT_EQ(obs, counts[g * 4 + sa]) << "group " << g << " sa " << sa;
      EXPECT_EQ(size, flat.group_size(g));
    }
  }
  Rng rng(65536);
  ExpectPostingAnswersMatchScalar(flat, rng);
}

TEST(GroupPostingIndexTest, RacingFirstEvaluationsAgree) {
  // The columns are built by whichever thread evaluates first; eight
  // threads released together onto a fresh index must all see them whole.
  Rng rng(8);
  const SchemaPtr schema = MakeSchema({5, 4, 3}, 6);
  const Table t = RandomTable(schema, 20000, rng);
  const FlatGroupIndex flat = FlatGroupIndex::Build(t);
  std::vector<Predicate> preds;
  std::vector<uint32_t> sas;
  std::vector<uint64_t> want;
  {
    const ScopedScalarDispatch scalar;
    for (int q = 0; q < 64; ++q) {
      preds.push_back(RandomPredicate(*schema, q % 4, rng));
      sas.push_back(uint32_t(rng.NextUint64(6)));
      uint64_t obs = 0, size = 0;
      flat.AnswerInto(preds.back(), sas.back(), &obs, &size);
      want.push_back(obs);
      want.push_back(size);
    }
  }
  constexpr int kThreads = 8;
  for (int round = 0; round < 10; ++round) {
    const GroupPostingIndex postings(flat);
    std::atomic<int> ready{0};
    std::vector<std::vector<uint64_t>> got(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        AnswerScratch scratch;
        got[i].resize(want.size());
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        // Each thread starts at a different query.
        for (size_t k = 0; k < preds.size(); ++k) {
          const size_t q = (k + size_t(i) * 8) % preds.size();
          uint64_t obs = 0, size = 0;
          postings.AnswerInto(preds[q], sas[q], scratch, &obs, &size);
          got[i][2 * q] = obs;
          got[i][2 * q + 1] = size;
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (int i = 0; i < kThreads; ++i) {
      EXPECT_EQ(got[i], want) << "round " << round << " thread " << i;
    }
  }
}

TEST(SeededRowOrderTest, SlicesAreTheIndexGroups) {
  // Consecutive group_size(g) slices of the seeded order hold exactly the
  // members of group g, for both key layouts.
  Rng rng(404);
  SchemaPtr schema = MakeSchema({3, 4, 2}, 3);
  const Table t = RandomTable(schema, 5000, rng);
  const std::vector<uint32_t> order = SeededRowOrder(t);
  ASSERT_EQ(order.size(), t.num_rows());
  EXPECT_EQ(SeededRowOrder(t), order);  // deterministic
  for (auto mode : {FlatGroupIndex::KeyMode::kAuto,
                    FlatGroupIndex::KeyMode::kForceWide}) {
    const FlatGroupIndex flat = FlatGroupIndex::Build(t, mode);
    size_t begin = 0;
    for (size_t g = 0; g < flat.num_groups(); ++g) {
      std::vector<uint32_t> slice(order.begin() + begin,
                                  order.begin() + begin + flat.group_size(g));
      begin += flat.group_size(g);
      std::sort(slice.begin(), slice.end());
      EXPECT_EQ(slice, std::vector<uint32_t>(flat.rows(g).begin(),
                                             flat.rows(g).end()))
          << "group " << g;
    }
    EXPECT_EQ(begin, order.size());
  }
}

/// The seeded order as first written: std::sort over row ids comparing the
/// table's public codes attribute by attribute. Seeded releases are drawn
/// in this exact permutation, within-group order included.
std::vector<uint32_t> ReferenceSeededOrder(const Table& t) {
  std::vector<uint32_t> order(t.num_rows());
  std::iota(order.begin(), order.end(), 0u);
  const std::vector<size_t> pub = t.schema()->public_indices();
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t attr : pub) {
      const uint32_t va = t.at(a, attr);
      const uint32_t vb = t.at(b, attr);
      if (va != vb) return va < vb;
    }
    return false;
  });
  return order;
}

/// A table over `public_domains` whose public codes are drawn from only the
/// first `used` values of each domain, so groups are large and the order
/// within them matters.
Table CrowdedTable(const std::vector<size_t>& public_domains, uint32_t used,
                   size_t rows, Rng& rng) {
  const SchemaPtr schema = MakeSchema(public_domains, 3);
  Table t(schema);
  std::vector<uint32_t> codes(schema->num_attributes());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < public_domains.size(); ++a) {
      codes[a] = uint32_t(rng.NextUint64(used));
    }
    codes.back() = uint32_t(rng.NextUint64(3));
    t.AppendRowUnchecked(codes);
  }
  return t;
}

TEST(SeededRowOrderTest, MatchesPerAttributeComparatorSort) {
  Rng rng(2015);
  {
    SCOPED_TRACE("keys that pack");
    const Table t = CrowdedTable({3, 4, 2}, 2, 5000, rng);
    ASSERT_TRUE(FlatGroupIndex::Build(t).packed());
    EXPECT_EQ(SeededRowOrder(t), ReferenceSeededOrder(t));
  }
  {
    SCOPED_TRACE("keys over 64 bits");
    const Table t = CrowdedTable(std::vector<size_t>(9, 129), 2, 5000, rng);
    ASSERT_FALSE(FlatGroupIndex::Build(t).packed());
    EXPECT_EQ(SeededRowOrder(t), ReferenceSeededOrder(t));
  }
  {
    SCOPED_TRACE("codes outside their domains");
    Table t = CrowdedTable({3, 4, 2}, 2, 5000, rng);
    const std::vector<uint32_t> odd = {3, 4, 7, 255, 65536, UINT32_MAX};
    for (size_t attr : t.schema()->public_indices()) {
      std::vector<uint32_t>& col = t.mutable_column(attr);
      for (size_t r = 0; r < col.size(); r += 7) {
        col[r] = odd[rng.NextUint64(odd.size())];
      }
    }
    EXPECT_EQ(SeededRowOrder(t), ReferenceSeededOrder(t));
  }
}

}  // namespace
}  // namespace recpriv::table
