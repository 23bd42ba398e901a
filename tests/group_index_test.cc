// Personal-group index tests on a small hand-checked table: the groups, their
// SA histograms and rows, wildcard matching, FindGroup on near-miss keys, the
// absence of empty groups, and the posting-list index against a linear scan.
// The randomized and layout tests are in flat_group_index_test.cc.

#include "table/flat_group_index.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <vector>

namespace recpriv::table {
namespace {

SchemaPtr MakeHandSchema() {
  std::vector<Attribute> attrs;
  attrs.push_back(
      Attribute{"Gender", *Dictionary::FromValues({"male", "female"})});
  attrs.push_back(
      Attribute{"Job", *Dictionary::FromValues({"eng", "law"})});
  attrs.push_back(
      Attribute{"Disease", *Dictionary::FromValues({"flu", "hiv", "bc"})});
  return std::make_shared<Schema>(*Schema::Make(std::move(attrs), 2));
}

Table MakeHandTable() {
  Table t(MakeHandSchema());
  // (male, eng): flu, flu, hiv    (male, law): bc
  // (female, eng): hiv, hiv       (female, law): flu, bc
  const uint32_t rows[][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 1}, {0, 1, 2},
                              {1, 0, 1}, {1, 0, 1}, {1, 1, 0}, {1, 1, 2}};
  for (const auto& r : rows) {
    EXPECT_TRUE(t.AppendRow(std::vector<uint32_t>{r[0], r[1], r[2]}).ok());
  }
  return t;
}

std::vector<uint32_t> Key(std::initializer_list<uint32_t> codes) {
  return std::vector<uint32_t>(codes);
}

TEST(GroupIndexTest, BuildsAllPersonalGroups) {
  const FlatGroupIndex idx = FlatGroupIndex::Build(MakeHandTable());
  EXPECT_EQ(idx.num_groups(), 4u);
  EXPECT_EQ(idx.num_records(), 8u);
  EXPECT_DOUBLE_EQ(idx.AverageGroupSize(), 2.0);

  const size_t gi = *idx.FindGroup(Key({0, 0}));  // male, eng
  EXPECT_EQ(idx.group_size(gi), 3u);
  EXPECT_EQ(std::vector<uint64_t>(idx.sa_counts(gi).begin(),
                                  idx.sa_counts(gi).end()),
            (std::vector<uint64_t>{2, 1, 0}));
  EXPECT_NEAR(idx.Frequency(gi, 0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(idx.MaxFrequency(gi), 2.0 / 3.0, 1e-12);
}

TEST(GroupIndexTest, GroupRowsPointIntoTable) {
  const Table t = MakeHandTable();
  const FlatGroupIndex idx = FlatGroupIndex::Build(t);
  for (size_t g = 0; g < idx.num_groups(); ++g) {
    for (const uint32_t r : idx.rows(g)) {
      EXPECT_EQ(t.at(r, 0), idx.na_code(g, 0));
      EXPECT_EQ(t.at(r, 1), idx.na_code(g, 1));
    }
  }
}

TEST(GroupIndexTest, SaCountsSumToGroupSize) {
  const FlatGroupIndex idx = FlatGroupIndex::Build(MakeHandTable());
  for (size_t g = 0; g < idx.num_groups(); ++g) {
    uint64_t total = 0;
    for (const uint64_t c : idx.sa_counts(g)) total += c;
    EXPECT_EQ(total, idx.group_size(g));
  }
}

TEST(GroupIndexTest, MatchingGroupsHonoursWildcards) {
  const FlatGroupIndex idx = FlatGroupIndex::Build(MakeHandTable());

  Predicate all(3);  // unbound: every group
  EXPECT_EQ(idx.MatchingGroups(all), (std::vector<uint32_t>{0, 1, 2, 3}));

  Predicate male(3);
  male.Bind(0, 0);
  EXPECT_EQ(idx.MatchingGroups(male).size(), 2u);

  Predicate male_law(3);
  male_law.Bind(0, 0);
  male_law.Bind(1, 1);
  auto matches = idx.MatchingGroups(male_law);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(std::vector<uint32_t>(idx.na_codes(matches[0]).begin(),
                                  idx.na_codes(matches[0]).end()),
            Key({0, 1}));
}

TEST(GroupIndexTest, FindGroupRejectsNearMissKeys) {
  const FlatGroupIndex idx = FlatGroupIndex::Build(MakeHandTable());
  EXPECT_FALSE(idx.FindGroup(Key({0, 7})).ok());
  EXPECT_FALSE(idx.FindGroup(Key({7, 0})).ok());
  EXPECT_FALSE(idx.FindGroup(Key({0})).ok());        // short key
  EXPECT_FALSE(idx.FindGroup(Key({0, 1, 0})).ok());  // long key

  Table one(MakeHandSchema());
  ASSERT_TRUE(one.AppendRow(std::vector<uint32_t>{0, 0, 0}).ok());
  const FlatGroupIndex single = FlatGroupIndex::Build(one);
  EXPECT_TRUE(single.FindGroup(Key({0, 0})).ok());
  EXPECT_EQ(single.FindGroup(Key({1, 1})).status().code(),
            StatusCode::kNotFound);
}

TEST(GroupIndexTest, EmptyGroupsCannotExist) {
  // An empty group has no defined frequency. The index never holds one:
  // Build emits only non-empty runs, MergeRuns drops an all-zero (tombstone)
  // histogram, and FromStorage rejects an empty CSR slice.
  const FlatGroupIndex base = FlatGroupIndex::Build(MakeHandTable());
  const std::vector<uint32_t> key = Key({0, 0});
  const std::vector<uint64_t> zero = {0, 0, 0};
  const FlatGroupIndex::GroupRun tombstone{key, zero, 1};
  auto merged = FlatGroupIndex::MergeRuns(
      base.schema(), FlatGroupIndex::RunOf(base.storage()), tombstone);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->num_groups(), 3u);
  EXPECT_FALSE(merged->FindGroup(key).ok());
  for (size_t g = 0; g < merged->num_groups(); ++g) {
    EXPECT_GT(merged->group_size(g), 0u);
  }

  FlatGroupIndex::Storage s = base.storage();
  std::vector<uint64_t> offsets(s.row_offsets.begin(), s.row_offsets.end());
  offsets[1] = offsets[0];  // group 0 becomes an empty slice
  s.row_offsets = offsets;
  EXPECT_EQ(FlatGroupIndex::FromStorage(base.schema(), s).status().code(),
            StatusCode::kDataLoss);
}

TEST(GroupPostingIndexTest, AgreesWithLinearScan) {
  const FlatGroupIndex flat = FlatGroupIndex::Build(MakeHandTable());
  const GroupPostingIndex postings(flat);
  for (int g = -1; g < 2; ++g) {
    for (int j = -1; j < 2; ++j) {
      Predicate p(3);
      if (g >= 0) p.Bind(0, uint32_t(g));
      if (j >= 0) p.Bind(1, uint32_t(j));
      EXPECT_EQ(postings.MatchingGroups(p), flat.MatchingGroups(p))
          << "g=" << g << " j=" << j;
    }
  }
}

TEST(GroupPostingIndexTest, CountAnswerSumsHistograms) {
  const FlatGroupIndex flat = FlatGroupIndex::Build(MakeHandTable());
  const GroupPostingIndex postings(flat);
  Predicate eng(3);
  eng.Bind(1, 0);  // Job = eng
  // eng groups: (male,eng) flu=2, (female,eng) flu=0.
  EXPECT_EQ(postings.CountAnswer(eng, 0), 2u);
  EXPECT_EQ(postings.CountAnswer(eng, 1), 3u);  // hiv: 1 + 2
}

TEST(GroupPostingIndexTest, OutOfDomainCodeMatchesNothing) {
  const FlatGroupIndex flat = FlatGroupIndex::Build(MakeHandTable());
  const GroupPostingIndex postings(flat);
  Predicate p(3);
  p.Bind(0, 77);  // no such code
  EXPECT_TRUE(postings.MatchingGroups(p).empty());
}

}  // namespace
}  // namespace recpriv::table
