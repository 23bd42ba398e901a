// Tests for the violation audit (v_g / v_r of Figures 2 & 4).

#include "core/violation.h"

#include <gtest/gtest.h>

#include <memory>

#include "table/flat_group_index.h"
#include "table/schema.h"

namespace recpriv::core {
namespace {

using recpriv::table::Attribute;
using recpriv::table::Dictionary;
using recpriv::table::FlatGroupIndex;
using recpriv::table::Schema;
using recpriv::table::Table;

PrivacyParams Params(double lambda, double delta, double p, size_t m) {
  PrivacyParams params;
  params.lambda = lambda;
  params.delta = delta;
  params.retention_p = p;
  params.domain_m = m;
  return params;
}

/// A num_groups x 2 histogram matrix with every group's SA-0 share at
/// `fifths`/5 (sizes are multiples of 5, so the share is exact).
std::vector<uint64_t> Histograms(const std::vector<uint64_t>& sizes,
                                 uint64_t fifths) {
  std::vector<uint64_t> hist;
  for (const uint64_t size : sizes) {
    hist.push_back(size / 5 * fifths);
    hist.push_back(size - size / 5 * fifths);
  }
  return hist;
}

TEST(ViolationTest, HistogramAuditCountsCorrectly) {
  auto params = Params(0.3, 0.3, 0.5, 2);
  const double s = MaxGroupSize(params, 0.8);
  const uint64_t below = uint64_t(s - 1) / 5 * 5;       // private
  const uint64_t above = (uint64_t(s) + 10) / 5 * 5 + 5;  // violating
  const uint64_t far = (uint64_t(s) + 50) / 5 * 5 + 5;    // violating
  ViolationReport r =
      AuditViolations(Histograms({below, above, far}, 4), 2, params);
  EXPECT_EQ(r.num_groups, 3u);
  EXPECT_EQ(r.num_records, below + above + far);
  EXPECT_EQ(r.violating_groups, 2u);
  EXPECT_EQ(r.violating_group_ids, (std::vector<size_t>{1, 2}));
  EXPECT_EQ(r.violating_records, above + far);
  EXPECT_NEAR(r.GroupViolationRate(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(r.RecordViolationRate(),
              double(above + far) / double(below + above + far), 1e-12);
}

TEST(ViolationTest, EmptyAudit) {
  ViolationReport r = AuditViolations(std::vector<uint64_t>{}, 2,
                                      Params(0.3, 0.3, 0.5, 2));
  EXPECT_EQ(r.num_groups, 0u);
  EXPECT_EQ(r.GroupViolationRate(), 0.0);
  EXPECT_EQ(r.RecordViolationRate(), 0.0);
}

TEST(ViolationTest, EmptyHistogramRowIsPrivate) {
  ViolationReport r = AuditViolations(std::vector<uint64_t>{0, 0, 900, 100},
                                      2, Params(0.3, 0.3, 0.5, 2));
  EXPECT_EQ(r.num_groups, 2u);
  EXPECT_EQ(r.num_records, 1000u);
  EXPECT_EQ(r.violating_group_ids, (std::vector<size_t>{1}));
}

TEST(ViolationTest, IndexHistogramsMatchHandCounts) {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute{"G", *Dictionary::FromValues({"a", "b", "c"})});
  attrs.push_back(Attribute{"SA", *Dictionary::FromValues({"s0", "s1"})});
  auto schema =
      std::make_shared<Schema>(*Schema::Make(std::move(attrs), 1));
  Table t(schema);
  // Group a: 500 records, 90% s0 (violates at defaults).
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        t.AppendRow(std::vector<uint32_t>{0, (i % 10) < 9 ? 0u : 1u}).ok());
  }
  // Group b: 30 records, 50/50 (private).
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(t.AppendRow(std::vector<uint32_t>{1, uint32_t(i % 2)}).ok());
  }
  // Group c: 4000 records, 60/40 (violates).
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(
        t.AppendRow(std::vector<uint32_t>{2, (i % 10) < 6 ? 0u : 1u}).ok());
  }
  const FlatGroupIndex idx = FlatGroupIndex::Build(t);
  auto params = Params(0.3, 0.3, 0.5, 2);
  ViolationReport r =
      AuditViolations(idx.storage().sa_counts, idx.sa_domain(), params);
  EXPECT_EQ(r.num_groups, 3u);
  EXPECT_EQ(r.num_records, 4530u);
  EXPECT_EQ(r.violating_groups, 2u);
  EXPECT_EQ(r.violating_records, 4500u);
  EXPECT_EQ(r.violating_group_ids, (std::vector<size_t>{0, 2}));

  // Cross-check against the per-group test on hand-written histograms.
  ViolationReport by_hand = AuditViolations(
      std::vector<uint64_t>{450, 50, 15, 15, 2400, 1600}, 2, params);
  EXPECT_EQ(by_hand.violating_group_ids, r.violating_group_ids);
  EXPECT_EQ(by_hand.violating_records, r.violating_records);
  EXPECT_FALSE(GroupIsPrivate(params, 500, 0.9));
  EXPECT_TRUE(GroupIsPrivate(params, 30, 0.5));
  EXPECT_FALSE(GroupIsPrivate(params, 4000, 0.6));
}

TEST(ViolationTest, StricterParametersViolateMore) {
  // Larger lambda or delta shrink s_g, so violations can only grow.
  const std::vector<uint64_t> hist =
      Histograms({20, 50, 100, 300, 800, 2000}, 3);
  auto loose = AuditViolations(hist, 2, Params(0.1, 0.1, 0.5, 2));
  auto tight = AuditViolations(hist, 2, Params(0.5, 0.5, 0.5, 2));
  EXPECT_GE(tight.violating_groups, loose.violating_groups);
}

}  // namespace
}  // namespace recpriv::core
