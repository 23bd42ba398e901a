// Violation audit: the v_g / v_r measurements of the paper's Figures 2 & 4.
//
// v_g = fraction of personal groups violating (lambda,delta)-reconstruction
//       privacy under plain uniform perturbation;
// v_r = fraction of records contained in a violating group ("coverage":
//       every record of a violating group is exposed to the same accurate
//       personal reconstruction).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/reconstruction_privacy.h"

namespace recpriv::core {

/// Result of auditing one dataset against one privacy specification.
struct ViolationReport {
  size_t num_groups = 0;
  size_t num_records = 0;
  size_t violating_groups = 0;
  uint64_t violating_records = 0;
  std::vector<size_t> violating_group_ids;  ///< rows of the audited matrix

  /// v_g: fraction of groups violating.
  double GroupViolationRate() const {
    return num_groups == 0
               ? 0.0
               : static_cast<double>(violating_groups) /
                     static_cast<double>(num_groups);
  }
  /// v_r: fraction of records in violating groups.
  double RecordViolationRate() const {
    return num_records == 0
               ? 0.0
               : static_cast<double>(violating_records) /
                     static_cast<double>(num_records);
  }
};

/// Audits every personal group against `params` (Corollary 4). This asks:
/// if D* were produced by plain UP at params.retention_p, which groups
/// would admit an accurate personal reconstruction?
///
/// The groups are given by their SA histograms: `sa_counts` is the
/// num_groups x m row-major matrix that FlatGroupIndex stores as its
/// `sa_counts` section (pass `index.storage().sa_counts`). A group's size
/// is its row's sum and its `f` the largest bin over that sum (Eq. 10); an
/// all-zero row is an empty group, which is trivially private.
ViolationReport AuditViolations(std::span<const uint64_t> sa_counts, size_t m,
                                const PrivacyParams& params);

}  // namespace recpriv::core
