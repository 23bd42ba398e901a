#include "core/violation.h"

#include <algorithm>

#include "common/logging.h"

namespace recpriv::core {

ViolationReport AuditViolations(std::span<const uint64_t> sa_counts, size_t m,
                                const PrivacyParams& params) {
  RECPRIV_CHECK(m > 0 && sa_counts.size() % m == 0)
      << "histogram matrix is not num_groups x m";
  ViolationReport report;
  report.num_groups = sa_counts.size() / m;
  for (size_t gi = 0; gi < report.num_groups; ++gi) {
    uint64_t size = 0, max_count = 0;
    for (const uint64_t c : sa_counts.subspan(gi * m, m)) {
      size += c;
      max_count = std::max(max_count, c);
    }
    report.num_records += size;
    const double max_f = size == 0 ? 0.0 : double(max_count) / double(size);
    if (!GroupIsPrivate(params, size, max_f)) {
      ++report.violating_groups;
      report.violating_records += size;
      report.violating_group_ids.push_back(gi);
    }
  }
  return report;
}

}  // namespace recpriv::core
