// Streaming publication (paper §3.1): "data perturbation is more amendable
// to record insertion because each record is perturbed independently and
// the reconstruction is performed by the user himself."
//
// StreamingPublisher supports three publication styles over a growing table:
//
//  * append-only UP: InsertAndRelease perturbs each arriving record
//    immediately (independent coin toss) and returns the publishable row —
//    no previously released row ever changes. This is the insert-friendly
//    mode the paper contrasts with output perturbation (where a new record
//    changes many published query answers at once).
//  * snapshot SPS: Publish() re-runs the full SPS pipeline on the current
//    buffered data, enforcing (lambda, delta)-reconstruction-privacy for
//    the groups as they stand now. As groups grow past s_g, append-only UP
//    alone starts violating — Audit() exposes exactly when.
//  * incremental SPS: PublishIncremental() republishes by delta, not by
//    rebuild. Rows inserted since the previous incremental publish form the
//    delta; a small side FlatGroupIndex over just those rows names the
//    personal groups the delta touched. Only touched groups are re-run
//    through count-level SPS (on their full raw histogram, base + delta);
//    every untouched group carries its previous perturbation forward
//    bit-identically. The next index is then assembled by merging the
//    sorted key runs of the base release and the touched-group overlay
//    (FlatGroupIndex::MergeRuns, two-level LSM-style) instead of sorting
//    the whole table — republish cost scales with the delta, not the table.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "core/reconstruction_privacy.h"
#include "core/sps.h"
#include "core/violation.h"
#include "table/flat_group_index.h"
#include "table/table.h"

namespace recpriv::core {

/// Bookkeeping from one incremental republish.
struct IncrementalPublishStats {
  size_t delta_rows = 0;      ///< raw rows inserted since the last publish
  size_t groups_touched = 0;  ///< groups the delta hit — re-run through SPS
  size_t groups_carried = 0;  ///< base groups carried forward bit-identically
  SpsStats sps;               ///< SPS bookkeeping over the touched groups only
};

/// One incremental release: the publishable table D*_2 in canonical
/// group-major form, its index, and the publish bookkeeping.
struct IncrementalPublishResult {
  recpriv::table::Table table;
  recpriv::table::FlatGroupIndex index;
  IncrementalPublishStats stats;
};

/// Accepts record inserts and publishes perturbed releases.
class StreamingPublisher {
 public:
  /// The schema's SA domain size must match params.domain_m.
  static Result<StreamingPublisher> Make(recpriv::table::SchemaPtr schema,
                                         PrivacyParams params);

  /// Buffers a raw record (codes in schema order, validated).
  Status Insert(std::span<const uint32_t> row);

  /// Buffers a raw record AND returns its uniformly perturbed publishable
  /// form (append-only UP mode). NA columns pass through; SA is perturbed
  /// with an independent coin. The row is validated fully before the first
  /// Rng draw, so a rejected row leaves both the buffer and the caller's
  /// RNG stream untouched — record/replay byte-equality depends on it.
  Result<std::vector<uint32_t>> InsertAndRelease(std::span<const uint32_t> row,
                                                 Rng& rng);

  /// Audits the buffered data: which personal groups would violate
  /// (lambda, delta)-reconstruction privacy under plain UP right now.
  ViolationReport Audit() const;

  /// Same audit computed from the incremental representation (the
  /// cumulative raw-group run merged with the not-yet-published delta
  /// rows) instead of re-grouping the whole buffer. Both feed the same
  /// key-ordered histogram matrix to AuditViolations, so the reports are
  /// identical; this one costs O(groups + delta) after the side grouping.
  ViolationReport AuditFromRuns() const;

  /// Full SPS snapshot of the current buffer (Theorem 4/5 guarantees).
  /// Stateless with respect to the incremental pipeline below.
  Result<SpsTableResult> Publish(Rng& rng) const;

  /// Incremental SPS republish (see the file comment). The first call
  /// treats the whole buffer as the delta; later calls re-perturb only
  /// groups touched by rows inserted since the previous call, drawing from
  /// `rng` once per touched group in ascending key order (deterministic
  /// for a given insert/publish history). With `merge_index` the returned
  /// index is built by the run-merge path; without it, by a full
  /// radix-sort Build over the same table — the two are bit-identical, so
  /// the flag only selects the build algorithm (the reference arm for
  /// tests, benches and CI).
  Result<IncrementalPublishResult> PublishIncremental(Rng& rng,
                                                      bool merge_index = true);

  size_t num_records() const { return buffer_.num_rows(); }
  const recpriv::table::Table& buffered() const { return buffer_; }
  const PrivacyParams& params() const { return params_; }
  /// Rows covered by the last incremental publish (0 before the first).
  size_t published_rows() const { return published_rows_; }
  /// Rows inserted since the last incremental publish.
  size_t pending_delta_rows() const {
    return buffer_.num_rows() - published_rows_;
  }

 private:
  StreamingPublisher(recpriv::table::SchemaPtr schema, PrivacyParams params)
      : params_(params), buffer_(std::move(schema)) {}

  PrivacyParams params_;
  recpriv::table::Table buffer_;

  /// Incremental pipeline state. The raw run accumulates the grouped SA
  /// histograms of every row covered by an incremental publish (keys
  /// strictly ascending, NA-lex order); the base run is the previous
  /// incremental release's groups with their published (perturbed)
  /// histograms — the sections MergeRuns borrows as its base level.
  size_t published_rows_ = 0;
  std::vector<uint32_t> raw_na_;       ///< G_raw x num_public
  std::vector<uint64_t> raw_counts_;   ///< G_raw x m, raw histograms
  std::vector<uint32_t> base_na_;      ///< G_base x num_public
  std::vector<uint64_t> base_counts_;  ///< G_base x m, published histograms
};

}  // namespace recpriv::core
