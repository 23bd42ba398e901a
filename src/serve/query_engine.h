// QueryEngine: answers batches of count queries (Eq. 11) against a named
// release from a ReleaseStore — the user-facing half of the paper's
// contract, where consumers run COUNT(*) queries over the published
// perturbed table and reconstruct the true counts themselves (§4.1, §6.1).
//
// For each query the engine sums, over the release groups matching the NA
// predicate, the observed SA histogram bin O* and the matched release size
// |S*|, and returns both the raw observed count and the unbiased MLE
// reconstruction est = |S*| F' (Lemma 2(ii)) computed from the release's
// own manifest parameters (p, m). Consumers never see raw data — only the
// already-perturbed release — so the engine adds no privacy surface.
//
// Batches are evaluated in parallel on a work-stealing pool: each worker
// takes a slice of the batch's uncached queries and answers each one with
// GroupPostingIndex::AnswerInto and reused scratch buffers. That kernel
// finds the matching groups through posting lists and sums their bins
// from SA-major count columns, which the snapshot's posting index builds
// on its first count evaluation. The fused scan kernel behind
// EvaluateUncached reads the row-major histogram matrix instead; it is
// the independent reference these answers are checked against, not a
// second serving path.
//
// Answers are memoized in an LRU cache keyed by (release name, snapshot
// content digest, canonical query bytes). A republish with different
// content gets a new digest and so never hits the old answers, while a
// bit-identical one keeps its warm entries — see serve/answer_cache.h.

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/api.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "query/count_query.h"
#include "serve/answer_cache.h"
#include "serve/release_store.h"

namespace recpriv::serve {

class AdmissionController;
class MicroBatcher;

/// Absolute point past which a batch should be shed instead of evaluated.
/// nullopt = no deadline (the default everywhere).
using Deadline = std::optional<std::chrono::steady_clock::time_point>;

/// True when `deadline` is set and already in the past.
inline bool DeadlineExpired(const Deadline& deadline) {
  return deadline.has_value() &&
         std::chrono::steady_clock::now() >= *deadline;
}

/// How a batch's uncached queries were evaluated. The engine has one
/// evaluator and always reports kPostings; kGroupShard names a removed
/// strategy and is kept only so batch reports that count it (the recbench
/// `engine.groupshard_batch_share` metric) still compile and read 0.
enum class EvalStrategy { kPostings, kGroupShard };

struct QueryEngineOptions {
  size_t num_threads = 0;       ///< 0 = hardware concurrency
  size_t cache_capacity = 1 << 16;  ///< LRU entries; 0 disables caching
  /// Micro-batching scheduler (serve/micro_batcher.h): same-snapshot
  /// submissions arriving within this window are fused into one batch
  /// evaluation. 0 disables the scheduler (AnswerBatchScheduled degrades
  /// to AnswerBatch).
  int micro_batch_window_us = 0;
  /// A fused batch this large is evaluated without waiting out the window.
  size_t micro_batch_max_queries = 1024;
  /// Per-tenant token-bucket admission (serve/admission.h): each tenant's
  /// bucket refills at this many queries per second. 0 disables admission
  /// (every batch is admitted and no "tenants" stats section exists).
  double tenant_quota_qps = 0.0;
  /// Bucket depth in queries; <= 0 means max(tenant_quota_qps, 1).
  double tenant_quota_burst = 0.0;
};

/// One query's answer.
struct Answer {
  uint64_t observed = 0;      ///< O*: perturbed count over matching groups
  uint64_t matched_size = 0;  ///< |S*|: release records in matching groups
  double estimate = 0.0;      ///< MLE count reconstruction |S*| F'
  bool cached = false;        ///< served from the answer cache
};

/// One batch's answers plus serving diagnostics.
struct BatchResult {
  std::vector<Answer> answers;  ///< parallel to the request batch
  uint64_t epoch = 0;           ///< snapshot epoch the batch was served from
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  EvalStrategy strategy_used = EvalStrategy::kPostings;  ///< always kPostings
};

/// Parallel batched count-query engine over a ReleaseStore.
class QueryEngine {
 public:
  explicit QueryEngine(std::shared_ptr<ReleaseStore> store,
                       QueryEngineOptions options = {});
  ~QueryEngine();

  /// Answers `batch` against the current snapshot of `release`. The whole
  /// batch is served from one snapshot (one epoch), even if the release is
  /// republished mid-batch. Errors when the release does not exist or any
  /// query's arity / SA code does not fit the release schema.
  Result<BatchResult> AnswerBatch(
      const std::string& release,
      const std::vector<recpriv::query::CountQuery>& batch);

  /// As above, but against an explicitly pinned snapshot. Callers that
  /// resolved query values to codes via a specific snapshot's schema (the
  /// wire front end) MUST evaluate against that same snapshot — fetching
  /// the release again could race a republish and evaluate old codes on a
  /// new dictionary. `release` must be the name `snap` is published under
  /// (it scopes the cache keys).
  Result<BatchResult> AnswerBatch(
      const std::string& release, SnapshotPtr snap,
      const std::vector<recpriv::query::CountQuery>& batch);

  /// Single-query convenience over AnswerBatch.
  Result<Answer> AnswerOne(const std::string& release,
                           const recpriv::query::CountQuery& q);

  /// As AnswerBatch(release, snap, batch), but routed through the
  /// micro-batching scheduler when one is configured
  /// (micro_batch_window_us > 0): concurrent same-snapshot submissions are
  /// fused into one evaluation and the answers split back, bit-identical
  /// to the unbatched path. The serving front ends call this. A batch whose
  /// `deadline` has already passed is fast-failed with DeadlineExceeded
  /// before it can occupy the pool or join a fused batch.
  Result<BatchResult> AnswerBatchScheduled(
      const std::string& release, SnapshotPtr snap,
      const std::vector<recpriv::query::CountQuery>& batch,
      const Deadline& deadline = std::nullopt);

  /// Scheduler counters, or nullopt when micro-batching is disabled.
  std::optional<client::SchedulerStats> scheduler_stats() const;

  /// Per-tenant admission counters, or nullopt when no quota is configured.
  std::optional<client::TenantStats> tenant_stats() const;

  /// The admission controller, or nullptr when no quota is configured.
  AdmissionController* admission() { return admission_.get(); }

  const QueryEngineOptions& options() const { return options_; }
  ReleaseStore& store() { return *store_; }
  AnswerCache& cache() { return cache_; }
  ThreadPool& pool() { return pool_; }

 private:
  friend class MicroBatcher;  ///< fused batches enter pre-validated

  /// AnswerBatch minus the validation pass — for the micro-batcher, whose
  /// riders were each validated before coalescing (one bad rider fails
  /// alone; re-validating the merged batch would be pure repeat work).
  Result<BatchResult> AnswerValidatedBatch(
      const std::string& release, SnapshotPtr snap,
      const std::vector<recpriv::query::CountQuery>& batch);

  std::shared_ptr<ReleaseStore> store_;
  QueryEngineOptions options_;
  AnswerCache cache_;
  ThreadPool pool_;
  std::unique_ptr<MicroBatcher> batcher_;  ///< set iff window_us > 0
  std::unique_ptr<AdmissionController> admission_;  ///< set iff quota > 0
};

/// The schema/arity validation AnswerBatch applies to every batch, exposed
/// so the micro-batcher can validate each submission BEFORE coalescing it
/// (a submission's bad query must fail that submission, never the fused
/// batch it would have joined).
Status ValidateBatchForSnapshot(
    const recpriv::analysis::ReleaseSnapshot& snap,
    const std::vector<recpriv::query::CountQuery>& batch);

/// Reference single-query evaluation against a snapshot (no cache, no
/// pool): the behavior AnswerBatch must reproduce, exposed for tests and
/// for the throughput bench's single-threaded baseline.
Answer EvaluateUncached(const recpriv::analysis::ReleaseSnapshot& snap,
                        const recpriv::query::CountQuery& q);

}  // namespace recpriv::serve
