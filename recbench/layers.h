// Per-layer measurement shared by the traced runs: the two count kernels
// timed from outside on one query, and the read-path waterfall stitched
// from the spans of separate replays.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/release.h"
#include "client/api.h"
#include "common/result.h"
#include "harness.h"
#include "query/count_query.h"
#include "report.h"
#include "serve/query_engine.h"
#include "table/flat_group_index.h"

namespace recbench {

/// One query through both kernels: the postings path the engine serves
/// with (GroupPostingIndex::MatchingGroupsInto + sums) and the fused kernel
/// it does not call (FlatGroupIndex::AnswerInto).
struct KernelTiming {
  double postings_ns = 0.0;
  double fused_ns = 0.0;
  size_t matched_groups = 0;
  uint64_t observed = 0;
  uint64_t matched_size = 0;
  bool agree = true;  ///< both kernels returned the same counts
};

KernelTiming TimeKernels(const recpriv::analysis::ReleaseSnapshot& snap,
                         const recpriv::query::CountQuery& q,
                         recpriv::table::AnswerScratch& scratch);

/// Spans of one read request at each entry point, keyed by request id.
struct ReadSpans {
  explicit ReadSpans(size_t n)
      : client(n), codec(n), wire(n), service(n), engine(n), kernel(n) {}
  SpanLog client;   ///< LineProtocolClient::Query over TCP
  SpanLog codec;    ///< client-side encode + parse + decode
  SpanLog wire;     ///< HandleRequestLine
  SpanLog service;  ///< serve::ExecuteQuery
  SpanLog engine;   ///< QueryEngine::AnswerBatchScheduled
  SpanLog kernel;   ///< postings kernel on the engine's miss (0 on a hit)
};

/// One request through the client-side codec and HandleRequestLine, with
/// no transport between them; records spans.codec and spans.wire for `id`.
recpriv::Result<recpriv::client::BatchAnswer> WireReplay(
    recpriv::serve::QueryEngine& engine,
    const recpriv::client::QueryRequest& request, uint64_t id,
    ReadSpans& spans);

/// Reports client.query_us down to engine.self_us over the requests with
/// `measured[id]` set. Self times subtract the next inner span of the same
/// request id; transport is what the client span spends outside the codec
/// and HandleRequestLine, so the layers partition the outer span.
void ReportReadLayers(const ReadSpans& spans,
                      const std::vector<char>& measured, Report& report);

/// trace.outer_p50_us against the untraced run's p50 of the same stream.
void ReportTraceOverhead(double outer_p50_us, double untraced_p50_ms,
                         Report& report);

/// Median of `v`, or 0 when empty.
double MedianOr0(std::vector<double> v);

}  // namespace recbench
