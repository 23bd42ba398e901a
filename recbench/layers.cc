#include "layers.h"

#include "serve/wire.h"

namespace recbench {

KernelTiming TimeKernels(const recpriv::analysis::ReleaseSnapshot& snap,
                         const recpriv::query::CountQuery& q,
                         recpriv::table::AnswerScratch& scratch) {
  KernelTiming t;
  const auto t0 = Clock::now();
  snap.postings->MatchingGroupsInto(q.na_predicate, scratch.intersect,
                                    scratch.groups);
  for (uint32_t g : scratch.groups) {
    t.observed += snap.index.sa_count(g, q.sa_code);
    t.matched_size += snap.index.group_size(g);
  }
  const auto t1 = Clock::now();
  uint64_t observed = 0, matched_size = 0;
  snap.index.AnswerInto(q.na_predicate, q.sa_code, scratch, &observed,
                        &matched_size);
  const auto t2 = Clock::now();
  t.postings_ns = MsBetween(t0, t1) * 1e6;
  t.fused_ns = MsBetween(t1, t2) * 1e6;
  t.matched_groups = scratch.groups.size();
  t.agree = observed == t.observed && matched_size == t.matched_size;
  return t;
}

recpriv::Result<recpriv::client::BatchAnswer> WireReplay(
    recpriv::serve::QueryEngine& engine,
    const recpriv::client::QueryRequest& request, uint64_t id,
    ReadSpans& spans) {
  namespace wire = recpriv::serve::wire;
  const auto t0 = Clock::now();
  const std::string line = wire::EncodeQueryRequest(request, id + 1).ToString();
  const auto t1 = Clock::now();
  const std::string response = recpriv::serve::HandleRequestLine(line, engine);
  const auto t2 = Clock::now();
  RECPRIV_ASSIGN_OR_RETURN(recpriv::JsonValue parsed,
                           wire::ParseResponse(response, id + 1));
  RECPRIV_ASSIGN_OR_RETURN(recpriv::client::BatchAnswer answer,
                           wire::DecodeQueryResponse(parsed));
  const auto t3 = Clock::now();
  spans.codec.Record(id, (MsBetween(t0, t1) + MsBetween(t2, t3)) * 1e3);
  spans.wire.Record(id, MsBetween(t1, t2) * 1e3);
  return answer;
}

double MedianOr0(std::vector<double> v) {
  return v.empty() ? 0.0 : Median(std::move(v));
}

void ReportReadLayers(const ReadSpans& spans,
                      const std::vector<char>& measured, Report& report) {
  auto window = [&](const SpanLog& log) {
    SpanLog out(log.us.size());
    for (size_t id = 0; id < log.us.size(); ++id) {
      if (measured[id]) out.us[id] = log.us[id];
    }
    return out;
  };
  const SpanLog client = window(spans.client), codec = window(spans.codec),
                wire = window(spans.wire), service = window(spans.service),
                engine = window(spans.engine), kernel = window(spans.kernel);
  report.Layer("client.query_us", SpanMedian(client), "us");
  report.Layer("transport.self_us",
               MedianOr0(SelfTimes(client, {&codec, &wire})), "us");
  report.Layer("wire.client_codec_us", SpanMedian(codec), "us");
  report.Layer("wire.handle_us", SpanMedian(wire), "us");
  report.Layer("wire.self_us", MedianOr0(SelfTimes(wire, {&service})), "us");
  report.Layer("service.execute_us", SpanMedian(service), "us");
  report.Layer("service.self_us", MedianOr0(SelfTimes(service, {&engine})),
               "us");
  report.Layer("engine.answer_us", SpanMedian(engine), "us");
  report.Layer("engine.self_us", MedianOr0(SelfTimes(engine, {&kernel})),
               "us");
}

void ReportTraceOverhead(double outer_p50_us, double untraced_p50_ms,
                         Report& report) {
  report.Layer("trace.outer_p50_us", outer_p50_us, "us");
  report.Layer("trace.untraced_p50_us", untraced_p50_ms * 1e3, "us");
  report.Layer("trace.overhead_ratio",
               untraced_p50_ms > 0 ? outer_p50_us / (untraced_p50_ms * 1e3)
                                   : 0.0,
               "ratio");
}

}  // namespace recbench
