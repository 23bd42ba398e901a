#include "report.h"

#include <charconv>
#include <cmath>
#include <iostream>
#include <sstream>

namespace recbench {

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string FormatSummary(const Summary& s, const std::string& unit) {
  std::ostringstream out;
  out.precision(6);
  out << "p50 " << s.median << " " << unit;
  if (s.tail_level > 0.0) {
    out << ", p" << s.tail_level << " " << s.tail << " " << unit;
  } else {
    out << ", no tail";
  }
  out << " (n=" << s.n << ")";
  return out.str();
}

void Report::Line(const std::string& kind, const std::string& text) const {
  std::cout << "# " << kind << " " << text << "\n";
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_.push_back({name, Value{value, unit}});
  Line("e2e", name + " " + Num(value) + " " + unit);
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  layers_.push_back({name, Value{value, unit}});
  Line("layer", name + " " + Num(value) + " " + unit);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, const std::string& detail) {
  Line("metric", name + " " + Num(value) + " " + unit +
                     (detail.empty() ? "" : "  (" + detail + ")"));
}

void Report::Timing(const std::string& p50_name, const std::string& tail_name,
                    const Summary& s, const std::string& unit) {
  const std::string n = "n=" + std::to_string(s.n);
  Metric(p50_name, s.median, unit, "median, " + n);
  std::string level = s.tail_level > 0 ? Num(s.tail_level) : "none";
  Metric(tail_name, s.tail, unit,
         "p" + level + ", >=10 samples beyond, " + n);
}

void Report::Share(const std::string& name, double value) {
  Line("share", name + " " + Num(value));
}

void Report::Digest(const std::string& name, const std::string& hex) {
  Line("digest", name + " " + hex);
}

void Report::Note(const std::string& text) { Line("note", text); }

void Report::Count(size_t attempted, size_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Fail(const std::string& what) {
  failures_.push_back(what);
  Line("FAIL", what);
}

void Report::PrintResult() const {
  for (const std::string& f : failures_) {
    std::cerr << "recbench: correctness failure: " << f << "\n";
  }
  const auto& metrics = trace_ ? layers_ : end_to_end_;
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].first + "\": {\"value\": " +
           Num(metrics[i].second.value) + ", \"unit\": \"" +
           metrics[i].second.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace recbench
