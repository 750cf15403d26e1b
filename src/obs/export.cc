#include "obs/export.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string_view>

namespace marlin::obs {

namespace {

// Fixed-precision float formatting so exports are byte-stable across
// runs and platforms (ostream default formatting is locale-sensitive).
std::string fmt_f(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

// Metric names and labels are code-controlled identifiers ("a.b{k=v}"),
// but escape the two JSON-breaking characters anyway.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void append_latency_json(std::string& out, const LatencyHistogram& h) {
  out += "{\"count\":" + std::to_string(h.count());
  out += ",\"mean_ms\":" + fmt_f(h.mean().as_millis_f());
  out += ",\"p50_ms\":" + fmt_f(h.percentile(50).as_millis_f());
  out += ",\"p95_ms\":" + fmt_f(h.percentile(95).as_millis_f());
  out += ",\"p99_ms\":" + fmt_f(h.percentile(99).as_millis_f());
  out += ",\"min_ms\":" + fmt_f(h.min().as_millis_f());
  out += ",\"max_ms\":" + fmt_f(h.max().as_millis_f());
  out += "}";
}

void append_sizes_json(std::string& out, const ValueHistogram& h) {
  out += "{\"count\":" + std::to_string(h.count());
  out += ",\"sum\":" + std::to_string(h.sum());
  out += ",\"mean\":" + fmt_f(h.mean());
  out += ",\"p50\":" + fmt_f(h.percentile(50));
  out += ",\"p99\":" + fmt_f(h.percentile(99));
  out += ",\"min\":" + std::to_string(h.min());
  out += ",\"max\":" + std::to_string(h.max());
  out += "}";
}

// A left-to-right walk over one event_to_json line: each field is matched
// where the fixed order puts it, never searched for from the line start.
class LineCursor {
 public:
  explicit LineCursor(const std::string& line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  /// Consumes `lit` if the line continues with it.
  bool lit(std::string_view lit) {
    if (static_cast<std::size_t>(end_ - p_) < lit.size() ||
        std::memcmp(p_, lit.data(), lit.size()) != 0) {
      return false;
    }
    p_ += lit.size();
    return true;
  }

  /// A decimal integer; a leading '-' negates it modulo 2^64, so
  /// "node":-1 round-trips to kNoNode.
  bool integer(std::uint64_t* out) {
    const bool minus = p_ < end_ && *p_ == '-';
    const auto [next, ec] = std::from_chars(p_ + minus, end_, *out);
    if (ec != std::errc()) return false;
    if (minus) *out = 0 - *out;
    p_ = next;
    return true;
  }

  /// The characters up to the next '"', which is consumed too.
  bool until_quote(std::string_view* out) {
    const void* q = std::memchr(p_, '"', static_cast<std::size_t>(end_ - p_));
    if (q == nullptr) return false;
    const char* close = static_cast<const char*>(q);
    *out = std::string_view(p_, static_cast<std::size_t>(close - p_));
    p_ = close + 1;
    return true;
  }

 private:
  const char* p_;
  const char* end_;
};

}  // namespace

std::string fmt_hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string event_to_json(const TraceEvent& e) {
  // Every field is always emitted, in a fixed order, so consumers can use
  // the trivial extractor below instead of a full JSON parser.
  std::string out;
  out.reserve(192);
  out += "{\"seq\":" + std::to_string(e.seq);
  out += ",\"t_ns\":" + std::to_string(e.at.as_nanos());
  out += ",\"node\":";
  out += (e.node == kNoNode) ? "-1" : std::to_string(e.node);
  out += ",\"type\":\"";
  out += event_type_name(e.type);
  out += "\",\"view\":" + std::to_string(e.view);
  out += ",\"height\":" + std::to_string(e.height);
  out += ",\"block\":\"" + fmt_hex64(e.block);
  out += "\",\"phase\":\"";
  out += trace_phase_name(e.phase);
  out += "\",\"kind\":" + std::to_string(e.kind);
  out += ",\"a\":" + std::to_string(e.a);
  out += ",\"b\":" + std::to_string(e.b);
  out += ",\"c\":" + std::to_string(e.c);
  out += "}";
  return out;
}

std::string trace_to_jsonl(const TraceSink& sink) {
  return trace_to_jsonl(sink.events());
}

std::string trace_to_jsonl(const std::vector<TraceEvent>& events) {
  std::string out;
  for (const TraceEvent& e : events) {
    out += event_to_json(e);
    out += '\n';
  }
  return out;
}

bool json_field_str(const std::string& line, const std::string& key,
                    std::string* out) {
  const std::string needle = "\"" + key + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const auto begin = pos + needle.size();
  const auto close = line.find('"', begin);
  if (close == std::string::npos) return false;
  *out = line.substr(begin, close - begin);
  return true;
}

bool event_from_json(const std::string& line, TraceEvent* out) {
  LineCursor in(line);
  std::uint64_t seq = 0, t_ns = 0, node = 0, view = 0, height = 0;
  std::uint64_t kind = 0, a = 0, b = 0, c = 0;
  std::string_view type_name, block_hex, phase_name;
  if (!in.lit("{\"seq\":") || !in.integer(&seq) ||
      !in.lit(",\"t_ns\":") || !in.integer(&t_ns) ||
      !in.lit(",\"node\":") || !in.integer(&node) ||
      !in.lit(",\"type\":\"") || !in.until_quote(&type_name) ||
      !in.lit(",\"view\":") || !in.integer(&view) ||
      !in.lit(",\"height\":") || !in.integer(&height) ||
      !in.lit(",\"block\":\"") || !in.until_quote(&block_hex) ||
      !in.lit(",\"phase\":\"") || !in.until_quote(&phase_name) ||
      !in.lit(",\"kind\":") || !in.integer(&kind) ||
      !in.lit(",\"a\":") || !in.integer(&a) ||
      !in.lit(",\"b\":") || !in.integer(&b)) {
    return false;
  }
  // `c` was added after the first trace format; default 0 keeps old
  // traces parseable.
  if (in.lit(",\"c\":") && !in.integer(&c)) return false;
  if (!in.lit("}")) return false;
  const EventType type = event_type_from_name(type_name);
  if (type == EventType::kCount) return false;
  TraceEvent e;
  e.seq = seq;
  e.at = TimePoint::from_nanos(static_cast<std::int64_t>(t_ns));
  e.node = static_cast<std::uint32_t>(node);
  e.type = type;
  e.view = view;
  e.height = height;
  std::from_chars(block_hex.data(), block_hex.data() + block_hex.size(),
                  e.block, 16);
  e.phase = kNoPhase;
  if (phase_name != "-") {
    for (std::uint8_t p = 0; p < 5; ++p) {
      if (phase_name == trace_phase_name(p)) {
        e.phase = p;
        break;
      }
    }
  }
  e.kind = static_cast<std::uint8_t>(kind);
  e.a = a;
  e.b = b;
  e.c = c;
  *out = e;
  return true;
}

std::string metrics_to_json(const MetricsRegistry& reg) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [key, value] : reg.counters()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(key.to_string()) +
           "\": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [key, value] : reg.gauges()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(key.to_string()) + "\": " + fmt_f(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"latencies\": {";
  first = true;
  for (const auto& [key, hist] : reg.latencies()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(key.to_string()) + "\": ";
    append_latency_json(out, hist);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"sizes\": {";
  first = true;
  for (const auto& [key, hist] : reg.size_histograms()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(key.to_string()) + "\": ";
    append_sizes_json(out, hist);
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string metrics_to_csv(const MetricsRegistry& reg) {
  std::string out = "metric,label,field,value\n";
  auto row = [&out](const std::string& name, const std::string& label,
                    const char* field, const std::string& value) {
    out += name + "," + label + "," + field + "," + value + "\n";
  };
  for (const auto& [key, value] : reg.counters()) {
    row(key.name, key.label, "count", std::to_string(value));
  }
  for (const auto& [key, value] : reg.gauges()) {
    row(key.name, key.label, "value", fmt_f(value));
  }
  for (const auto& [key, hist] : reg.latencies()) {
    row(key.name, key.label, "count", std::to_string(hist.count()));
    row(key.name, key.label, "mean_ms", fmt_f(hist.mean().as_millis_f()));
    row(key.name, key.label, "p50_ms",
        fmt_f(hist.percentile(50).as_millis_f()));
    row(key.name, key.label, "p95_ms",
        fmt_f(hist.percentile(95).as_millis_f()));
    row(key.name, key.label, "p99_ms",
        fmt_f(hist.percentile(99).as_millis_f()));
  }
  for (const auto& [key, hist] : reg.size_histograms()) {
    row(key.name, key.label, "count", std::to_string(hist.count()));
    row(key.name, key.label, "sum", std::to_string(hist.sum()));
    row(key.name, key.label, "mean", fmt_f(hist.mean()));
    row(key.name, key.label, "p99", fmt_f(hist.percentile(99)));
  }
  return out;
}

void print_view_timeline(const std::vector<TraceEvent>& events,
                         std::ostream& out) {
  struct ViewStats {
    TimePoint first = TimePoint::from_nanos(INT64_MAX);
    TimePoint last;
    std::uint64_t proposals = 0;
    std::uint64_t qcs = 0;
    std::uint64_t commits = 0;
    std::uint64_t committed_ops = 0;
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
    std::uint64_t timeouts = 0;
    bool view_change = false;
  };
  std::map<ViewNumber, ViewStats> views;
  for (const TraceEvent& e : events) {
    ViewStats& v = views[e.view];
    v.first = std::min(v.first, e.at);
    v.last = std::max(v.last, e.at);
    switch (e.type) {
      case EventType::kProposalSent:
        ++v.proposals;
        break;
      case EventType::kQcFormed:
        ++v.qcs;
        break;
      case EventType::kCommit:
        ++v.commits;
        v.committed_ops += e.a;
        break;
      case EventType::kMsgSent:
        ++v.msgs;
        v.bytes += e.a;
        break;
      case EventType::kTimeoutFired:
        ++v.timeouts;
        break;
      case EventType::kViewChangeStart:
      case EventType::kViewChangeEnd:
        v.view_change = true;
        break;
      default:
        break;
    }
  }
  out << "view        span_ms  proposals  qcs  commits  ops  msgs  kbytes"
         "  notes\n";
  for (const auto& [view, v] : views) {
    const double span_ms =
        v.last >= v.first ? (v.last - v.first).as_millis_f() : 0.0;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%-10llu %8.3f %10llu %4llu %8llu %4llu %5llu %7.1f",
                  static_cast<unsigned long long>(view), span_ms,
                  static_cast<unsigned long long>(v.proposals),
                  static_cast<unsigned long long>(v.qcs),
                  static_cast<unsigned long long>(v.commits),
                  static_cast<unsigned long long>(v.committed_ops),
                  static_cast<unsigned long long>(v.msgs),
                  static_cast<double>(v.bytes) / 1024.0);
    out << line;
    if (v.view_change) out << "  view-change";
    if (v.timeouts > 0) out << "  timeouts=" << v.timeouts;
    out << "\n";
  }
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << content;
  return static_cast<bool>(f.flush());
}

bool read_text_file(const std::string& path, std::string* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream body;
  body << f.rdbuf();
  *out = body.str();
  return true;
}

}  // namespace marlin::obs
