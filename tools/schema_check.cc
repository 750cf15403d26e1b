// schema_check — validates the observability artifacts CI pins, one mode
// per format:
//
//   schema_check spans.json            Chrome trace-event JSON (the
//                                      --spans-out of marlin_run and
//                                      trace_inspect)
//   schema_check metrics.prom          Prometheus text exposition
//                                      (GET /metrics, --metrics-out=*.prom)
//   schema_check --trace run.jsonl     protocol event trace (--trace-out)
//   schema_check --status FILE         /status JSON document
//   schema_check --series FILE         JSONL metric series
//                                      (--metrics-series-out, both backends)
//
// Without a mode flag the file's first byte picks between the first two: a
// span export is a JSON object, an exposition never starts with '{'.
//
// Prints one "ok: ..." line and exits 0 on success; prints a diagnostic and
// exits 1 on a malformed document (2 for unreadable files / bad usage).
// The line-oriented formats are checked as they stream past, so a
// multi-gigabyte trace never lives in memory.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>

#include "cli_flags.h"
#include "common/json.h"
#include "obs/export.h"
#include "obs/trace.h"

using namespace marlin;

namespace {

// ---------------------------------------------------------------------------
// Span export: the wrapper object, and per event the name/ph/pid/tid fields,
// a known phase type, and non-negative ts/dur on complete events. The
// exporter writes one JSON object per line so no full JSON parser is needed.
// ---------------------------------------------------------------------------

bool field_num(const std::string& line, const char* key, double* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const char* start = line.c_str() + pos + needle.size();
  char* end = nullptr;
  *out = std::strtod(start, &end);
  return end != start;
}

int fail(std::size_t lineno, const char* what, const std::string& line) {
  std::fprintf(stderr, "line %zu: %s\n  %s\n", lineno, what, line.c_str());
  return 1;
}

int check_spans(std::istream& in) {
  std::string line;
  std::size_t lineno = 0;
  std::size_t events = 0, metadata = 0, spans = 0;
  bool saw_header = false, saw_footer = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (!saw_header) {
      if (line != "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[") {
        return fail(lineno, "bad header (expected trace-event wrapper)", line);
      }
      saw_header = true;
      continue;
    }
    if (line == "]}") {
      saw_footer = true;
      continue;
    }
    if (saw_footer) return fail(lineno, "content after closing ]}", line);

    std::string body = line;
    if (!body.empty() && body.back() == ',') body.pop_back();
    if (body.empty() || body.front() != '{' || body.back() != '}') {
      return fail(lineno, "event is not a one-line JSON object", line);
    }

    std::string name, ph;
    double pid = 0, tid = 0;
    if (!obs::json_field_str(body, "name", &name) || name.empty()) {
      return fail(lineno, "missing \"name\"", line);
    }
    if (!obs::json_field_str(body, "ph", &ph)) {
      return fail(lineno, "missing \"ph\"", line);
    }
    if (ph != "X" && ph != "i" && ph != "M") {
      return fail(lineno, "unsupported \"ph\" (want X, i, or M)", line);
    }
    if (!field_num(body, "pid", &pid) || pid < 0) {
      return fail(lineno, "missing or negative \"pid\"", line);
    }
    if (!field_num(body, "tid", &tid) || tid < 0) {
      return fail(lineno, "missing or negative \"tid\"", line);
    }
    if (ph == "M") {
      ++metadata;
    } else {
      double ts = 0;
      if (!field_num(body, "ts", &ts) || ts < 0) {
        return fail(lineno, "missing or negative \"ts\"", line);
      }
      if (ph == "X") {
        double dur = 0;
        if (!field_num(body, "dur", &dur) || dur < 0) {
          return fail(lineno, "complete event missing or negative \"dur\"",
                      line);
        }
        ++spans;
      }
    }
    ++events;
  }
  if (!saw_header) {
    std::fprintf(stderr, "empty file (no trace-event wrapper)\n");
    return 1;
  }
  if (!saw_footer) {
    std::fprintf(stderr, "missing closing ]}\n");
    return 1;
  }
  std::printf("ok: %zu events (%zu metadata, %zu spans)\n", events, metadata,
              spans);
  return 0;
}

// ---------------------------------------------------------------------------
// Protocol trace: every line parses back into a TraceEvent with a known
// type (how CI catches an exporter emitting a type the taxonomy doesn't
// name); time never goes backwards; and each node's seq rises. Every
// backend's trace is one obs::merge_traces, whose seq is dense over the
// file; seq is still checked per node, the weakest order a consumer needs,
// so a file cut from a longer trace or joined from several passes too.
// ---------------------------------------------------------------------------

int check_trace(std::istream& in) {
  std::string line;
  std::size_t lineno = 0, events = 0;
  std::int64_t last_ns = 0;
  std::unordered_map<std::uint32_t, std::uint64_t> last_seq;  // per node
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    obs::TraceEvent e;
    if (!obs::event_from_json(line, &e)) {
      return fail(lineno, "unparseable trace event (unknown type?)", line);
    }
    if (events > 0 && e.at.as_nanos() < last_ns) {
      return fail(lineno, "time went backwards", line);
    }
    last_ns = e.at.as_nanos();
    auto [it, first] = last_seq.try_emplace(e.node, e.seq);
    if (!first) {
      if (e.seq <= it->second) {
        return fail(lineno, "sequence number did not rise within its node",
                    line);
      }
      it->second = e.seq;
    }
    ++events;
  }
  if (events == 0) {
    std::fprintf(stderr, "empty trace\n");
    return 1;
  }
  std::printf("ok: %zu trace events\n", events);
  return 0;
}

// ---------------------------------------------------------------------------
// Prometheus text exposition: every line is a comment or a
// `name{labels} value` sample; label blocks are well-formed; every sample
// belongs to a `# TYPE`-declared family (directly, via its _sum/_count
// suffix, or via a quantile label).
// ---------------------------------------------------------------------------

bool valid_metric_name(const std::string& s) {
  if (s.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_' &&
      s[0] != ':') {
    return false;
  }
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != ':') {
      return false;
    }
  }
  return true;
}

int fail_exposition(std::size_t lineno, const char* why) {
  std::fprintf(stderr, "invalid exposition: line %zu: %s\n", lineno, why);
  return 1;
}

int check_exposition(std::istream& in) {
  std::set<std::string> typed;
  std::size_t samples = 0, lineno = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == '#') {
      char keyword[16] = {0};
      char name[256] = {0};
      char kind[16] = {0};
      if (std::sscanf(line.c_str(), "# %15s %255s %15s", keyword, name,
                      kind) == 3 &&
          std::strcmp(keyword, "TYPE") == 0) {
        if (std::strcmp(kind, "counter") != 0 &&
            std::strcmp(kind, "gauge") != 0 &&
            std::strcmp(kind, "summary") != 0 &&
            std::strcmp(kind, "histogram") != 0 &&
            std::strcmp(kind, "untyped") != 0) {
          return fail_exposition(lineno, "unknown TYPE kind");
        }
        typed.insert(name);
      }
      continue;
    }
    // Sample: name[{labels}] value
    std::size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos) {
      return fail_exposition(lineno, "sample has no value");
    }
    const std::string name = line.substr(0, name_end);
    if (!valid_metric_name(name)) {
      return fail_exposition(lineno, "bad metric name");
    }
    std::size_t value_start = name_end;
    if (line[name_end] == '{') {
      const std::size_t close = line.find('}', name_end);
      if (close == std::string::npos) {
        return fail_exposition(lineno, "unterminated label block");
      }
      // Labels: k="v" pairs, comma-separated, values quoted.
      std::size_t lp = name_end + 1;
      while (lp < close) {
        const std::size_t eq = line.find('=', lp);
        if (eq == std::string::npos || eq >= close) {
          return fail_exposition(lineno, "label without '='");
        }
        if (!valid_metric_name(line.substr(lp, eq - lp))) {
          return fail_exposition(lineno, "bad label name");
        }
        if (eq + 1 >= close || line[eq + 1] != '"') {
          return fail_exposition(lineno, "label value not quoted");
        }
        std::size_t vend = eq + 2;
        while (vend < close && line[vend] != '"') {
          if (line[vend] == '\\') ++vend;
          ++vend;
        }
        if (vend >= close) {
          return fail_exposition(lineno, "unterminated label value");
        }
        lp = vend + 1;
        if (lp < close) {
          if (line[lp] != ',') {
            return fail_exposition(lineno, "label pairs not comma-separated");
          }
          ++lp;
        }
      }
      value_start = close + 1;
    }
    if (value_start >= line.size() || line[value_start] != ' ') {
      return fail_exposition(lineno, "sample has no value");
    }
    const char* vtext = line.c_str() + value_start + 1;
    char* vend = nullptr;
    std::strtod(vtext, &vend);
    if (vend == vtext || *vend != '\0') {
      return fail_exposition(lineno, "value is not a number");
    }
    // Family membership: exact, or via summary/histogram suffix.
    std::string family = name;
    for (const char* suffix : {"_sum", "_count", "_bucket"}) {
      const std::size_t slen = std::strlen(suffix);
      if (family.size() > slen &&
          family.compare(family.size() - slen, slen, suffix) == 0 &&
          typed.count(family.substr(0, family.size() - slen)) > 0) {
        family = family.substr(0, family.size() - slen);
        break;
      }
    }
    if (typed.count(family) == 0) {
      return fail_exposition(lineno, "sample precedes its # TYPE line");
    }
    ++samples;
  }
  if (samples == 0) {
    std::fprintf(stderr, "invalid exposition: no samples\n");
    return 1;
  }
  std::printf("ok: exposition with %zu samples, %zu families\n", samples,
              typed.size());
  return 0;
}

// ---------------------------------------------------------------------------
// /status document: the fields marlin_top and the CI scrape consume.
// ---------------------------------------------------------------------------

int fail_status(const char* why) {
  std::fprintf(stderr, "invalid status: %s\n", why);
  return 1;
}

int check_status(std::istream& in) {
  std::ostringstream body;
  body << in.rdbuf();
  auto doc = json::parse(body.str());
  if (!doc.is_ok()) return fail_status("not valid JSON");
  const json::Object* obj = doc.value().object();
  if (obj == nullptr) return fail_status("top level must be an object");
  for (const char* field :
       {"node", "view", "committed_height", "committed_ops", "txpool",
        "queued_bytes"}) {
    const auto it = obj->find(field);
    if (it == obj->end() || it->second.num() == nullptr) {
      return fail_status(
          (std::string("missing numeric field '") + field + "'").c_str());
    }
  }
  for (const char* field : {"healthy", "recovered", "recovering"}) {
    const auto it = obj->find(field);
    if (it == obj->end() ||
        std::get_if<bool>(&it->second.v) == nullptr) {
      return fail_status(
          (std::string("missing boolean field '") + field + "'").c_str());
    }
  }
  const std::string protocol = json::get_str(*obj, "protocol", "");
  if (protocol != "marlin" && protocol != "hotstuff") {
    return fail_status("protocol must be marlin or hotstuff");
  }
  const auto peers_it = obj->find("peers");
  if (peers_it == obj->end() || peers_it->second.array() == nullptr) {
    return fail_status("missing peers array");
  }
  for (const json::Value& peer : *peers_it->second.array()) {
    const json::Object* p = peer.object();
    if (p == nullptr) return fail_status("peer entry must be an object");
    for (const char* field :
         {"id", "queued_bytes", "high_water_bytes", "backoff_ms"}) {
      const auto it = p->find(field);
      if (it == p->end() || it->second.num() == nullptr) {
        return fail_status(
            (std::string("peer missing numeric field '") + field + "'")
                .c_str());
      }
    }
    const auto c = p->find("connected");
    if (c == p->end() || std::get_if<bool>(&c->second.v) == nullptr) {
      return fail_status("peer missing boolean field 'connected'");
    }
  }
  std::printf("ok: status for node %.0f (%zu peers)\n",
              json::get_num(*obj, "node", -1),
              peers_it->second.array()->size());
  return 0;
}

// ---------------------------------------------------------------------------
// Metric series JSONL: every line is an object with a strictly increasing
// numeric "t" and the four snapshot sections; histogram summaries carry
// their full stat set.
// ---------------------------------------------------------------------------

int fail_series(std::size_t lineno, const char* why) {
  std::fprintf(stderr, "invalid series: line %zu: %s\n", lineno, why);
  return 1;
}

int check_series(std::istream& in) {
  std::size_t snapshots = 0, lineno = 0;
  double last_t = -1;
  std::string line;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    auto doc = json::parse(line);
    if (!doc.is_ok()) return fail_series(lineno, "not valid JSON");
    const json::Object* obj = doc.value().object();
    if (obj == nullptr) return fail_series(lineno, "snapshot must be object");
    const auto t = obj->find("t");
    if (t == obj->end() || t->second.num() == nullptr) {
      return fail_series(lineno, "missing numeric 't'");
    }
    if (*t->second.num() <= last_t) {
      return fail_series(lineno, "'t' not strictly increasing");
    }
    last_t = *t->second.num();
    for (const char* section : {"counters", "gauges"}) {
      const json::Object* s = json::get_object(*obj, section);
      if (s == nullptr) return fail_series(lineno, "missing section");
      for (const auto& [key, v] : *s) {
        if (v.num() == nullptr) {
          return fail_series(lineno, "non-numeric metric value");
        }
      }
    }
    const struct {
      const char* section;
      const char* stats[6];
    } hists[] = {
        {"latency_ms", {"count", "mean", "p50", "p95", "p99", "max"}},
        {"sizes", {"count", "mean", "p50", "p99", "max", nullptr}},
    };
    for (const auto& h : hists) {
      const json::Object* s = json::get_object(*obj, h.section);
      if (s == nullptr) return fail_series(lineno, "missing section");
      for (const auto& [key, v] : *s) {
        const json::Object* stats = v.object();
        if (stats == nullptr) {
          return fail_series(lineno, "histogram entry must be object");
        }
        for (const char* stat : h.stats) {
          if (stat == nullptr) break;
          const auto it = stats->find(stat);
          if (it == stats->end() || it->second.num() == nullptr) {
            return fail_series(lineno, "histogram entry missing stat");
          }
        }
      }
    }
    ++snapshots;
  }
  if (snapshots == 0) {
    std::fprintf(stderr, "invalid series: no snapshots\n");
    return 1;
  }
  std::printf("ok: series with %zu snapshots\n", snapshots);
  return 0;
}

void usage(std::FILE* out) {
  std::fprintf(out,
               "schema_check — validate observability artifacts\n\n"
               "  schema_check spans.json          Chrome trace-event JSON\n"
               "  schema_check metrics.prom        Prometheus exposition\n"
               "  schema_check --trace run.jsonl   protocol trace\n"
               "  schema_check --status FILE       /status JSON document\n"
               "  schema_check --series FILE       JSONL metric series\n");
}

}  // namespace

int main(int argc, char** argv) {
  int (*check)(std::istream&) = nullptr;  // null: pick by the first byte
  std::string path;
  bool help = false;
  cli::ArgCursor args(argc, argv);
  while (args.next()) {
    if (args.flag("--help")) {
      help = true;
    } else if (args.flag("--trace")) {
      check = check_trace;
    } else if (args.flag("--status")) {
      check = check_status;
    } else if (args.flag("--series")) {
      check = check_series;
    } else if (args.current()[0] == '-') {
      args.fail_unknown();
    } else if (path.empty()) {
      path = args.current();
    } else {
      std::fprintf(stderr, "more than one input file\n");
      return 2;
    }
  }
  if (!args.ok()) return 2;
  if (help) {
    usage(stdout);
    return 0;
  }
  if (path.empty()) {
    usage(stderr);
    return 2;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 2;
  }
  if (check == nullptr) {
    check = in.peek() == '{' ? check_spans : check_exposition;
  }
  return check(in);
}
