// metrics_schema_check — schema validator for the telemetry plane's three
// output formats, used by CI to pin what scrapers and dashboards consume:
//
//   metrics_schema_check FILE            Prometheus text exposition
//                                        (GET /metrics, --metrics-out=*.prom)
//   metrics_schema_check --status FILE   /status JSON document
//   metrics_schema_check --series FILE   JSONL metric series
//                                        (marlin_run --metrics-series-out,
//                                        both backends)
//
// Prints one "ok: ..." line and exits 0 on success; prints a pinned
// "invalid ..." diagnostic and exits 1 on a malformed document (exit 2 for
// unreadable files / bad usage).
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "common/json.h"
#include "obs/export.h"

using namespace marlin;

namespace {

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

/// Validates Prometheus text exposition: every line is a comment or a
/// `name{labels} value` sample; label blocks are well-formed; every sample
/// belongs to a `# TYPE`-declared family (directly, via its _sum/_count
/// suffix, or via a quantile label).
int check_exposition(const std::string& body) {
  std::set<std::string> typed;
  std::size_t samples = 0, lineno = 0;
  std::size_t pos = 0;
  while (pos < body.size()) {
    ++lineno;
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
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

int fail_status(const char* why) {
  std::fprintf(stderr, "invalid status: %s\n", why);
  return 1;
}

/// Validates a GET /status document against the fields marlin_top and the
/// CI scrape consume.
int check_status(const std::string& body) {
  auto doc = json::parse(body);
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

int fail_series(std::size_t lineno, const char* why) {
  std::fprintf(stderr, "invalid series: line %zu: %s\n", lineno, why);
  return 1;
}

/// Validates a metric-series JSONL file: every line is an object with a
/// numeric "t" and the four snapshot sections; histogram summaries carry
/// their full stat set. marlin_run writes it on both backends.
int check_series(const std::string& body) {
  std::size_t snapshots = 0, lineno = 0;
  std::size_t pos = 0;
  double last_t = -1;
  while (pos < body.size()) {
    ++lineno;
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
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

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "exposition";
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--status") == 0) {
      mode = "status";
    } else if (std::strcmp(argv[i], "--series") == 0) {
      mode = "series";
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    } else if (path.empty()) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "more than one input file\n");
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: metrics_schema_check [--status|--series] FILE\n");
    return 2;
  }
  std::string body;
  if (!obs::read_text_file(path, &body)) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 2;
  }
  if (mode == "status") return check_status(body);
  if (mode == "series") return check_series(body);
  return check_exposition(body);
}
