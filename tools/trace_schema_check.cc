// trace_schema_check — validates observability artifacts for CI.
//
// Default mode checks a Chrome trace-event JSON file (the --spans-out
// output of marlin_run / trace_inspect) against the minimal schema
// Perfetto needs: the wrapper object, and per event the name/ph/pid/tid
// fields, a known phase type, and non-negative ts/dur on complete events.
// The exporter writes one JSON object per line precisely so this checker
// (and CI) can validate without a full JSON parser.
//
// --trace mode checks a protocol event trace (the --trace-out JSONL of
// marlin_run / chaos_search): every line must parse back into a TraceEvent
// with a known event type — which is how CI catches an exporter emitting a
// type (e.g. replica_restart, state_transfer) the taxonomy doesn't name,
// and monotone non-decreasing sequence numbers.
//
//   trace_schema_check spans.json          # "ok: N events" or exit 1
//   trace_schema_check --trace run.jsonl   # "ok: N trace events" or exit 1
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/export.h"
#include "obs/trace.h"

namespace {

bool field_str(const std::string& line, const char* key, std::string* out) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const auto begin = pos + needle.size();
  const auto close = line.find('"', begin);
  if (close == std::string::npos) return false;
  *out = line.substr(begin, close - begin);
  return true;
}

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

/// Protocol-trace JSONL mode: every line must round-trip through the obs
/// event parser (fixed field order, known event-type name).
int check_protocol_trace(std::ifstream& in) {
  std::string line;
  std::size_t lineno = 0, events = 0;
  std::uint64_t last_seq = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    marlin::obs::TraceEvent e;
    if (!marlin::obs::event_from_json(line, &e)) {
      return fail(lineno, "unparseable trace event (unknown type?)", line);
    }
    if (events > 0 && e.seq < last_seq) {
      return fail(lineno, "sequence number went backwards", line);
    }
    last_seq = e.seq;
    ++events;
  }
  if (events == 0) {
    std::fprintf(stderr, "empty trace\n");
    return 1;
  }
  std::printf("ok: %zu trace events\n", events);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool trace_mode = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      path = nullptr;
      break;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace_mode = true;
    } else {
      path = argv[i];
    }
  }
  if (!path) {
    std::printf("trace_schema_check — validate observability artifacts\n\n"
                "  trace_schema_check spans.json          Chrome trace-event\n"
                "  trace_schema_check --trace run.jsonl   protocol trace\n");
    return argc >= 2 ? 0 : 2;
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 2;
  }
  if (trace_mode) return check_protocol_trace(in);

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
    if (!field_str(body, "name", &name) || name.empty()) {
      return fail(lineno, "missing \"name\"", line);
    }
    if (!field_str(body, "ph", &ph)) {
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
