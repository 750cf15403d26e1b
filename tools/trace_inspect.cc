// trace_inspect — offline analyzer for JSONL protocol traces produced by
// marlin_run / the benches (obs::trace_to_jsonl format).
//
//   trace_inspect trace.jsonl                 # all reports
//   trace_inspect --report=phases trace.jsonl # per-phase latency only
//   trace_inspect --report=egress --n=4 ...   # per-view leader egress
//
// Reports:
//   summary  — event counts by type, time span, nodes, views
//   phases   — per-block latency from proposal to each QC and to commit
//   egress   — per-view leader egress: messages, bytes, authenticators
//   kinds    — per-kind traffic with authenticators/message (Table I check)
//   timeline — the per-view activity timeline (same as marlin_run --timeline)
//
// Extra outputs:
//   --critical-path      per-block critical-path report (round-trip count,
//                        per-edge queue/wire/cpu attribution)
//   --spans-out=PATH     per-block lifecycle spans as Chrome trace-event
//                        JSON, loadable in Perfetto
//
// Filters (applied before any report):
//   --block=HEXPREFIX    only events whose block id starts with the prefix
//   --view=N             only events of view N
//
// Memory: the input is consumed one line at a time and the summary /
// phases / egress / kinds reports fold each event into O(blocks + views)
// accumulators as it streams past — a multi-gigabyte chaos trace never
// lives in RSS. Only timeline, --critical-path, and --spans-out need the
// whole event vector (they walk it repeatedly), so only those buffer.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/wire_codec.h"
#include "obs/critical_path.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

using namespace marlin;
using obs::EventType;
using obs::TraceEvent;

namespace {

double ms(std::uint64_t nanos) { return static_cast<double>(nanos) / 1e6; }

/// Streaming replica-count inference: protocol events only — kMsgDropped
/// may carry client node ids, which would overestimate the replica count.
struct ReplicaCountAcc {
  std::uint32_t max_node = 0;
  bool any = false;

  void add(const TraceEvent& e) {
    if (e.node == obs::kNoNode) return;
    if (e.type == EventType::kViewEntered || e.type == EventType::kVoteSent ||
        e.type == EventType::kProposalSent) {
      max_node = std::max(max_node, e.node);
      any = true;
    }
  }
  std::uint32_t n() const { return any ? max_node + 1 : 0; }
};

struct SummaryAcc {
  std::uint64_t by_type[obs::kEventTypeCount] = {};
  std::uint64_t min_ns = ~0ull, max_ns = 0;
  ViewNumber max_view = 0;
  std::size_t events = 0;

  void add(const TraceEvent& e) {
    ++events;
    const auto t = static_cast<std::size_t>(e.type);
    if (t < obs::kEventTypeCount) ++by_type[t];
    const std::uint64_t ns = static_cast<std::uint64_t>(e.at.as_nanos());
    min_ns = std::min(min_ns, ns);
    max_ns = std::max(max_ns, ns);
    max_view = std::max(max_view, e.view);
  }

  void print(std::uint32_t n) const {
    std::printf("summary\n");
    std::printf("  events: %zu   span: %.3f ms .. %.3f ms   max view: %llu   "
                "replicas: %u\n",
                events, ms(min_ns), ms(max_ns),
                static_cast<unsigned long long>(max_view), n);
    for (std::size_t t = 0; t < obs::kEventTypeCount; ++t) {
      if (by_type[t] == 0) continue;
      std::printf("  %-20s %10llu\n",
                  obs::event_type_name(static_cast<EventType>(t)),
                  static_cast<unsigned long long>(by_type[t]));
    }
  }
};

/// Per-block milestones: proposal broadcast, each phase's QC, first commit.
/// All milestones fold as time-minimums, so accumulation is order-robust
/// (concatenated or unsorted trace files included).
struct BlockTiming {
  std::uint64_t propose_ns = 0;
  bool proposed = false;
  std::map<std::uint8_t, std::uint64_t> qc_ns;  // phase -> first QC time
  std::uint64_t commit_ns = 0;
  bool committed = false;
};

struct PhasesAcc {
  std::map<std::uint64_t, BlockTiming> blocks;

  void add(const TraceEvent& e) {
    if (e.block == 0) return;
    const std::uint64_t ns = static_cast<std::uint64_t>(e.at.as_nanos());
    switch (e.type) {
      case EventType::kProposalSent: {
        BlockTiming& bt = blocks[e.block];
        if (!bt.proposed || ns < bt.propose_ns) bt.propose_ns = ns;
        bt.proposed = true;
        break;
      }
      case EventType::kQcFormed: {
        BlockTiming& bt = blocks[e.block];
        auto [it, inserted] = bt.qc_ns.try_emplace(e.phase, ns);
        if (!inserted) it->second = std::min(it->second, ns);
        break;
      }
      case EventType::kCommit: {
        BlockTiming& bt = blocks[e.block];
        if (!bt.committed || ns < bt.commit_ns) bt.commit_ns = ns;
        bt.committed = true;
        break;
      }
      default:
        break;
    }
  }

  void print() const {
    // Latency distributions from the proposal broadcast to each milestone.
    std::map<std::uint8_t, obs::ValueHistogram> to_qc;
    obs::ValueHistogram to_commit;
    for (const auto& [block, bt] : blocks) {
      if (!bt.proposed) continue;
      for (const auto& [phase, qc_at] : bt.qc_ns) {
        if (qc_at >= bt.propose_ns) to_qc[phase].record(qc_at - bt.propose_ns);
      }
      if (bt.committed && bt.commit_ns >= bt.propose_ns) {
        to_commit.record(bt.commit_ns - bt.propose_ns);
      }
    }

    std::printf("phase latency (proposal broadcast -> milestone, per block)\n");
    std::printf("  %-22s %7s %9s %9s %9s\n", "milestone", "blocks", "mean_ms",
                "p50_ms", "p95_ms");
    for (const auto& [phase, h] : to_qc) {
      char label[40];
      std::snprintf(label, sizeof label, "qc[%s]",
                    obs::trace_phase_name(phase));
      std::printf("  %-22s %7zu %9.3f %9.3f %9.3f\n", label, h.count(),
                  ms(static_cast<std::uint64_t>(h.mean())),
                  ms(static_cast<std::uint64_t>(h.percentile(50))),
                  ms(static_cast<std::uint64_t>(h.percentile(95))));
    }
    std::printf("  %-22s %7zu %9.3f %9.3f %9.3f\n", "commit",
                to_commit.count(),
                ms(static_cast<std::uint64_t>(to_commit.mean())),
                ms(static_cast<std::uint64_t>(to_commit.percentile(50))),
                ms(static_cast<std::uint64_t>(to_commit.percentile(95))));
  }
};

struct ViewEgress {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t authenticators = 0;
};

/// Leader attribution needs n, which may itself be inferred from the
/// stream — so accumulate per (view, sender) and pick each view's leader
/// row at print time.
struct EgressAcc {
  std::map<std::pair<ViewNumber, std::uint32_t>, ViewEgress> by_view_node;

  void add(const TraceEvent& e) {
    if (e.type != EventType::kMsgSent) return;
    if (e.node == obs::kNoNode) return;
    ViewEgress& v = by_view_node[{e.view, e.node}];
    ++v.msgs;
    v.bytes += e.a;
    v.authenticators += e.b;
  }

  void print(std::uint32_t n) const {
    if (n == 0) {
      std::printf("leader egress: no replica events in trace\n");
      return;
    }
    std::printf("leader egress per view (n=%u, leader = view %% n)\n", n);
    std::printf("  %-8s %-7s %8s %12s %8s\n", "view", "leader", "msgs",
                "bytes", "auths");
    ViewEgress total;
    for (const auto& [key, v] : by_view_node) {
      const auto& [view, node] = key;
      if (node != view % n) continue;  // leader of that view only
      std::printf("  %-8llu %-7llu %8llu %12llu %8llu\n",
                  static_cast<unsigned long long>(view),
                  static_cast<unsigned long long>(view % n),
                  static_cast<unsigned long long>(v.msgs),
                  static_cast<unsigned long long>(v.bytes),
                  static_cast<unsigned long long>(v.authenticators));
      total.msgs += v.msgs;
      total.bytes += v.bytes;
      total.authenticators += v.authenticators;
    }
    std::printf("  %-8s %-7s %8llu %12llu %8llu\n", "total", "",
                static_cast<unsigned long long>(total.msgs),
                static_cast<unsigned long long>(total.bytes),
                static_cast<unsigned long long>(total.authenticators));
  }
};

struct KindsAcc {
  ViewEgress by_kind[net::kNetKindSlots] = {};

  void add(const TraceEvent& e) {
    if (e.type != EventType::kMsgSent) return;
    const std::size_t slot = e.kind < net::kNetKindSlots ? e.kind : 0;
    ++by_kind[slot].msgs;
    by_kind[slot].bytes += e.a;
    by_kind[slot].authenticators += e.b;
  }

  void print() const {
    std::printf("traffic by message kind (authenticators: Table I check)\n");
    std::printf("  %-15s %8s %12s %8s %9s\n", "kind", "msgs", "bytes",
                "auths", "auth/msg");
    for (std::size_t k = 0; k < net::kNetKindSlots; ++k) {
      const ViewEgress& v = by_kind[k];
      if (v.msgs == 0) continue;
      std::printf("  %-15s %8llu %12llu %8llu %9.2f\n",
                  std::string(wire::kind_slot_name(k)).c_str(),
                  static_cast<unsigned long long>(v.msgs),
                  static_cast<unsigned long long>(v.bytes),
                  static_cast<unsigned long long>(v.authenticators),
                  static_cast<double>(v.authenticators) /
                      static_cast<double>(v.msgs));
    }
  }
};

void usage() {
  std::printf(
      "trace_inspect — analyze a JSONL protocol trace\n\n"
      "  trace_inspect [--report=summary|phases|egress|kinds|timeline|all]\n"
      "                [--n=N] [--block=HEXPREFIX] [--view=N]\n"
      "                [--critical-path] [--spans-out=PATH] trace.jsonl\n\n"
      "  --report=R        which report to print (default all)\n"
      "  --n=N             replica count for leader attribution (default:"
      " infer)\n"
      "  --block=HEX       keep only events whose 16-hex block id starts"
      " with HEX\n"
      "  --view=N          keep only events of view N\n"
      "  --critical-path   print the per-block critical-path report\n"
      "  --spans-out=PATH  write lifecycle spans as Chrome trace-event JSON\n"
      "\nsummary/phases/egress/kinds stream the input (constant memory in\n"
      "the trace length); timeline, --critical-path, and --spans-out buffer\n"
      "the events they need to walk.\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string report = "all";
  std::string path;
  std::string block_prefix;
  std::string spans_out;
  bool critical_path = false;
  bool have_view_filter = false;
  ViewNumber view_filter = 0;
  std::uint32_t n = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0) {
      usage();
      return 0;
    } else if (std::strncmp(arg, "--report=", 9) == 0) {
      report = arg + 9;
    } else if (std::strncmp(arg, "--n=", 4) == 0) {
      n = static_cast<std::uint32_t>(std::atoi(arg + 4));
    } else if (std::strncmp(arg, "--block=", 8) == 0) {
      block_prefix = arg + 8;
      for (char& ch : block_prefix) ch = static_cast<char>(std::tolower(ch));
    } else if (std::strncmp(arg, "--view=", 7) == 0) {
      have_view_filter = true;
      view_filter = static_cast<ViewNumber>(std::atoll(arg + 7));
    } else if (std::strncmp(arg, "--spans-out=", 12) == 0) {
      spans_out = arg + 12;
    } else if (std::strcmp(arg, "--critical-path") == 0) {
      critical_path = true;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg);
      return 2;
    } else {
      path = arg;
    }
  }
  if (path.empty()) {
    usage();
    return 2;
  }

  const bool all = report == "all";
  const bool want_summary = all || report == "summary";
  const bool want_phases = all || report == "phases";
  const bool want_egress = all || report == "egress";
  const bool want_kinds = all || report == "kinds";
  const bool want_timeline = all || report == "timeline";
  // Only the reports that walk the event list repeatedly force buffering.
  const bool need_buffer = want_timeline || critical_path || !spans_out.empty();

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }

  ReplicaCountAcc n_acc;
  SummaryAcc summary;
  PhasesAcc phases;
  EgressAcc egress;
  KindsAcc kinds;
  std::vector<TraceEvent> events;  // only filled when need_buffer

  std::string line;
  std::size_t lineno = 0, bad = 0, kept = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    TraceEvent e;
    if (!obs::event_from_json(line, &e)) {
      ++bad;
      continue;
    }
    if (!block_prefix.empty() &&
        obs::fmt_hex64(e.block).rfind(block_prefix, 0) != 0) {
      continue;
    }
    if (have_view_filter && e.view != view_filter) continue;
    ++kept;
    n_acc.add(e);
    if (want_summary) summary.add(e);
    if (want_phases) phases.add(e);
    if (want_egress) egress.add(e);
    if (want_kinds) kinds.add(e);
    if (need_buffer) events.push_back(e);
  }
  if (bad > 0) {
    std::fprintf(stderr, "warning: %zu of %zu lines unparseable\n", bad,
                 lineno);
  }
  if (kept == 0) {
    if (!block_prefix.empty() || have_view_filter) {
      std::fprintf(stderr, "no events match the filters\n");
    } else {
      std::fprintf(stderr, "no events in %s\n", path.c_str());
    }
    return 1;
  }
  if (need_buffer) {
    // The analyses walk events in time order. Written traces already are
    // (a metal trace is a time-sorted merge whose seq restarts per node, so
    // seq order would interleave nodes out of time); the stable sort only
    // repairs concatenated files.
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       return a.at < b.at;
                     });
  }

  if (n == 0) n = n_acc.n();

  bool matched = false;
  if (want_summary) {
    summary.print(n);
    matched = true;
  }
  if (want_phases) {
    if (matched) std::printf("\n");
    phases.print();
    matched = true;
  }
  if (want_egress) {
    if (matched) std::printf("\n");
    egress.print(n);
    matched = true;
  }
  if (want_kinds) {
    if (matched) std::printf("\n");
    kinds.print();
    matched = true;
  }
  if (want_timeline) {
    if (matched) std::printf("\n");
    obs::print_view_timeline(events, std::cout);
    matched = true;
  }
  if (critical_path) {
    if (matched) std::printf("\n");
    std::printf("%s", obs::critical_path_report(events).c_str());
    matched = true;
  }
  if (!spans_out.empty()) {
    const auto spans = obs::build_spans(events);
    if (!obs::write_text_file(spans_out, obs::spans_to_chrome_json(spans))) {
      std::fprintf(stderr, "failed to write %s\n", spans_out.c_str());
      return 2;
    }
    std::printf("%sspans: %zu blocks -> %s\n", matched ? "\n" : "",
                spans.size(), spans_out.c_str());
    matched = true;
  }
  if (!matched) {
    std::fprintf(stderr, "unknown report '%s' (try --help)\n",
                 report.c_str());
    return 2;
  }
  return 0;
}
