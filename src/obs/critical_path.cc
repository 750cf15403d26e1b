#include "obs/critical_path.h"

#include <algorithm>
#include <cstdio>

#include "obs/block_index.h"
#include "obs/export.h"

namespace marlin::obs {

namespace {

double ms(Duration d) { return d.as_millis_f(); }
double ns_to_ms(double ns) { return ns / 1e6; }

// Latest delivery of a `kind` frame from -> to no later than `end`.
const BlockIndex::Delivery* match_delivery(
    const std::vector<BlockIndex::Delivery>& deliveries, std::uint32_t from,
    std::uint32_t to, std::uint8_t kind, TimePoint end) {
  const auto hi = std::upper_bound(
      deliveries.begin(), deliveries.end(), end,
      [](TimePoint t, const BlockIndex::Delivery& d) { return t < d.at; });
  for (auto it = hi; it != deliveries.begin();) {
    --it;
    if (it->to == to && it->from == from && it->kind == kind) return &*it;
  }
  return nullptr;
}

// Decomposes a network edge against its matched delivery of a `kind`
// frame and sets the dominant component. Unmatched edges count entirely
// as wire time.
void attribute_edge(CriticalPathEdge& e,
                    const std::vector<BlockIndex::Delivery>& deliveries,
                    std::uint8_t kind) {
  if (!e.network) {
    e.cpu = e.duration();
    e.dominant = CostKind::kCrypto;
    return;
  }
  const BlockIndex::Delivery* d =
      match_delivery(deliveries, e.from, e.to, kind, e.end);
  if (d == nullptr || d->at < e.begin) {
    e.wire = e.duration();
    e.dominant = CostKind::kLink;
    return;
  }
  e.queue = Duration::nanos(static_cast<std::int64_t>(d->queue_ns));
  const Duration transit =
      Duration::nanos(static_cast<std::int64_t>(d->transit_ns));
  e.wire = transit - e.queue;
  // The frame left the sender's protocol task at (delivery - transit);
  // time before that is sender CPU (charged crypto delaying the send),
  // time after delivery until the handler's milestone is receiver CPU.
  const TimePoint sent = d->at - transit;
  Duration cpu = Duration::zero();
  if (sent > e.begin) cpu += sent - e.begin;
  if (e.end > d->at) cpu += e.end - d->at;
  e.cpu = cpu;
  e.dominant = CostKind::kLink;
  if (e.queue > e.wire && e.queue > e.cpu) e.dominant = CostKind::kQueue;
  if (e.cpu > e.wire && e.cpu >= e.queue) e.dominant = CostKind::kCrypto;
}

/// Canonical edge order for tables (extra labels, if any, go after).
const char* const kCanonicalEdges[] = {
    "txpool.wait",           "proposal.out",
    "vote[prepare].back",    "notice[precommit].out",
    "vote[precommit].back",  "notice[commit].out",
    "vote[commit].back",     "decide.out",
};

std::vector<std::string> table_order(
    const std::map<std::string, ValueHistogram>& a,
    const std::map<std::string, ValueHistogram>& b) {
  std::vector<std::string> order;
  for (const char* label : kCanonicalEdges) {
    if (a.count(label) > 0 || b.count(label) > 0) order.push_back(label);
  }
  auto add_extras = [&order](const std::map<std::string, ValueHistogram>& m) {
    for (const auto& [label, hist] : m) {
      if (std::find(order.begin(), order.end(), label) == order.end()) {
        order.push_back(label);
      }
    }
  };
  add_extras(a);
  add_extras(b);
  return order;
}

}  // namespace

std::vector<CriticalPath> critical_paths(
    const std::vector<TraceEvent>& events) {
  const BlockIndex index = index_blocks(events);
  const std::vector<BlockIndex::Delivery>& deliveries = index.deliveries;

  std::vector<CriticalPath> out;
  for (const BlockIndex::Block& blk : index.blocks) {
    if (!blk.proposed || blk.qcs.empty()) continue;

    CriticalPath p;
    p.block = blk.id;
    p.view = blk.view;
    p.height = blk.height;
    for (const BlockIndex::Qc& qc : blk.qcs) {
      if (qc.phase == kPhasePreCommit) p.three_phase = true;
    }

    bool complete = true;
    if (blk.batch_wait > Duration::zero()) {
      CriticalPathEdge e;
      e.label = "txpool.wait";
      e.from = e.to = blk.leader;
      e.begin = blk.prop_at - blk.batch_wait;
      e.end = blk.prop_at;
      e.queue = e.duration();
      e.dominant = CostKind::kQueue;
      p.edges.push_back(std::move(e));
    }

    TimePoint prev_t = blk.prop_at;
    std::uint32_t prev_node = blk.leader;
    bool first_qc = true;
    for (const BlockIndex::Qc& qc : blk.qcs) {
      // The vote that completed the quorum: last one received before the
      // QC formed.
      const BlockIndex::VoteRecv* completing = nullptr;
      auto vr_it = blk.vote_recv.find(qc.phase);
      if (vr_it != blk.vote_recv.end()) {
        for (const BlockIndex::VoteRecv& vr : vr_it->second) {
          if (vr.seq < qc.seq) completing = &vr;
        }
      }
      auto vs_it = completing == nullptr
                       ? blk.vote_sent.end()
                       : blk.vote_sent.find({qc.phase, completing->sender});
      if (completing == nullptr || vs_it == blk.vote_sent.end() ||
          vs_it->second < prev_t) {
        complete = false;
        break;
      }
      const std::uint32_t voter = completing->sender;
      const char* phase = trace_phase_name(qc.phase);

      CriticalPathEdge out_edge;
      out_edge.label = first_qc ? "proposal.out"
                                : "notice[" + std::string(phase) + "].out";
      out_edge.from = prev_node;
      out_edge.to = voter;
      out_edge.begin = prev_t;
      out_edge.end = vs_it->second;
      out_edge.network = true;
      attribute_edge(out_edge, deliveries,
                     first_qc ? kKindProposal : kKindQcNotice);
      p.edges.push_back(std::move(out_edge));

      CriticalPathEdge back;
      back.label = "vote[" + std::string(phase) + "].back";
      back.from = voter;
      back.to = qc.node;
      back.begin = vs_it->second;
      back.end = completing->at;
      back.network = true;
      back.response = true;
      attribute_edge(back, deliveries, kKindVote);
      p.edges.push_back(std::move(back));

      prev_t = qc.at;
      prev_node = qc.node;
      first_qc = false;
    }

    if (complete && blk.committed && blk.first_commit >= prev_t) {
      CriticalPathEdge e;
      e.label = "decide.out";
      e.from = prev_node;
      e.to = blk.commit_node;
      e.begin = prev_t;
      e.end = blk.first_commit;
      e.network = blk.commit_node != prev_node;
      attribute_edge(e, deliveries, kKindQcNotice);
      p.edges.push_back(std::move(e));
    } else {
      complete = false;
    }

    p.complete = complete;
    if (!p.edges.empty()) {
      p.total = p.edges.back().end - p.edges.front().begin;
    }
    for (const CriticalPathEdge& e : p.edges) {
      if (e.response) ++p.round_trips;
    }
    out.push_back(std::move(p));
  }
  return out;
}

CriticalPathBreakdown aggregate_critical_paths(
    const std::vector<CriticalPath>& paths, bool three_phase) {
  CriticalPathBreakdown b;
  b.three_phase = three_phase;
  for (const CriticalPath& p : paths) {
    if (p.three_phase != three_phase) continue;
    if (!p.complete) {
      ++b.skipped;
      continue;
    }
    if (b.blocks == 0) b.round_trips = p.round_trips;
    ++b.blocks;
    std::uint64_t queue = 0, wire = 0, cpu = 0;
    for (const CriticalPathEdge& e : p.edges) {
      b.edge_ns[e.label].record(
          static_cast<std::uint64_t>(e.duration().as_nanos()));
      queue += static_cast<std::uint64_t>(e.queue.as_nanos());
      wire += static_cast<std::uint64_t>(e.wire.as_nanos());
      cpu += static_cast<std::uint64_t>(e.cpu.as_nanos());
    }
    b.total_ns.record(static_cast<std::uint64_t>(p.total.as_nanos()));
    b.queue_ns.record(queue);
    b.wire_ns.record(wire);
    b.cpu_ns.record(cpu);
  }
  return b;
}

std::string critical_path_to_text(const CriticalPath& p) {
  std::string out = "block " + fmt_hex64(p.block) +
                    " view " + std::to_string(p.view) + " height " +
                    std::to_string(p.height) +
                    (p.three_phase ? "  (three-phase)\n" : "  (two-phase)\n");
  if (!p.complete) out += "  [incomplete: a milestone is missing]\n";
  out +=
      "  edge                     from    to      ms   queue_ms  wire_ms"
      "   cpu_ms  dominant\n";
  for (const CriticalPathEdge& e : p.edges) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %-24s %4d  %4d  %8.3f  %8.3f %8.3f %8.3f  %s\n",
                  e.label.c_str(), static_cast<int>(e.from),
                  static_cast<int>(e.to), ms(e.duration()), ms(e.queue),
                  ms(e.wire), ms(e.cpu), cost_kind_name(e.dominant));
    out += line;
  }
  char tail[96];
  std::snprintf(tail, sizeof(tail),
                "  total: %.3f ms\n  network round trips: %u\n",
                ms(p.total), p.round_trips);
  out += tail;
  return out;
}

std::string breakdown_to_text(const CriticalPathBreakdown& b) {
  std::string out = "critical path breakdown (";
  out += b.three_phase ? "three-phase" : "two-phase";
  out += ", " + std::to_string(b.blocks) + " blocks";
  if (b.skipped > 0) out += ", " + std::to_string(b.skipped) + " skipped";
  out += "):\n";
  if (b.blocks == 0) {
    out += "  no complete critical paths\n";
    return out;
  }
  out += "  edge                      mean_ms    p50_ms    p99_ms\n";
  const auto order = table_order(b.edge_ns, {});
  auto row = [&out](const std::string& label, const ValueHistogram& h) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-24s %9.3f %9.3f %9.3f\n",
                  label.c_str(), ns_to_ms(h.mean()),
                  ns_to_ms(h.percentile(50)), ns_to_ms(h.percentile(99)));
    out += line;
  };
  for (const std::string& label : order) row(label, b.edge_ns.at(label));
  row("total", b.total_ns);
  char line[160];
  std::snprintf(line, sizeof(line),
                "  components (mean): queue %.3f ms  wire %.3f ms  cpu %.3f"
                " ms\n  network round trips: %u\n",
                ns_to_ms(b.queue_ns.mean()), ns_to_ms(b.wire_ns.mean()),
                ns_to_ms(b.cpu_ns.mean()), b.round_trips);
  out += line;
  return out;
}

std::string breakdown_comparison(const CriticalPathBreakdown& marlin,
                                 const CriticalPathBreakdown& hotstuff) {
  std::string out =
      "critical path: marlin (two-phase) vs hotstuff (three-phase)\n";
  out +=
      "  edge                         marlin mean/p50/p99 ms"
      "      hotstuff mean/p50/p99 ms\n";
  auto cell = [](const ValueHistogram* h) -> std::string {
    if (h == nullptr || h->count() == 0) return "-";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f/%.3f/%.3f", ns_to_ms(h->mean()),
                  ns_to_ms(h->percentile(50)), ns_to_ms(h->percentile(99)));
    return buf;
  };
  auto row = [&out](const std::string& label, const std::string& m,
                    const std::string& h) {
    char line[200];
    std::snprintf(line, sizeof(line), "  %-26s %-28s %s\n", label.c_str(),
                  m.c_str(), h.c_str());
    out += line;
  };
  for (const std::string& label :
       table_order(marlin.edge_ns, hotstuff.edge_ns)) {
    auto mi = marlin.edge_ns.find(label);
    auto hi = hotstuff.edge_ns.find(label);
    row(label, cell(mi == marlin.edge_ns.end() ? nullptr : &mi->second),
        cell(hi == hotstuff.edge_ns.end() ? nullptr : &hi->second));
  }
  row("total", cell(&marlin.total_ns), cell(&hotstuff.total_ns));
  row("network round trips", std::to_string(marlin.round_trips),
      std::to_string(hotstuff.round_trips));
  return out;
}

std::string critical_path_report(const std::vector<TraceEvent>& events) {
  const std::vector<CriticalPath> paths = critical_paths(events);
  if (paths.empty()) {
    return "no critical paths (no proposed blocks with QCs in trace)\n";
  }
  std::string out;
  bool have[2] = {false, false};
  for (int shape = 0; shape < 2; ++shape) {
    const bool three = shape == 1;
    const CriticalPathBreakdown b = aggregate_critical_paths(paths, three);
    if (b.blocks == 0 && b.skipped == 0) continue;
    have[shape] = true;
    out += three ? "== hotstuff (three-phase) ==\n" : "== marlin (two-phase) ==\n";
    for (const CriticalPath& p : paths) {
      if (p.three_phase == three && p.complete) {
        out += critical_path_to_text(p);
        break;
      }
    }
    out += breakdown_to_text(b);
    out += "\n";
  }
  if (have[0] && have[1]) {
    out += breakdown_comparison(aggregate_critical_paths(paths, false),
                                aggregate_critical_paths(paths, true));
  }
  return out;
}

}  // namespace marlin::obs
