#include "obs/span.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "obs/block_index.h"
#include "obs/export.h"

namespace marlin::obs {

namespace {

std::string fmt_us(std::int64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1000.0);
  return buf;
}

// Queueing vs wire time of the proposal frames delivered inside a
// broadcast window.
CostKind broadcast_dominant(
    const std::vector<BlockIndex::Delivery>& deliveries, TimePoint begin,
    TimePoint end) {
  std::uint64_t queue = 0, wire = 0;
  auto it = std::lower_bound(
      deliveries.begin(), deliveries.end(), begin,
      [](const BlockIndex::Delivery& d, TimePoint t) { return d.at < t; });
  for (; it != deliveries.end() && it->at <= end; ++it) {
    if (it->kind != kKindProposal) continue;
    queue += it->queue_ns;
    wire += it->transit_ns >= it->queue_ns ? it->transit_ns - it->queue_ns : 0;
  }
  if (queue == 0 && wire == 0) return CostKind::kLink;
  return queue > wire ? CostKind::kQueue : CostKind::kLink;
}

CostKind votes_dominant(const std::vector<BlockIndex::Verify>& verifies,
                        std::uint32_t leader, TimePoint begin, TimePoint end) {
  // The leader serializes quorum-size verification; when its charged
  // crypto CPU covers at least half the round, CPU — not the network —
  // bounds the round.
  std::uint64_t crypto_ns = 0;
  auto lo = std::lower_bound(
      verifies.begin(), verifies.end(), begin,
      [](const BlockIndex::Verify& v, TimePoint t) { return v.at < t; });
  for (; lo != verifies.end() && lo->at <= end; ++lo) {
    if (lo->node == leader) crypto_ns += lo->charge_ns;
  }
  const auto dur = static_cast<std::uint64_t>((end - begin).as_nanos());
  return crypto_ns * 2 >= dur && crypto_ns > 0 ? CostKind::kCrypto
                                               : CostKind::kLink;
}

CostKind commit_dominant(const std::vector<TimePoint>& storage_at,
                         TimePoint begin, TimePoint end) {
  const auto lo = std::lower_bound(storage_at.begin(), storage_at.end(), begin);
  return (lo != storage_at.end() && *lo <= end) ? CostKind::kStorage
                                                : CostKind::kLink;
}

}  // namespace

const char* cost_kind_name(CostKind k) {
  switch (k) {
    case CostKind::kLink:
      return "link";
    case CostKind::kQueue:
      return "queue";
    case CostKind::kCrypto:
      return "crypto";
    case CostKind::kStorage:
      return "storage";
    case CostKind::kUnattributed:
      break;
  }
  return "-";
}

std::vector<BlockSpans> build_spans(const std::vector<TraceEvent>& events) {
  const BlockIndex index = index_blocks(events);

  std::vector<BlockSpans> out;
  out.reserve(index.blocks.size());
  for (const BlockIndex::Block& blk : index.blocks) {
    if (!blk.proposed) continue;  // no lifecycle without a proposal
    const std::uint64_t id = blk.id;

    BlockSpans bs;
    bs.block = id;
    bs.view = blk.view;
    bs.height = blk.height;
    bs.committed = blk.committed;

    auto child = [&](std::string name, TimePoint begin, TimePoint end,
                     CostKind dominant, std::uint32_t node) {
      bs.children.push_back(Span{std::move(name), node, id, blk.view,
                                 blk.height, begin, end, dominant});
    };

    TimePoint begin = blk.prop_at;
    if (blk.batch_wait > Duration::zero()) {
      begin = blk.prop_at - blk.batch_wait;
      child("txpool.wait", begin, blk.prop_at, CostKind::kQueue, blk.leader);
    }
    if (blk.proposals_received > 0 &&
        blk.last_proposal_received >= blk.prop_at) {
      child("proposal.broadcast", blk.prop_at, blk.last_proposal_received,
            broadcast_dominant(index.deliveries, blk.prop_at,
                               blk.last_proposal_received),
            blk.leader);
    }
    for (const BlockIndex::Qc& qc : blk.qcs) {
      auto it = blk.first_vote_sent.find(qc.phase);
      if (it == blk.first_vote_sent.end() || it->second > qc.at) continue;
      child(std::string("votes.") + trace_phase_name(qc.phase), it->second,
            qc.at, votes_dominant(index.verifies, qc.node, it->second, qc.at),
            qc.node);
    }
    if (blk.committed) {
      child("commit.spread", blk.first_commit, blk.last_commit,
            commit_dominant(index.storage_at, blk.first_commit,
                            blk.last_commit),
            blk.leader);
      if (blk.replied && blk.last_reply >= blk.first_commit) {
        child("reply.delivery", blk.first_commit, blk.last_reply,
              CostKind::kLink, blk.leader);
      }
    }

    TimePoint end = blk.prop_at;
    for (const Span& s : bs.children) end = std::max(end, s.end);
    // The umbrella inherits the dominant cost of its longest child.
    CostKind dominant = CostKind::kUnattributed;
    Duration longest = Duration::zero();
    for (const Span& s : bs.children) {
      if (s.duration() >= longest) {
        longest = s.duration();
        dominant = s.dominant;
      }
    }
    bs.umbrella = Span{"block",     blk.leader, id,  blk.view,
                       blk.height,  begin,      end, dominant};
    out.push_back(std::move(bs));
  }
  return out;
}

std::string spans_to_chrome_json(const std::vector<BlockSpans>& blocks) {
  // Lane (tid) per span category keeps each node's timeline readable in
  // Perfetto: one row per lifecycle stage.
  auto lane = [](const std::string& name) -> int {
    if (name == "block") return 0;
    if (name == "txpool.wait") return 1;
    if (name == "proposal.broadcast") return 2;
    if (name.rfind("votes.", 0) == 0) return 3;
    if (name == "commit.spread") return 4;
    return 5;  // reply.delivery
  };
  auto lane_name = [](int l) -> const char* {
    switch (l) {
      case 0:
        return "block";
      case 1:
        return "txpool.wait";
      case 2:
        return "proposal.broadcast";
      case 3:
        return "votes";
      case 4:
        return "commit.spread";
      default:
        return "reply.delivery";
    }
  };

  std::map<std::uint32_t, std::set<int>> lanes_by_node;
  for (const BlockSpans& bs : blocks) {
    lanes_by_node[bs.umbrella.node].insert(0);
    for (const Span& s : bs.children) {
      lanes_by_node[s.node].insert(lane(s.name));
    }
  }

  std::vector<std::string> lines;
  for (const auto& [node, lanes] : lanes_by_node) {
    lines.push_back("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
                    std::to_string(node) +
                    ",\"tid\":0,\"args\":{\"name\":\"node " +
                    std::to_string(node) + "\"}}");
    for (const int l : lanes) {
      lines.push_back("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
                      std::to_string(node) + ",\"tid\":" + std::to_string(l) +
                      ",\"args\":{\"name\":\"" + lane_name(l) + "\"}}");
    }
  }

  auto emit = [&](const Span& s, bool committed) {
    std::string line = "{\"name\":\"" + s.name + "\",\"ph\":\"X\",\"pid\":" +
                       std::to_string(s.node) +
                       ",\"tid\":" + std::to_string(lane(s.name)) +
                       ",\"ts\":" + fmt_us(s.begin.as_nanos()) +
                       ",\"dur\":" + fmt_us(s.duration().as_nanos()) +
                       ",\"args\":{\"block\":\"" + fmt_hex64(s.block) +
                       "\",\"view\":" + std::to_string(s.view) +
                       ",\"height\":" + std::to_string(s.height) +
                       ",\"dominant\":\"" + cost_kind_name(s.dominant) +
                       "\",\"committed\":" + (committed ? "true" : "false") +
                       "}}";
    lines.push_back(std::move(line));
  };
  for (const BlockSpans& bs : blocks) {
    emit(bs.umbrella, bs.committed);
    for (const Span& s : bs.children) emit(s, bs.committed);
  }

  // One JSON object per line (trailing commas between them) so the schema
  // checker can validate line-by-line without a full JSON parser.
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out += lines[i];
    if (i + 1 < lines.size()) out += ',';
    out += '\n';
  }
  out += "]}\n";
  return out;
}

}  // namespace marlin::obs
