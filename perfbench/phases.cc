#include "phases.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "stats.h"

namespace perfbench {

using marlin::TimePoint;
using marlin::obs::EventType;
using marlin::obs::TraceEvent;

namespace {

struct BlockMarks {
  TimePoint dequeued;
  TimePoint proposed;
  TimePoint last_qc;
  bool has_dequeued = false;
  bool has_proposed = false;
  bool has_qc = false;
  std::vector<TimePoint> commits;  // one per replica, in trace order
};

std::uint64_t request_key(std::uint64_t client, std::uint64_t request) {
  return (client << 40) ^ request;
}

double ms(marlin::Duration d) { return d.as_millis_f(); }

}  // namespace

PhaseSplit split_phases(const std::vector<TraceEvent>& events, TimePoint open,
                        TimePoint close, std::uint32_t commit_quorum) {
  std::unordered_map<std::uint64_t, TimePoint> submitted;
  std::unordered_map<std::uint64_t, BlockMarks> blocks;
  std::vector<const TraceEvent*> accepted;
  for (const TraceEvent& e : events) {
    switch (e.type) {
      case EventType::kClientSubmit:
        submitted.try_emplace(request_key(e.b, e.a), e.at);
        break;
      case EventType::kBatchDequeued: {
        BlockMarks& m = blocks[e.block];
        if (!m.has_dequeued) m.dequeued = e.at;
        m.has_dequeued = true;
        break;
      }
      case EventType::kProposalSent: {
        BlockMarks& m = blocks[e.block];
        if (!m.has_proposed) m.proposed = e.at;
        m.has_proposed = true;
        break;
      }
      case EventType::kQcFormed: {
        BlockMarks& m = blocks[e.block];
        // Only QCs formed before the block first commits are on its path.
        if (m.commits.empty()) {
          m.last_qc = e.at;
          m.has_qc = true;
        }
        break;
      }
      case EventType::kCommit:
        blocks[e.block].commits.push_back(e.at);
        break;
      case EventType::kReplyAccepted:
        if (e.at >= open && e.at <= close) accepted.push_back(&e);
        break;
      default:
        break;
    }
  }

  std::vector<double> wait, to_qc, to_commit, reply;
  for (const TraceEvent* e : accepted) {
    auto sub = submitted.find(request_key(e->b, e->a));
    auto blk = blocks.find(e->block);
    if (sub == submitted.end() || blk == blocks.end()) continue;
    BlockMarks& m = blk->second;
    if (!m.has_dequeued || !m.has_proposed || !m.has_qc ||
        m.commits.size() < commit_quorum) {
      continue;
    }
    std::sort(m.commits.begin(), m.commits.end());
    const TimePoint committed = m.commits[commit_quorum - 1];
    wait.push_back(ms(m.dequeued - sub->second));
    to_qc.push_back(ms(m.last_qc - m.proposed));
    to_commit.push_back(ms(committed - m.last_qc));
    reply.push_back(ms(e->at - committed));
  }

  PhaseSplit out;
  out.requests = wait.size();
  out.txpool_wait_ms = median(std::move(wait));
  out.propose_to_qc_ms = median(std::move(to_qc));
  out.qc_to_commit_ms = median(std::move(to_commit));
  out.reply_ms = median(std::move(reply));
  return out;
}

bool trace_wrapped(const std::vector<TraceEvent>& events) {
  std::map<std::uint32_t, std::uint64_t> first_seq;
  for (const TraceEvent& e : events) {
    auto [it, inserted] = first_seq.try_emplace(e.node, e.seq);
    if (!inserted) it->second = std::min(it->second, e.seq);
  }
  for (const auto& [node, seq] : first_seq) {
    if (seq != 0) return true;
  }
  return false;
}

}  // namespace perfbench
