#include "obs/block_index.h"

#include <unordered_map>

namespace marlin::obs {

BlockIndex index_blocks(const std::vector<TraceEvent>& events) {
  BlockIndex index;
  std::unordered_map<std::uint64_t, std::size_t> slot;  // id -> blocks[i]

  auto touch = [&](const TraceEvent& e) -> BlockIndex::Block& {
    auto [it, inserted] = slot.try_emplace(e.block, index.blocks.size());
    if (inserted) index.blocks.emplace_back().id = e.block;
    BlockIndex::Block& b = index.blocks[it->second];
    if (b.view == 0) b.view = e.view;
    if (b.height == 0) b.height = e.height;
    return b;
  };

  for (const TraceEvent& e : events) {
    switch (e.type) {
      case EventType::kProposalSent: {
        if (e.block == 0) break;
        BlockIndex::Block& b = touch(e);
        if (!b.proposed) {
          b.proposed = true;
          b.leader = e.node;
          b.prop_at = e.at;
        }
        break;
      }
      case EventType::kBatchDequeued:
        touch(e).batch_wait = Duration::nanos(static_cast<std::int64_t>(e.b));
        break;
      case EventType::kProposalReceived: {
        if (e.block == 0) break;
        BlockIndex::Block& b = touch(e);
        ++b.proposals_received;
        b.last_proposal_received = e.at;
        break;
      }
      case EventType::kVoteSent: {
        BlockIndex::Block& b = touch(e);
        b.first_vote_sent.try_emplace(e.phase, e.at);
        b.vote_sent.try_emplace({e.phase, e.node}, e.at);
        break;
      }
      case EventType::kVoteReceived:
        touch(e).vote_recv[e.phase].push_back(
            {e.seq, e.at, static_cast<std::uint32_t>(e.a)});
        break;
      case EventType::kQcFormed:
        touch(e).qcs.push_back({e.phase, e.at, e.node, e.seq});
        break;
      case EventType::kCommit: {
        BlockIndex::Block& b = touch(e);
        if (!b.committed) {
          b.committed = true;
          b.first_commit = e.at;
          b.commit_node = e.node;
        }
        b.last_commit = e.at;
        break;
      }
      case EventType::kReplyAccepted: {
        if (e.block == 0) break;
        BlockIndex::Block& b = touch(e);
        b.replied = true;
        b.last_reply = e.at;
        break;
      }
      case EventType::kMsgDelivered:
        index.deliveries.push_back({e.at, e.node,
                                    static_cast<std::uint32_t>(e.a), e.kind,
                                    e.b, e.c});
        break;
      case EventType::kSigVerify:
        index.verifies.push_back({e.at, e.node, e.c});
        break;
      case EventType::kWalWrite:
      case EventType::kSstableWrite:
      case EventType::kCheckpoint:
        index.storage_at.push_back(e.at);
        break;
      default:
        break;
    }
  }
  return index;
}

}  // namespace marlin::obs
