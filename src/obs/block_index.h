// Per-block index of a trace: one pass over the event stream harvests each
// block's lifecycle milestones (proposal, batch wait, votes, QCs, commits,
// client reply) plus the time-ordered side tables the analyses attribute
// cost from (frame deliveries, signature-verify charges, storage writes).
// build_spans and critical_paths both read this one index; each keeps only
// its own windows and attribution rules.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace marlin::obs {

// Wire MsgKind bytes the analyses match kMsgDelivered events on (obs stays
// below the types layer, so it mirrors them; simnet's kind table is the
// authority).
inline constexpr std::uint8_t kKindProposal = 3;
inline constexpr std::uint8_t kKindVote = 4;
inline constexpr std::uint8_t kKindQcNotice = 5;

// types::Phase wire value for PRECOMMIT — present only in HotStuff's
// three-phase pipeline, which is how the analyses tell the shapes apart.
inline constexpr std::uint8_t kPhasePreCommit = 2;

struct BlockIndex {
  struct VoteRecv {
    std::uint64_t seq;
    TimePoint at;
    std::uint32_t sender;
  };
  struct Qc {
    std::uint8_t phase;
    TimePoint at;
    std::uint32_t node;
    std::uint64_t seq;
  };

  struct Block {
    std::uint64_t id = 0;
    ViewNumber view = 0;  // first non-zero view / height seen for the id
    Height height = 0;

    bool proposed = false;  // first kProposalSent
    std::uint32_t leader = kNoNode;
    TimePoint prop_at;

    Duration batch_wait;  // of the last kBatchDequeued; zero without one

    std::uint64_t proposals_received = 0;
    TimePoint last_proposal_received;

    // First kVoteSent per phase (any voter) and per (phase, voter).
    std::map<std::uint8_t, TimePoint> first_vote_sent;
    std::map<std::pair<std::uint8_t, std::uint32_t>, TimePoint> vote_sent;
    // kVoteReceived per phase, in trace order.
    std::map<std::uint8_t, std::vector<VoteRecv>> vote_recv;
    std::vector<Qc> qcs;  // in trace order

    bool committed = false;
    TimePoint first_commit;
    TimePoint last_commit;
    std::uint32_t commit_node = kNoNode;  // node of the first commit

    bool replied = false;
    TimePoint last_reply;
  };

  struct Delivery {  // kMsgDelivered
    TimePoint at;
    std::uint32_t to;
    std::uint32_t from;
    std::uint8_t kind;
    std::uint64_t queue_ns;
    std::uint64_t transit_ns;
  };
  struct Verify {  // kSigVerify
    TimePoint at;
    std::uint32_t node;
    std::uint64_t charge_ns;
  };

  std::vector<Block> blocks;  // in first-touch order
  // Side tables in trace order, which is time order for every trace the
  // stack writes (one simulator clock, or metal's time-sorted merge).
  std::vector<Delivery> deliveries;
  std::vector<Verify> verifies;
  std::vector<TimePoint> storage_at;  // kWalWrite / kSstableWrite / kCheckpoint
};

/// One pass over `events` (trace order). Block 0 — view-change bundles,
/// which carry no single id — is indexed like any other id but never
/// counts as proposed, received or replied.
BlockIndex index_blocks(const std::vector<TraceEvent>& events);

}  // namespace marlin::obs
