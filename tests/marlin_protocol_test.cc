// Protocol-level tests for Marlin driven through the deterministic bus
// harness: the two-phase normal case, locking, the rank guards, and every
// view-change case from the paper (happy path; V1 with the virtual block
// winning and losing; V2; V3; replica rules R1/R2/R3), plus adversarial
// message injection.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "consensus/txpool.h"
#include "protocol_harness.h"

namespace marlin::consensus::testing {
namespace {

using types::Block;
using types::BlockRef;
using types::Hash256;
using types::Justify;
using types::MsgKind;
using types::Phase;
using types::QcType;
using types::QuorumCert;

constexpr const char* kDomain = "marlin";

/// Builds a fully-signed QC over a crafted block (test-side forgery using
/// the real suite keys — models Byzantine certificate reuse).
QuorumCert forge_qc(const crypto::SignatureSuite& suite, QcType type,
                    ViewNumber view, const Block& b,
                    std::vector<ReplicaId> signers) {
  QuorumCert qc;
  qc.type = type;
  qc.view = view;
  qc.block_hash = b.hash();
  qc.block_view = b.view;
  qc.height = b.height;
  qc.pview = b.parent_view;
  qc.virtual_block = b.virtual_block;
  const Hash256 digest = qc.signed_digest(kDomain);
  std::vector<crypto::PartialSig> parts;
  for (ReplicaId r : signers) {
    parts.push_back({r, suite.signer(r)->sign(digest.view())});
  }
  auto group = crypto::SigGroup::combine(
      parts, static_cast<std::uint32_t>(signers.size()));
  qc.sigs = std::move(*group);
  return qc;
}

types::ViewChangeMsg forge_view_change(const crypto::SignatureSuite& suite,
                                       ReplicaId sender, ViewNumber view,
                                       const BlockRef& lb, Justify high_qc) {
  types::ViewChangeMsg m;
  m.view = view;
  m.last_voted = lb;
  m.high_qc = std::move(high_qc);
  const Hash256 digest =
      types::vote_digest(kDomain, QcType::kPrepare, view, lb.hash, lb.view,
                         lb.height, lb.pview, lb.virtual_block);
  m.parsig = {sender, suite.signer(sender)->sign(digest.view())};
  return m;
}

Block make_child(const Block& parent, ViewNumber view, Justify justify,
                 std::vector<types::Operation> ops = {}) {
  Block b;
  b.parent_link = parent.hash();
  b.parent_view = parent.view;
  b.view = view;
  b.height = parent.height + 1;
  b.ops = std::move(ops);
  b.justify = std::move(justify);
  return b;
}

// ---------------------------------------------------------------------------
// Normal case
// ---------------------------------------------------------------------------

TEST(MarlinNormal, CommitsAcrossAllReplicas) {
  ProtocolHarness h(Kind::kMarlin);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  for (ReplicaId r = 0; r < h.n(); ++r) {
    ASSERT_EQ(h.delivered(r).size(), 1u) << "replica " << r;
    ASSERT_EQ(h.delivered(r)[0].ops.size(), 1u);
    EXPECT_EQ(h.delivered(r)[0].ops[0].request, 1u);
    EXPECT_EQ(h.replica(r).committed_height(), 1u);
  }
  EXPECT_TRUE(h.all_consistent());
}

TEST(MarlinNormal, TwoVoteRoundsOnly) {
  // Count distinct QC-notice phases: Marlin must emit COMMIT and DECIDE
  // notices but never PRE-COMMIT (HotStuff's third round).
  ProtocolHarness h(Kind::kMarlin);
  std::set<Phase> phases;
  h.set_drop([&](const BusMessage& m) {
    if (auto notice = peek<types::QcNoticeMsg>(m, MsgKind::kQcNotice)) {
      phases.insert(notice->phase);
    }
    return false;
  });
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  EXPECT_TRUE(phases.count(Phase::kCommit));
  EXPECT_TRUE(phases.count(Phase::kDecide));
  EXPECT_FALSE(phases.count(Phase::kPreCommit));
}

TEST(MarlinNormal, PipelinedBlocksInOneView) {
  ProtocolHarness h(Kind::kMarlin);
  h.start_all();
  for (RequestId i = 1; i <= 5; ++i) {
    h.submit_to_all(op_of(1, i));
    h.deliver_all();
  }
  for (ReplicaId r = 0; r < h.n(); ++r) {
    EXPECT_EQ(h.replica(r).committed_height(), 5u);
    EXPECT_EQ(h.replica(r).current_view(), 1u);  // no view change happened
  }
  EXPECT_TRUE(h.all_consistent());
}

TEST(MarlinNormal, ReplicasLockOnPrepareQc) {
  ProtocolHarness h(Kind::kMarlin);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  for (ReplicaId r = 0; r < h.n(); ++r) {
    const QuorumCert& locked = h.marlin(r).locked_qc();
    EXPECT_EQ(locked.view, 1u);
    EXPECT_EQ(locked.height, 1u);
    EXPECT_EQ(locked.type, QcType::kPrepare);
  }
}

TEST(MarlinNormal, LastVotedTracksHighestBlock) {
  ProtocolHarness h(Kind::kMarlin);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  h.submit_to_all(op_of(1, 2));
  h.deliver_all();
  for (ReplicaId r = 0; r < h.n(); ++r) {
    EXPECT_EQ(h.marlin(r).last_voted().height, 2u);
    EXPECT_EQ(h.marlin(r).last_voted().view, 1u);
  }
}

TEST(MarlinNormal, ProposalFromNonLeaderIgnored) {
  ProtocolHarness h(Kind::kMarlin);
  h.start_all();
  h.deliver_all();

  // Replica 3 (not the view-1 leader) forges a valid-looking proposal.
  Block genesis = Block::genesis();
  Block b = make_child(genesis, 1,
                       Justify{QuorumCert::genesis(genesis.hash()), {}},
                       {op_of(9, 9)});
  types::ProposalMsg msg;
  msg.phase = Phase::kPrepare;
  msg.view = 1;
  msg.entries.push_back({b, b.justify});

  std::size_t votes = 0;
  h.set_drop([&](const BusMessage& m) {
    if (m.envelope.kind() == MsgKind::kVote) ++votes;
    return false;
  });
  for (ReplicaId r = 0; r < h.n(); ++r) {
    h.post(3, r, types::make_envelope(MsgKind::kProposal, msg));
  }
  h.deliver_all();
  EXPECT_EQ(votes, 0u);
}

TEST(MarlinNormal, ProposalWithInvalidQcIgnored) {
  ProtocolHarness h(Kind::kMarlin);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();  // height 1 committed

  // Leader-impersonating proposal justified by a corrupted-signature QC
  // over a block no honest quorum ever certified.
  const Block* tip = h.replica(0).store().get(h.replica(0).committed_hash());
  ASSERT_NE(tip, nullptr);
  Block fake = make_child(*tip, 1, Justify{}, {op_of(4, 4)});
  QuorumCert bad = forge_qc(h.suite(), QcType::kPrepare, 1, fake, {0, 2, 3});
  bad.sigs.parts[0].sig[5] ^= 0x01;
  Block b = make_child(fake, 1, Justify{bad, {}}, {op_of(5, 5)});
  types::ProposalMsg msg;
  msg.phase = Phase::kPrepare;
  msg.view = 1;
  msg.entries.push_back({b, b.justify});

  std::size_t votes = 0;
  h.set_drop([&](const BusMessage& m) {
    if (m.envelope.kind() == MsgKind::kVote) ++votes;
    return false;
  });
  h.post(1, 0, types::make_envelope(MsgKind::kProposal, msg));
  h.deliver_all();
  EXPECT_EQ(votes, 0u);
}

TEST(MarlinNormal, StaleViewMessagesIgnored) {
  ProtocolHarness h(Kind::kMarlin);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  h.timeout_all();  // view 2
  h.deliver_all();

  // A view-1 commit notice (old leader 1) arrives late: no one votes.
  const Block* tip = h.replica(0).store().get(h.replica(0).committed_hash());
  QuorumCert qc = forge_qc(h.suite(), QcType::kPrepare, 1, *tip, {0, 1, 2});
  types::QcNoticeMsg notice{Phase::kCommit, 1, qc, {}};
  std::size_t votes = 0;
  h.set_drop([&](const BusMessage& m) {
    if (m.envelope.kind() == MsgKind::kVote) ++votes;
    return false;
  });
  h.post(1, 0, types::make_envelope(MsgKind::kQcNotice, notice));
  h.deliver_all();
  EXPECT_EQ(votes, 0u);
}

TEST(MarlinNormal, DuplicateDecideIsIdempotent) {
  ProtocolHarness h(Kind::kMarlin);
  types::QcNoticeMsg decide;
  bool captured = false;
  h.set_drop([&](const BusMessage& m) {
    if (auto n = peek<types::QcNoticeMsg>(m, MsgKind::kQcNotice)) {
      if (n->phase == Phase::kDecide && !captured) {
        decide = *n;
        captured = true;
      }
    }
    return false;
  });
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  ASSERT_TRUE(captured);
  const auto committed = h.replica(0).committed_blocks();
  h.post(1, 0, types::make_envelope(MsgKind::kQcNotice, decide));
  h.deliver_all();
  EXPECT_EQ(h.replica(0).committed_blocks(), committed);
  EXPECT_FALSE(h.replica(0).safety_violated());
}

TEST(MarlinNormal, ForkingSecondProposalSameHeightRejected) {
  ProtocolHarness h(Kind::kMarlin);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();

  // The leader equivocates: a second, different block at the same height
  // justified by the same (genuine) justify. Replicas already voted at
  // that height — the block-rank guard must reject it.
  const Block* committed =
      h.replica(0).store().get(h.replica(0).committed_hash());
  const Block* genesis =
      h.replica(0).store().get(h.replica(0).store().genesis_hash());
  ASSERT_TRUE(committed->justify.qc.has_value());
  Block fork = make_child(*genesis, 1, committed->justify, {op_of(7, 7)});

  types::ProposalMsg msg;
  msg.phase = Phase::kPrepare;
  msg.view = 1;
  msg.entries.push_back({fork, fork.justify});
  std::size_t votes = 0;
  h.set_drop([&](const BusMessage& m) {
    if (m.envelope.kind() == MsgKind::kVote) ++votes;
    return false;
  });
  h.post(1, 0, types::make_envelope(MsgKind::kProposal, msg));
  h.post(1, 2, types::make_envelope(MsgKind::kProposal, msg));
  h.deliver_all();
  EXPECT_EQ(votes, 0u);
  EXPECT_TRUE(h.all_consistent());
}

// ---------------------------------------------------------------------------
// View change: happy path
// ---------------------------------------------------------------------------

TEST(MarlinViewChange, HappyPathSkipsPrePrepare) {
  ProtocolHarness h(Kind::kMarlin);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();

  std::size_t preprepare_proposals = 0;
  h.set_drop([&](const BusMessage& m) {
    if (auto p = peek<types::ProposalMsg>(m, MsgKind::kProposal)) {
      if (p->phase == Phase::kPrePrepare) ++preprepare_proposals;
    }
    return false;
  });

  h.submit_to_all(op_of(1, 2));  // pending work for the new leader
  h.timeout_all();               // everyone moves to view 2 (leader 2)
  h.deliver_all();

  EXPECT_EQ(h.marlin(2).happy_view_changes(), 1u);
  EXPECT_EQ(h.marlin(2).unhappy_view_changes(), 0u);
  EXPECT_EQ(preprepare_proposals, 0u);
  for (ReplicaId r = 0; r < h.n(); ++r) {
    EXPECT_EQ(h.replica(r).current_view(), 2u);
    EXPECT_EQ(h.replica(r).committed_height(), 2u);
  }
  EXPECT_TRUE(h.all_consistent());
}

TEST(MarlinViewChange, HappyPathFromGenesis) {
  // View change before anything ever committed: all lb = genesis.
  ProtocolHarness h(Kind::kMarlin);
  h.start_all();
  h.deliver_all();
  h.submit_to_all(op_of(1, 1));
  h.timeout_all();
  h.deliver_all();
  EXPECT_EQ(h.marlin(2).happy_view_changes(), 1u);
  for (ReplicaId r = 0; r < h.n(); ++r) {
    EXPECT_EQ(h.replica(r).committed_height(), 1u);
  }
  EXPECT_TRUE(h.all_consistent());
}

TEST(MarlinViewChange, SuccessiveViewChanges) {
  ProtocolHarness h(Kind::kMarlin);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  for (int round = 0; round < 4; ++round) {
    h.submit_to_all(op_of(1, 2 + round));
    h.timeout_all();
    h.deliver_all();
  }
  for (ReplicaId r = 0; r < h.n(); ++r) {
    EXPECT_EQ(h.replica(r).current_view(), 5u);
    EXPECT_EQ(h.replica(r).committed_height(), 5u);
  }
  EXPECT_TRUE(h.all_consistent());
}

// ---------------------------------------------------------------------------
// View change: unhappy paths
// ---------------------------------------------------------------------------

TEST(MarlinViewChange, UnhappyV2SingleProposal) {
  ReplicaConfig cfg;
  cfg.disable_happy_path = true;
  ProtocolHarness h(Kind::kMarlin, 1, cfg);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();

  std::size_t preprepare_entries = 0;
  h.set_drop([&](const BusMessage& m) {
    if (auto p = peek<types::ProposalMsg>(m, MsgKind::kProposal)) {
      if (p->phase == Phase::kPrePrepare && m.to == 0) {
        preprepare_entries = p->entries.size();
      }
    }
    return false;
  });

  h.submit_to_all(op_of(1, 2));
  h.timeout_all();
  h.deliver_all();

  EXPECT_EQ(h.marlin(2).unhappy_view_changes(), 1u);
  // All lb identical and equal to block(highQC): Case V2 — one proposal.
  EXPECT_EQ(preprepare_entries, 1u);
  for (ReplicaId r = 0; r < h.n(); ++r) {
    EXPECT_EQ(h.replica(r).committed_height(), 2u);
  }
  EXPECT_TRUE(h.all_consistent());
}

TEST(MarlinViewChange, UnhappyV1ProposesShadowPair) {
  // Some replica voted past the leader's snapshot: the leader must propose
  // a normal block AND a virtual block sharing the op batch.
  ReplicaConfig cfg;
  cfg.disable_happy_path = true;
  ProtocolHarness h(Kind::kMarlin, 1, cfg);

  // Phase 1: commit block 1, then propose block 2 but suppress the COMMIT
  // notices so nobody's highQC advances to prepareQC(b2).
  bool suppress_commit_h2 = false;
  h.set_drop([&](const BusMessage& m) {
    if (!suppress_commit_h2) return false;
    if (auto n = peek<types::QcNoticeMsg>(m, MsgKind::kQcNotice)) {
      return (n->phase == Phase::kCommit || n->phase == Phase::kDecide) &&
             n->qc.height == 2;
    }
    return false;
  });

  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  suppress_commit_h2 = true;
  h.submit_to_all(op_of(1, 2));
  h.deliver_all();
  // Everyone voted b2 (lb = height 2) but highQC stayed at prepareQC(h1).
  for (ReplicaId r = 0; r < h.n(); ++r) {
    if (r == 1) continue;  // the leader formed prepareQC(b2) itself
    EXPECT_EQ(h.marlin(r).last_voted().height, 2u);
    EXPECT_EQ(h.marlin(r).high_qc().qc->height, 1u);
  }

  // Phase 2: old leader 1 goes silent; view 2 with leader 2. Its snapshot
  // {0, 2, 3} has highQC at height 1 but lb at height 2 → Case V1.
  h.crash(1);
  std::size_t shadow_entries = 0;
  bool has_virtual = false;
  std::vector<types::Operation> ops_normal, ops_virtual;
  h.set_drop([&](const BusMessage& m) {
    if (auto p = peek<types::ProposalMsg>(m, MsgKind::kProposal)) {
      if (p->phase == Phase::kPrePrepare && m.to == 0) {
        shadow_entries = p->entries.size();
        for (const auto& e : p->entries) {
          if (e.block.virtual_block) {
            has_virtual = true;
            ops_virtual = e.block.ops;
          } else {
            ops_normal = e.block.ops;
          }
        }
      }
    }
    return false;
  });
  h.submit_to_all(op_of(1, 3));
  h.timeout(0);
  h.timeout(2);
  h.timeout(3);
  h.deliver_all();

  EXPECT_EQ(h.marlin(2).unhappy_view_changes(), 1u);
  EXPECT_EQ(shadow_entries, 2u);
  EXPECT_TRUE(has_virtual);
  EXPECT_EQ(ops_normal, ops_virtual);  // shadow blocks share the batch

  // The view resolves and the cluster keeps committing, consistently.
  for (ReplicaId r : {0u, 2u, 3u}) {
    EXPECT_GE(h.replica(r).committed_height(), 2u) << "replica " << r;
  }
  EXPECT_TRUE(h.all_consistent());
}

TEST(MarlinViewChange, V1VirtualBlockWinsAndCommitsHiddenBlock) {
  // The paper's Fig. 2c end-to-end: a replica locked past the leader's
  // snapshot votes for the virtual block via R2; the virtual block forms a
  // pre-prepareQC, acquires its real parent through `vc`, and committing
  // it also commits the "hidden" block early.
  ReplicaConfig cfg;
  cfg.disable_happy_path = true;
  ProtocolHarness h(Kind::kMarlin, 1, cfg);

  // Stage A: commit b1 (h1). Then propose b2 (h2); let the COMMIT notice
  // for b2 reach only replica 0 → only replica 0 (and leader 1) lock b2.
  int stage = 0;
  Hash256 b2_hash{};
  h.set_drop([&](const BusMessage& m) {
    if (stage == 1) {
      if (auto n = peek<types::QcNoticeMsg>(m, MsgKind::kQcNotice)) {
        if (n->phase == Phase::kCommit && n->qc.height == 2) {
          b2_hash = n->qc.block_hash;
          return m.to != 0;  // deliver to replica 0 only
        }
        if (n->phase == Phase::kDecide && n->qc.height == 2) return true;
      }
    }
    if (stage == 2) {
      // Unsafe snapshot: drop replica 0's VIEW-CHANGE to the new leader.
      if (m.envelope.kind() == MsgKind::kViewChange && m.from == 0) return true;
      // Force the virtual path: drop replica 3's pre-prepare vote for the
      // normal (non-virtual) block.
      if (auto v = peek<types::VoteMsg>(m, MsgKind::kVote)) {
        if (v->phase == Phase::kPrePrepare && m.from == 3) {
          const Block* b = h.replica(3).store().get(v->block_hash);
          if (b && !b->virtual_block) return true;
        }
      }
    }
    return false;
  });

  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  stage = 1;
  h.submit_to_all(op_of(1, 2));
  h.deliver_all();
  ASSERT_FALSE(b2_hash.is_zero());
  EXPECT_EQ(h.marlin(0).locked_qc().height, 2u);  // 0 locked on b2
  EXPECT_EQ(h.marlin(2).locked_qc().height, 1u);

  // Stage B: old leader vanishes; replica 1's VIEW-CHANGE is forged to
  // hide its QC (the Byzantine "hide the latest QC" behaviour, Fig. 2).
  stage = 2;
  h.crash(1);
  h.submit_to_all(op_of(1, 3));
  h.timeout(0);
  h.timeout(2);
  h.timeout(3);

  // Forged VC from replica 1 claiming lb = the height-1 block.
  const Block* b1 = h.replica(2).store().get(h.replica(2).committed_hash());
  ASSERT_NE(b1, nullptr);
  ASSERT_EQ(b1->height, 1u);
  QuorumCert qc_b1 = forge_qc(h.suite(), QcType::kPrepare, 1, *b1, {0, 2, 3});
  h.post_bypassing(
      1, 2,
      types::make_envelope(MsgKind::kViewChange,
                           forge_view_change(h.suite(), 1, 2,
                                             BlockRef::of(*b1),
                                             Justify{qc_b1, {}})));
  h.deliver_all();

  // The virtual path must have resolved the view and committed BOTH the
  // hidden b2 and the virtual block.
  EXPECT_EQ(h.marlin(2).unhappy_view_changes(), 1u);
  for (ReplicaId r : {0u, 2u, 3u}) {
    EXPECT_GE(h.replica(r).committed_height(), 3u) << "replica " << r;
    EXPECT_TRUE(h.replica(r).store().extends(h.replica(r).committed_hash(),
                                             b2_hash))
        << "replica " << r << " must have committed through b2";
  }
  // The committed tip is the virtual block.
  const Block* tip = h.replica(2).store().get(h.replica(2).committed_hash());
  ASSERT_NE(tip, nullptr);
  EXPECT_TRUE(tip->virtual_block);
  EXPECT_TRUE(h.all_consistent());
}

TEST(MarlinViewChange, V3TwoPrePrepareQcsYieldTwoChildren) {
  // Forge the Lemma-4 Case-3 snapshot: two pre-prepareQCs of equal rank
  // (one for a normal block, one for a virtual block with its vc) reach
  // the new leader; it must extend both.
  ProtocolHarness h(Kind::kMarlin);
  h.start_all();
  h.deliver_all();

  const Block genesis = Block::genesis();
  const QuorumCert genesis_qc = QuorumCert::genesis(genesis.hash());

  // Crafted history: A(h1,v1) → B(h2,v1); N(h2,v2) child of A; V(h3,v2)
  // virtual with real parent B.
  Block a = make_child(genesis, 1, Justify{genesis_qc, {}}, {op_of(1, 1)});
  QuorumCert qc_a = forge_qc(h.suite(), QcType::kPrepare, 1, a, {0, 1, 2});
  Block b = make_child(a, 1, Justify{qc_a, {}}, {op_of(1, 2)});
  QuorumCert qc_b = forge_qc(h.suite(), QcType::kPrepare, 1, b, {0, 1, 2});

  Block n_block = make_child(a, 2, Justify{qc_a, {}}, {op_of(1, 3)});
  QuorumCert pp_n =
      forge_qc(h.suite(), QcType::kPrePrepare, 2, n_block, {0, 1, 2});

  Block v_block;
  v_block.parent_link = Hash256{};
  v_block.parent_view = qc_a.view;
  v_block.view = 2;
  v_block.height = 3;
  v_block.virtual_block = true;
  v_block.ops = {op_of(1, 3)};
  v_block.justify = Justify{qc_a, {}};
  QuorumCert pp_v =
      forge_qc(h.suite(), QcType::kPrePrepare, 2, v_block, {0, 1, 2});

  std::size_t entries_seen = 0;
  bool child_of_n = false, child_of_v = false, vc_attached = false;
  h.set_drop([&](const BusMessage& m) {
    if (auto p = peek<types::ProposalMsg>(m, MsgKind::kProposal)) {
      if (p->phase == Phase::kPrePrepare && m.to == 0) {
        entries_seen = p->entries.size();
        for (const auto& e : p->entries) {
          if (e.block.parent_link == n_block.hash()) child_of_n = true;
          if (e.block.parent_link == v_block.hash()) {
            child_of_v = true;
            vc_attached = e.justify.vc.has_value();
          }
        }
      }
    }
    return false;
  });

  // Feed the forged snapshot to view-3 leader (replica 3).
  h.post_bypassing(
      0, 3,
      types::make_envelope(MsgKind::kViewChange,
                           forge_view_change(h.suite(), 0, 3,
                                             BlockRef::of(n_block),
                                             Justify{pp_n, {}})));
  h.post_bypassing(
      1, 3,
      types::make_envelope(MsgKind::kViewChange,
                           forge_view_change(h.suite(), 1, 3,
                                             BlockRef::of(v_block),
                                             Justify{pp_v, qc_b})));
  h.post_bypassing(
      2, 3,
      types::make_envelope(MsgKind::kViewChange,
                           forge_view_change(h.suite(), 2, 3, BlockRef::of(b),
                                             Justify{qc_b, {}})));
  h.deliver_all();

  EXPECT_EQ(h.marlin(3).unhappy_view_changes(), 1u);
  EXPECT_EQ(entries_seen, 2u);
  EXPECT_TRUE(child_of_n);
  EXPECT_TRUE(child_of_v);
  EXPECT_TRUE(vc_attached);

  // Give everyone the crafted bodies so the decided branch can execute.
  for (ReplicaId r = 0; r < h.n(); ++r) {
    for (const Block* blk : {&a, &b, &n_block, &v_block}) {
      h.post_bypassing(0, r,
                       types::make_envelope(MsgKind::kFetchResponse,
                                            types::FetchResponseMsg{*blk}));
    }
  }
  h.deliver_all();
  for (ReplicaId r = 0; r < h.n(); ++r) {
    EXPECT_GE(h.replica(r).committed_height(), 3u) << "replica " << r;
  }
  EXPECT_TRUE(h.all_consistent());
}

TEST(MarlinViewChange, R3LockedReplicaVotesForChildOfLockedBlock) {
  ProtocolHarness h(Kind::kMarlin);
  h.start_all();
  h.deliver_all();

  const Block genesis = Block::genesis();
  const QuorumCert genesis_qc = QuorumCert::genesis(genesis.hash());
  Block x = make_child(genesis, 2, Justify{genesis_qc, {}}, {op_of(1, 1)});
  QuorumCert prepare_x = forge_qc(h.suite(), QcType::kPrepare, 2, x, {1, 2, 3});
  QuorumCert pp_x = forge_qc(h.suite(), QcType::kPrePrepare, 2, x, {1, 2, 3});

  // Lock replica 0 on prepareQC(X): a COMMIT notice from view 2's leader.
  types::QcNoticeMsg lock_notice{Phase::kCommit, 2, prepare_x, {}};
  h.post(2, 0, types::make_envelope(MsgKind::kQcNotice, lock_notice));
  h.deliver_all();
  ASSERT_EQ(h.marlin(0).locked_qc().block_hash, x.hash());

  // View 3 leader proposes a child of X justified by X's pre-prepareQC.
  // R1 fails for replica 0 (prepare outranks pre-prepare at equal view)
  // but R3 must fire.
  Block child = make_child(x, 3, Justify{pp_x, {}}, {op_of(1, 2)});
  types::ProposalMsg msg;
  msg.phase = Phase::kPrePrepare;
  msg.view = 3;
  msg.entries.push_back({child, child.justify});

  bool voted = false;
  h.set_drop([&](const BusMessage& m) {
    if (auto v = peek<types::VoteMsg>(m, MsgKind::kVote)) {
      if (m.from == 0 && v->phase == Phase::kPrePrepare &&
          v->block_hash == child.hash()) {
        voted = true;
      }
    }
    return false;
  });
  // Move replica 0 to view 3 first (f+1 forged view-change messages).
  for (ReplicaId s : {1u, 2u}) {
    h.post_bypassing(
        s, 0,
        types::make_envelope(MsgKind::kViewChange,
                             forge_view_change(h.suite(), s, 3,
                                               BlockRef::of(x),
                                               Justify{prepare_x, {}})));
  }
  h.deliver_all();
  ASSERT_EQ(h.replica(0).current_view(), 3u);
  h.post(3, 0, types::make_envelope(MsgKind::kProposal, msg));
  h.deliver_all();
  EXPECT_TRUE(voted);
}

TEST(MarlinViewChange, R1RejectedWhenJustifyBelowLock) {
  ProtocolHarness h(Kind::kMarlin);
  h.start_all();
  h.deliver_all();

  const Block genesis = Block::genesis();
  const QuorumCert genesis_qc = QuorumCert::genesis(genesis.hash());
  Block x = make_child(genesis, 2, Justify{genesis_qc, {}}, {op_of(1, 1)});
  QuorumCert prepare_x = forge_qc(h.suite(), QcType::kPrepare, 2, x, {1, 2, 3});

  types::QcNoticeMsg lock_notice{Phase::kCommit, 2, prepare_x, {}};
  h.post(2, 0, types::make_envelope(MsgKind::kQcNotice, lock_notice));
  h.deliver_all();

  // Child of genesis justified only by the genesis QC: below the lock, not
  // a virtual R2 shape, not the locked block's pre-prepareQC → no vote.
  Block stale = make_child(genesis, 3, Justify{genesis_qc, {}}, {op_of(9, 1)});
  types::ProposalMsg msg;
  msg.phase = Phase::kPrePrepare;
  msg.view = 3;
  msg.entries.push_back({stale, stale.justify});

  bool voted = false;
  h.set_drop([&](const BusMessage& m) {
    if (m.envelope.kind() == MsgKind::kVote && m.from == 0) voted = true;
    return false;
  });
  for (ReplicaId s : {1u, 2u}) {
    h.post_bypassing(
        s, 0,
        types::make_envelope(MsgKind::kViewChange,
                             forge_view_change(h.suite(), s, 3,
                                               BlockRef::of(x),
                                               Justify{prepare_x, {}})));
  }
  h.deliver_all();
  h.post(3, 0, types::make_envelope(MsgKind::kProposal, msg));
  h.deliver_all();
  EXPECT_FALSE(voted);
}

TEST(MarlinViewChange, PrePrepareVoteDoesNotMoveLockOrLb) {
  ReplicaConfig cfg;
  cfg.disable_happy_path = true;
  ProtocolHarness h(Kind::kMarlin, 1, cfg);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();

  const auto locked_before = h.marlin(0).locked_qc();
  const auto lb_before = h.marlin(0).last_voted();

  // Run the view change but freeze it right after the PRE-PREPARE votes:
  // drop the leader's PREPARE notice.
  h.set_drop([&](const BusMessage& m) {
    if (auto n = peek<types::QcNoticeMsg>(m, MsgKind::kQcNotice)) {
      return n->phase == Phase::kPrepare;
    }
    return false;
  });
  h.submit_to_all(op_of(1, 2));
  h.timeout_all();
  h.deliver_all();

  EXPECT_EQ(h.marlin(0).locked_qc(), locked_before);
  EXPECT_EQ(h.marlin(0).last_voted(), lb_before);
}

TEST(MarlinViewChange, FPlusOneViewChangesForceAdoption) {
  ProtocolHarness h(Kind::kMarlin);
  h.start_all();
  h.deliver_all();
  ASSERT_EQ(h.replica(0).current_view(), 1u);

  const Block genesis = Block::genesis();
  BlockRef lb{genesis.hash(), 0, 0, 0, false};
  const QuorumCert genesis_qc = QuorumCert::genesis(genesis.hash());
  // f + 1 = 2 view-change messages for view 7 → replica 0 must join.
  for (ReplicaId s : {1u, 2u}) {
    h.post(s, 0,
           types::make_envelope(MsgKind::kViewChange,
                                forge_view_change(h.suite(), s, 7, lb,
                                                  Justify{genesis_qc, {}})));
  }
  h.deliver_all();
  EXPECT_EQ(h.replica(0).current_view(), 7u);
}

TEST(MarlinViewChange, SingleViewChangeDoesNotForceAdoption) {
  ProtocolHarness h(Kind::kMarlin);
  h.start_all();
  h.deliver_all();
  const Block genesis = Block::genesis();
  BlockRef lb{genesis.hash(), 0, 0, 0, false};
  h.post(1, 0,
         types::make_envelope(
             MsgKind::kViewChange,
             forge_view_change(h.suite(), 1, 7, lb,
                               Justify{QuorumCert::genesis(genesis.hash()),
                                       {}})));
  h.deliver_all();
  EXPECT_EQ(h.replica(0).current_view(), 1u);
}

TEST(MarlinViewChange, LaggingReplicaSyncsViaProposal) {
  ProtocolHarness h(Kind::kMarlin);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();

  // Replica 0 misses the view change entirely.
  h.set_drop([&](const BusMessage& m) { return m.to == 0; });
  h.submit_to_all(op_of(1, 2));
  h.timeout(1);
  h.timeout(2);
  h.timeout(3);
  h.deliver_all();
  ASSERT_EQ(h.replica(0).current_view(), 1u);
  ASSERT_EQ(h.replica(2).current_view(), 2u);

  // Heal: the next proposal in view 2 pulls replica 0 forward.
  h.set_drop(nullptr);
  h.submit_to_all(op_of(1, 3));
  h.deliver_all();
  EXPECT_EQ(h.replica(0).current_view(), 2u);
  EXPECT_EQ(h.replica(0).committed_height(),
            h.replica(2).committed_height());
  EXPECT_TRUE(h.all_consistent());
}

TEST(MarlinViewChange, ForgedViewChangeWithBadSigIgnored) {
  ProtocolHarness h(Kind::kMarlin);
  h.start_all();
  h.deliver_all();
  const Block genesis = Block::genesis();
  BlockRef lb{genesis.hash(), 0, 0, 0, false};
  auto m = forge_view_change(h.suite(), 1, 7, lb,
                             Justify{QuorumCert::genesis(genesis.hash()), {}});
  m.parsig.sig[3] ^= 0xff;
  for (ReplicaId s : {1u, 2u}) {
    auto copy = m;
    copy.parsig.signer = s;  // claim different senders, same bad sig
    h.post(s, 0, types::make_envelope(MsgKind::kViewChange, copy));
  }
  h.deliver_all();
  EXPECT_EQ(h.replica(0).current_view(), 1u);
}

// ---------------------------------------------------------------------------
// TxPool / VoteCollector units
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Block identity from the frame
// ---------------------------------------------------------------------------

TEST(FramedDigests, MatchEncodeThenHashOnEveryPath) {
  for (Kind kind : {Kind::kMarlin, Kind::kHotStuff}) {
    ProtocolHarness h(kind);
    h.start_all();
    std::map<MsgKind, std::size_t> checked;
    // Before each delivery, open the head frame as its receiver will and
    // compare every pinned digest with encode-then-hash (a copy drops the
    // pinned digest and re-encodes).
    auto pump = [&] {
      while (!h.queue().empty()) {
        const types::Envelope& env = h.queue().front().envelope;
        for (const Block& b : framed_blocks(env)) {
          EXPECT_EQ(b.hash(), Block(b).hash());
          ++checked[env.kind()];
        }
        h.step();
      }
    };
    RequestId next = 1;
    auto commit_blocks = [&](int count) {
      for (int i = 0; i < count; ++i) {
        h.submit_to_all(op_of(1, next, 64 + next % 7));
        ++next;
        pump();
      }
    };
    commit_blocks(3);
    // A short outage ends in fetches; a long one (more than a fetch batch
    // behind) in a snapshot.
    for (int outage : {5, 80}) {
      h.set_drop([](const BusMessage& m) { return m.to == 3; });
      commit_blocks(outage);
      h.set_drop(nullptr);
      commit_blocks(2);
    }
    EXPECT_EQ(h.replica(3).committed_height(), h.replica(0).committed_height());
    EXPECT_GT(checked[MsgKind::kProposal], 0u);
    EXPECT_GT(checked[MsgKind::kFetchResponse], 0u);
    EXPECT_GT(checked[MsgKind::kSnapshotResponse], 0u);
    EXPECT_TRUE(h.all_consistent());
  }
}

TEST(TxPool, DeduplicatesByClientRequest) {
  TxPool pool;
  pool.add(op_of(1, 1));
  pool.add(op_of(1, 1));
  pool.add(op_of(2, 1));
  EXPECT_EQ(pool.pending(), 2u);
}

// Request ids come unvalidated from client frames: no id may make one
// client's op look like another's already-pooled op.
TEST(TxPool, DistinctClientsNeverShareAKey) {
  TxPool pool;
  pool.add(op_of(0, (RequestId{1} << 40) + 5));
  pool.add(op_of(1, 5));
  EXPECT_EQ(pool.pending(), 2u);
  auto batch = pool.next_batch(10);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[1].client, 1u);
  EXPECT_EQ(batch[1].request, 5u);
}

TEST(TxPool, ExecutedWatermarkDropsStale) {
  TxPool pool;
  pool.mark_committed(op_of(1, 5));
  pool.add(op_of(1, 4));  // stale
  pool.add(op_of(1, 6));  // fresh
  EXPECT_EQ(pool.pending(), 1u);
  EXPECT_TRUE(pool.executed(1, 5));
  EXPECT_TRUE(pool.executed(1, 3));
  EXPECT_FALSE(pool.executed(1, 6));
}

TEST(TxPool, BatchSkipsCommittedInPlace) {
  TxPool pool;
  for (RequestId r = 1; r <= 10; ++r) pool.add(op_of(1, r));
  pool.mark_committed(op_of(1, 7));  // 1..7 now committed
  auto batch = pool.next_batch(100);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].request, 8u);
}

TEST(TxPool, BatchRespectsCap) {
  TxPool pool;
  for (RequestId r = 1; r <= 10; ++r) pool.add(op_of(1, r));
  EXPECT_EQ(pool.next_batch(4).size(), 4u);
  EXPECT_EQ(pool.pending(), 6u);
}

TEST(VoteCollector, EmitsExactlyOnceAtThreshold) {
  VoteCollector vc(3);
  const Hash256 h = crypto::Sha256::digest(to_bytes("b"));
  EXPECT_FALSE(vc.add(Phase::kPrepare, h, {0, Bytes(64, 1)}).has_value());
  EXPECT_FALSE(vc.add(Phase::kPrepare, h, {1, Bytes(64, 1)}).has_value());
  auto group = vc.add(Phase::kPrepare, h, {2, Bytes(64, 1)});
  ASSERT_TRUE(group.has_value());
  EXPECT_EQ(group->signer_count(), 3u);
  EXPECT_FALSE(vc.add(Phase::kPrepare, h, {3, Bytes(64, 1)}).has_value());
}

TEST(VoteCollector, DuplicateSignersIgnored) {
  VoteCollector vc(3);
  const Hash256 h = crypto::Sha256::digest(to_bytes("b"));
  EXPECT_FALSE(vc.add(Phase::kPrepare, h, {0, Bytes(64, 1)}).has_value());
  EXPECT_FALSE(vc.add(Phase::kPrepare, h, {0, Bytes(64, 2)}).has_value());
  EXPECT_FALSE(vc.add(Phase::kPrepare, h, {1, Bytes(64, 1)}).has_value());
  EXPECT_EQ(vc.count(Phase::kPrepare, h), 2u);
}

TEST(VoteCollector, PhasesAreIndependent) {
  VoteCollector vc(2);
  const Hash256 h = crypto::Sha256::digest(to_bytes("b"));
  EXPECT_FALSE(vc.add(Phase::kPrepare, h, {0, Bytes(64, 1)}).has_value());
  EXPECT_FALSE(vc.add(Phase::kCommit, h, {0, Bytes(64, 1)}).has_value());
  EXPECT_TRUE(vc.add(Phase::kPrepare, h, {1, Bytes(64, 1)}).has_value());
  EXPECT_TRUE(vc.add(Phase::kCommit, h, {1, Bytes(64, 1)}).has_value());
}

}  // namespace
}  // namespace marlin::consensus::testing

namespace marlin::consensus::testing {
namespace {

// ---------------------------------------------------------------------------
// Adversarial structural validation: corrupted virtual blocks, mismatched
// justifies, and malformed QC notices must never draw votes.
// ---------------------------------------------------------------------------

class MarlinAdversarial : public ::testing::Test {
 protected:
  void SetUp() override {
    h_ = std::make_unique<ProtocolHarness>(Kind::kMarlin);
    h_->start_all();
    h_->submit_to_all(op_of(1, 1));
    h_->deliver_all();  // height 1 committed in view 1

    // Everyone's highQC/lockedQC is the prepareQC for the height-1 block.
    tip_ = *h_->replica(0).store().get(h_->replica(0).committed_hash());
    tip_qc_ = h_->marlin(0).locked_qc();

    votes_ = 0;
    h_->set_drop([this](const BusMessage& m) {
      if (m.envelope.kind() == types::MsgKind::kVote) ++votes_;
      return false;
    });
  }

  /// Sends a PRE-PREPARE proposal (as view-2 leader, replica 2) to
  /// replica 0 after moving it to view 2, and returns the vote count.
  std::size_t probe(const Block& b, const Justify& justify) {
    // Move replica 0 into view 2 with f+1 forged view changes.
    for (ReplicaId s : {1u, 3u}) {
      h_->post_bypassing(
          s, 0,
          types::make_envelope(
              types::MsgKind::kViewChange,
              forge_view_change(h_->suite(), s, 2, BlockRef::of(tip_),
                                Justify{tip_qc_, {}})));
    }
    h_->deliver_all();
    types::ProposalMsg msg;
    msg.phase = Phase::kPrePrepare;
    msg.view = 2;
    msg.entries.push_back({b, justify});
    h_->post(2, 0, types::make_envelope(types::MsgKind::kProposal, msg));
    h_->deliver_all();
    return votes_;
  }

  Block valid_virtual() {
    Block b;
    b.parent_link = Hash256{};
    b.parent_view = tip_qc_.view;
    b.view = 2;
    b.height = tip_qc_.height + 2;
    b.virtual_block = true;
    b.ops = {op_of(9, 1)};
    b.justify = Justify{tip_qc_, {}};
    return b;
  }

  std::unique_ptr<ProtocolHarness> h_;
  Block tip_;
  QuorumCert tip_qc_;
  std::size_t votes_ = 0;
};

TEST_F(MarlinAdversarial, WellFormedVirtualBlockDrawsVote) {
  // Sanity: the valid shape IS accepted (R1 for an unlocked-relative qc).
  EXPECT_GT(probe(valid_virtual(), Justify{tip_qc_, {}}), 0u);
}

TEST_F(MarlinAdversarial, VirtualBlockWithNonZeroParentLinkRejected) {
  Block b = valid_virtual();
  b.parent_link = tip_.hash();
  EXPECT_EQ(probe(b, Justify{tip_qc_, {}}), 0u);
}

TEST_F(MarlinAdversarial, VirtualBlockWithWrongHeightRejected) {
  Block b = valid_virtual();
  b.height = tip_qc_.height + 3;  // must be exactly qc.height + 2
  EXPECT_EQ(probe(b, Justify{tip_qc_, {}}), 0u);
}

TEST_F(MarlinAdversarial, VirtualBlockWithWrongPviewRejected) {
  Block b = valid_virtual();
  b.parent_view = tip_qc_.view + 1;
  EXPECT_EQ(probe(b, Justify{tip_qc_, {}}), 0u);
}

TEST_F(MarlinAdversarial, VirtualBlockJustifiedByPrePrepareQcRejected) {
  QuorumCert pp = forge_qc(h_->suite(), QcType::kPrePrepare, 1, tip_,
                           {0, 1, 2});
  Block b = valid_virtual();
  b.justify = Justify{pp, {}};
  EXPECT_EQ(probe(b, Justify{pp, {}}), 0u);
}

TEST_F(MarlinAdversarial, MessageJustifyMismatchingBlockJustifyRejected) {
  Block b = valid_virtual();  // block.justify = tip_qc_
  QuorumCert other = forge_qc(h_->suite(), QcType::kPrepare, 1, tip_,
                              {1, 2, 3});
  other.height = tip_qc_.height;
  // The message-level justify differs from the block's own justify.
  Justify mismatched{other, {}};
  mismatched.qc->view = tip_qc_.view;
  EXPECT_EQ(probe(b, mismatched), 0u);
}

TEST_F(MarlinAdversarial, JustifyFromCurrentViewRejectedInPrePrepare) {
  // A pre-prepare justify must be formed BEFORE the new view.
  QuorumCert current_view_qc =
      forge_qc(h_->suite(), QcType::kPrepare, 2, tip_, {0, 1, 2});
  Block b = valid_virtual();
  b.parent_view = current_view_qc.view;
  b.justify = Justify{current_view_qc, {}};
  EXPECT_EQ(probe(b, Justify{current_view_qc, {}}), 0u);
}

TEST_F(MarlinAdversarial, PrepareNoticeForVirtualQcWithoutAuxRejected) {
  // A pre-prepareQC for a virtual block needs its validating vc.
  Block vb = valid_virtual();
  QuorumCert pp_virtual =
      forge_qc(h_->suite(), QcType::kPrePrepare, 2, vb, {1, 2, 3});
  for (ReplicaId s : {1u, 3u}) {
    h_->post_bypassing(
        s, 0,
        types::make_envelope(
            types::MsgKind::kViewChange,
            forge_view_change(h_->suite(), s, 2, BlockRef::of(tip_),
                              Justify{tip_qc_, {}})));
  }
  h_->deliver_all();
  types::QcNoticeMsg notice{Phase::kPrepare, 2, pp_virtual, {}};
  h_->post(2, 0, types::make_envelope(types::MsgKind::kQcNotice, notice));
  h_->deliver_all();
  EXPECT_EQ(votes_, 0u);
}

TEST_F(MarlinAdversarial, PrepareNoticeWithWrongAuxRejected) {
  Block vb = valid_virtual();
  QuorumCert pp_virtual =
      forge_qc(h_->suite(), QcType::kPrePrepare, 2, vb, {1, 2, 3});
  // aux at the wrong height (must be qc.height - 1).
  QuorumCert bad_aux = forge_qc(h_->suite(), QcType::kPrepare, 1, tip_,
                                {1, 2, 3});
  ASSERT_NE(bad_aux.height + 1, pp_virtual.height);
  for (ReplicaId s : {1u, 3u}) {
    h_->post_bypassing(
        s, 0,
        types::make_envelope(
            types::MsgKind::kViewChange,
            forge_view_change(h_->suite(), s, 2, BlockRef::of(tip_),
                              Justify{tip_qc_, {}})));
  }
  h_->deliver_all();
  types::QcNoticeMsg notice{Phase::kPrepare, 2, pp_virtual, bad_aux};
  h_->post(2, 0, types::make_envelope(types::MsgKind::kQcNotice, notice));
  h_->deliver_all();
  EXPECT_EQ(votes_, 0u);
}

TEST_F(MarlinAdversarial, CommitNoticeWithPrePrepareQcRejected) {
  QuorumCert pp = forge_qc(h_->suite(), QcType::kPrePrepare, 1, tip_,
                           {0, 1, 2});
  types::QcNoticeMsg notice{Phase::kCommit, 1, pp, {}};
  h_->post(1, 0, types::make_envelope(types::MsgKind::kQcNotice, notice));
  h_->deliver_all();
  EXPECT_EQ(votes_, 0u);
}

TEST_F(MarlinAdversarial, DecideWithPrepareQcDoesNotCommit) {
  const Height before = h_->replica(0).committed_height();
  types::QcNoticeMsg notice{Phase::kDecide, 1, tip_qc_, {}};
  h_->post(1, 0, types::make_envelope(types::MsgKind::kQcNotice, notice));
  h_->deliver_all();
  EXPECT_EQ(h_->replica(0).committed_height(), before);
}

}  // namespace
}  // namespace marlin::consensus::testing

namespace marlin::consensus::testing {
namespace {

// ---------------------------------------------------------------------------
// Cost accounting at the protocol level (BusEnv tallies the charge hooks)
// ---------------------------------------------------------------------------

TEST(MarlinCosts, QcVerificationIsCachedAcrossPresentations) {
  ProtocolHarness h(Kind::kMarlin);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();

  // Replica 0 has verified the height-1 prepareQC once (via the COMMIT
  // notice). Re-presenting the same QC must not charge more verifies.
  auto& env = h.env(0);
  const std::uint64_t verifies_before = env.verifies;
  const Block* tip = h.replica(0).store().get(h.replica(0).committed_hash());
  QuorumCert qc = h.marlin(0).locked_qc();
  types::QcNoticeMsg notice{types::Phase::kCommit, 1, qc, {}};
  for (int i = 0; i < 5; ++i) {
    h.post(1, 0, types::make_envelope(types::MsgKind::kQcNotice, notice));
  }
  h.deliver_all();
  // Each re-delivery may charge the replica's own vote signing but never
  // re-verification of the cached QC (5 deliveries, 0 extra verifies).
  EXPECT_EQ(env.verifies, verifies_before);
  (void)tip;
}

TEST(MarlinCosts, SignAndVerifyChargesAccrue) {
  ProtocolHarness h(Kind::kMarlin);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  // Every replica signed two votes (prepare + commit).
  for (ReplicaId r = 0; r < h.n(); ++r) {
    EXPECT_GE(h.env(r).signs, 2u) << r;
  }
  // The leader verified two quorums of partial signatures.
  EXPECT_GE(h.env(1).verifies, 2u * (h.n() - 1));
  // Hashing was charged for block construction / validation.
  for (ReplicaId r = 0; r < h.n(); ++r) {
    EXPECT_GT(h.env(r).hash_bytes, 0u) << r;
  }
}

// ---------------------------------------------------------------------------
// Happy-path eligibility
// ---------------------------------------------------------------------------

TEST(MarlinViewChange, DivergentLbForcesUnhappyPath) {
  // Happy path requires n−f *identical* lb values; inject a snapshot with
  // two different lbs and verify the leader takes the pre-prepare route
  // even though the happy path is enabled.
  ProtocolHarness h(Kind::kMarlin);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();

  const Block* tip = h.replica(0).store().get(h.replica(0).committed_hash());
  const Block* genesis =
      h.replica(0).store().get(h.replica(0).store().genesis_hash());
  QuorumCert tip_qc = h.marlin(0).locked_qc();

  // Two replicas report the tip, one reports genesis: no identical-lb
  // quorum of 3 exists.
  h.crash(1);  // old leader stays silent
  auto vc = [&](ReplicaId s, const Block& lb) {
    return types::make_envelope(
        types::MsgKind::kViewChange,
        forge_view_change(h.suite(), s, 2, BlockRef::of(lb),
                          Justify{tip_qc, {}}));
  };
  h.post_bypassing(0, 2, vc(0, *tip));
  h.post_bypassing(2, 2, vc(2, *tip));
  h.post_bypassing(3, 2, vc(3, *genesis));
  h.deliver_all();

  EXPECT_EQ(h.marlin(2).happy_view_changes(), 0u);
  EXPECT_EQ(h.marlin(2).unhappy_view_changes(), 1u);
}

TEST(MarlinViewChange, HappyPathQuorumWithinLargerSnapshot) {
  // 3 of the first 3 messages share lb, a 4th differs: the identical-lb
  // subset still satisfies the happy path.
  ProtocolHarness h(Kind::kMarlin);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  h.submit_to_all(op_of(1, 2));
  h.timeout_all();  // organic VC: all four replicas report the same lb
  h.deliver_all();
  EXPECT_EQ(h.marlin(2).happy_view_changes(), 1u);
  EXPECT_TRUE(h.all_consistent());
}

}  // namespace
}  // namespace marlin::consensus::testing
