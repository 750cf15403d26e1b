// Protocol-level tests for the HotStuff baseline: the three-phase commit
// rule, locking on precommitQCs, the safeNode rule, NEW-VIEW view changes,
// and a head-to-head phase-count comparison against Marlin (the paper's
// headline claim).
#include <gtest/gtest.h>

#include <set>

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

constexpr const char* kDomain = "hotstuff";

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
  const Hash256 digest = qc.signed_digest(kDomain);
  std::vector<crypto::PartialSig> parts;
  for (ReplicaId r : signers) {
    parts.push_back({r, suite.signer(r)->sign(digest.view())});
  }
  qc.sigs = *crypto::SigGroup::combine(
      parts, static_cast<std::uint32_t>(signers.size()));
  return qc;
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

TEST(HotStuffNormal, CommitsAcrossAllReplicas) {
  ProtocolHarness h(Kind::kHotStuff);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  for (ReplicaId r = 0; r < h.n(); ++r) {
    ASSERT_EQ(h.delivered(r).size(), 1u) << "replica " << r;
    EXPECT_EQ(h.replica(r).committed_height(), 1u);
  }
  EXPECT_TRUE(h.all_consistent());
}

TEST(HotStuffNormal, ThreeVoteRounds) {
  // HotStuff must run all three rounds: PRE-COMMIT, COMMIT, DECIDE notices.
  ProtocolHarness h(Kind::kHotStuff);
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
  EXPECT_TRUE(phases.count(Phase::kPreCommit));
  EXPECT_TRUE(phases.count(Phase::kCommit));
  EXPECT_TRUE(phases.count(Phase::kDecide));
}

TEST(HotStuffNormal, MarlinUsesOneFewerVoteRound) {
  // Head-to-head: per committed block, count vote messages a single
  // replica sends. HotStuff votes 3 times per block, Marlin 2.
  auto count_votes = [](Kind kind) {
    ProtocolHarness h(kind);
    std::size_t votes_from_3 = 0;
    h.set_drop([&](const BusMessage& m) {
      if (m.envelope.kind() == MsgKind::kVote && m.from == 3) ++votes_from_3;
      return false;
    });
    h.start_all();
    h.submit_to_all(op_of(1, 1));
    h.deliver_all();
    return votes_from_3;
  };
  EXPECT_EQ(count_votes(Kind::kMarlin), 2u);
  EXPECT_EQ(count_votes(Kind::kHotStuff), 3u);
}

TEST(HotStuffNormal, PipelinedBlocksInOneView) {
  ProtocolHarness h(Kind::kHotStuff);
  h.start_all();
  for (RequestId i = 1; i <= 5; ++i) {
    h.submit_to_all(op_of(1, i));
    h.deliver_all();
  }
  for (ReplicaId r = 0; r < h.n(); ++r) {
    EXPECT_EQ(h.replica(r).committed_height(), 5u);
    EXPECT_EQ(h.replica(r).current_view(), 1u);
  }
  EXPECT_TRUE(h.all_consistent());
}

TEST(HotStuffNormal, LocksOnPrecommitQc) {
  ProtocolHarness h(Kind::kHotStuff);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  for (ReplicaId r = 0; r < h.n(); ++r) {
    EXPECT_EQ(h.hotstuff(r).locked_qc().type, QcType::kPreCommit);
    EXPECT_EQ(h.hotstuff(r).locked_qc().height, 1u);
  }
}

TEST(HotStuffNormal, PrepareQcHighTracked) {
  ProtocolHarness h(Kind::kHotStuff);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  h.submit_to_all(op_of(1, 2));
  h.deliver_all();
  for (ReplicaId r = 0; r < h.n(); ++r) {
    EXPECT_EQ(h.hotstuff(r).prepare_qc_high().height, 2u);
  }
}

TEST(HotStuffNormal, NonLeaderProposalIgnored) {
  ProtocolHarness h(Kind::kHotStuff);
  h.start_all();
  h.deliver_all();
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
  h.post(2, 0, types::make_envelope(MsgKind::kProposal, msg));
  h.deliver_all();
  EXPECT_EQ(votes, 0u);
}

TEST(HotStuffNormal, VoteOncePerHeight) {
  ProtocolHarness h(Kind::kHotStuff);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();

  // Equivocation at an already-voted height is rejected.
  const Block* genesis =
      h.replica(0).store().get(h.replica(0).store().genesis_hash());
  Block fork = make_child(*genesis, 1,
                          Justify{QuorumCert::genesis(genesis->hash()), {}},
                          {op_of(7, 7)});
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
  h.deliver_all();
  EXPECT_EQ(votes, 0u);
}

TEST(HotStuffNormal, SafeNodeRejectsConflictWithLock) {
  ProtocolHarness h(Kind::kHotStuff);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();  // everyone locked on height 1 (precommitQC, view 1)

  // A proposal extending genesis (conflicting with the lock) justified by
  // a same-view prepareQC: liveness rule fails (qc.view == locked.view),
  // safety rule fails (branch conflicts) → no votes.
  const Block* genesis =
      h.replica(0).store().get(h.replica(0).store().genesis_hash());
  Block evil_parent = make_child(*genesis, 1, Justify{}, {op_of(8, 8)});
  QuorumCert evil_qc =
      forge_qc(h.suite(), QcType::kPrepare, 1, evil_parent, {0, 1, 2});
  Block evil = make_child(evil_parent, 1, Justify{evil_qc, {}}, {op_of(8, 9)});
  types::ProposalMsg msg;
  msg.phase = Phase::kPrepare;
  msg.view = 1;
  msg.entries.push_back({evil, evil.justify});

  std::size_t votes = 0;
  h.set_drop([&](const BusMessage& m) {
    if (m.envelope.kind() == MsgKind::kVote) ++votes;
    return false;
  });
  // Give replicas the parent body first so the extends() check can run.
  for (ReplicaId r = 0; r < h.n(); ++r) {
    h.post(1, r,
           types::make_envelope(MsgKind::kFetchResponse,
                                types::FetchResponseMsg{evil_parent}));
  }
  h.deliver_all();
  for (ReplicaId r = 0; r < h.n(); ++r) {
    h.post(1, r, types::make_envelope(MsgKind::kProposal, msg));
  }
  h.deliver_all();
  EXPECT_EQ(votes, 0u);
  EXPECT_TRUE(h.all_consistent());
}

TEST(HotStuffNormal, SafeNodeLivenessRuleAcceptsHigherView) {
  // After a view change, the justify has a higher view than the lock:
  // the liveness rule admits it even when extends() cannot be evaluated.
  ProtocolHarness h(Kind::kHotStuff);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  h.submit_to_all(op_of(1, 2));
  h.timeout_all();  // view 2; new leader proposes on old prepareQC
  h.deliver_all();
  for (ReplicaId r = 0; r < h.n(); ++r) {
    EXPECT_EQ(h.replica(r).current_view(), 2u);
    EXPECT_GE(h.replica(r).committed_height(), 2u);
  }
  EXPECT_TRUE(h.all_consistent());
}

// ---------------------------------------------------------------------------
// View changes
// ---------------------------------------------------------------------------

TEST(HotStuffViewChange, LeaderCrashRecovery) {
  ProtocolHarness h(Kind::kHotStuff);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();

  h.crash(1);  // view-1 leader gone
  h.submit_to_all(op_of(1, 2));
  h.timeout(0);
  h.timeout(2);
  h.timeout(3);
  h.deliver_all();

  EXPECT_EQ(h.hotstuff(2).view_changes_led(), 1u);
  for (ReplicaId r : {0u, 2u, 3u}) {
    EXPECT_EQ(h.replica(r).current_view(), 2u);
    EXPECT_EQ(h.replica(r).committed_height(), 2u);
  }
  EXPECT_TRUE(h.all_consistent());
}

TEST(HotStuffViewChange, NewLeaderAdoptsHighestPrepareQc) {
  ProtocolHarness h(Kind::kHotStuff);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  h.submit_to_all(op_of(1, 2));
  h.deliver_all();
  ASSERT_EQ(h.replica(2).committed_height(), 2u);

  h.timeout_all();
  h.deliver_all();
  // New leader extended the height-2 prepareQC: next commit is height 3.
  h.submit_to_all(op_of(1, 3));
  h.deliver_all();
  for (ReplicaId r = 0; r < h.n(); ++r) {
    EXPECT_GE(h.replica(r).committed_height(), 3u);
  }
  EXPECT_TRUE(h.all_consistent());
}

TEST(HotStuffViewChange, SuccessiveViewChanges) {
  ProtocolHarness h(Kind::kHotStuff);
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

TEST(HotStuffViewChange, LaggingReplicaSyncs) {
  ProtocolHarness h(Kind::kHotStuff);
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  h.set_drop([&](const BusMessage& m) { return m.to == 3; });
  h.submit_to_all(op_of(1, 2));
  h.timeout(0);
  h.timeout(1);
  h.timeout(2);
  h.deliver_all();
  ASSERT_EQ(h.replica(3).current_view(), 1u);
  h.set_drop(nullptr);
  h.submit_to_all(op_of(1, 3));
  h.deliver_all();
  EXPECT_EQ(h.replica(3).current_view(), 2u);
  EXPECT_EQ(h.replica(3).committed_height(),
            h.replica(0).committed_height());
  EXPECT_TRUE(h.all_consistent());
}

TEST(HotStuffViewChange, InvalidNewViewIgnored) {
  ProtocolHarness h(Kind::kHotStuff);
  h.start_all();
  h.deliver_all();
  // Forged NEW-VIEW with a bad parsig must not count toward the quorum.
  const Block genesis = Block::genesis();
  types::ViewChangeMsg m;
  m.view = 2;
  m.last_voted = BlockRef{genesis.hash(), 0, 0, 0, false};
  m.high_qc = Justify{QuorumCert::genesis(genesis.hash()), {}};
  m.parsig = {0, Bytes(crypto::kSignatureSize, 0x42)};
  for (ReplicaId s : {0u, 1u, 3u}) {
    auto copy = m;
    copy.parsig.signer = s;
    h.post(s, 2, types::make_envelope(MsgKind::kViewChange, copy));
  }
  h.deliver_all();
  EXPECT_EQ(h.hotstuff(2).view_changes_led(), 0u);
  EXPECT_EQ(h.replica(2).current_view(), 1u);
}

TEST(HotStuffViewChange, WorksAtLargerScale) {
  ProtocolHarness h(Kind::kHotStuff, /*f=*/2);  // n = 7
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  h.crash(1);
  h.crash(3);
  h.submit_to_all(op_of(1, 2));
  for (ReplicaId r : {0u, 2u, 4u, 5u, 6u}) h.timeout(r);
  h.deliver_all();
  for (ReplicaId r : {0u, 2u, 4u, 5u, 6u}) {
    EXPECT_EQ(h.replica(r).committed_height(), 2u) << "replica " << r;
  }
  EXPECT_TRUE(h.all_consistent());
}

TEST(MarlinScale, WorksAtLargerScale) {
  ProtocolHarness h(Kind::kMarlin, /*f=*/3);  // n = 10
  h.start_all();
  for (RequestId i = 1; i <= 3; ++i) {
    h.submit_to_all(op_of(1, i));
    h.deliver_all();
  }
  h.crash(1);  // current leader
  h.submit_to_all(op_of(1, 4));
  for (ReplicaId r = 0; r < h.n(); ++r) {
    if (r != 1) h.timeout(r);
  }
  h.deliver_all();
  for (ReplicaId r = 0; r < h.n(); ++r) {
    if (r == 1) continue;
    EXPECT_EQ(h.replica(r).committed_height(), 4u) << "replica " << r;
  }
  EXPECT_TRUE(h.all_consistent());
}

}  // namespace
}  // namespace marlin::consensus::testing

namespace marlin::consensus::testing {
namespace {

// ---------------------------------------------------------------------------
// Adversarial paths for the baseline
// ---------------------------------------------------------------------------

class HotStuffAdversarial : public ::testing::Test {
 protected:
  void SetUp() override {
    h_ = std::make_unique<ProtocolHarness>(Kind::kHotStuff);
    h_->start_all();
    h_->submit_to_all(op_of(1, 1));
    h_->deliver_all();
    tip_ = *h_->replica(0).store().get(h_->replica(0).committed_hash());
    votes_ = 0;
    h_->set_drop([this](const BusMessage& m) {
      if (m.envelope.kind() == types::MsgKind::kVote) ++votes_;
      return false;
    });
  }

  std::unique_ptr<ProtocolHarness> h_;
  Block tip_;
  std::size_t votes_ = 0;
};

TEST_F(HotStuffAdversarial, PreCommitNoticeWithWrongTypeRejected) {
  QuorumCert pc = forge_qc(h_->suite(), QcType::kPreCommit, 1, tip_,
                           {0, 1, 2});
  types::QcNoticeMsg notice{types::Phase::kPreCommit, 1, pc, {}};
  h_->post(1, 0, types::make_envelope(types::MsgKind::kQcNotice, notice));
  h_->deliver_all();
  EXPECT_EQ(votes_, 0u);  // PRE-COMMIT notices must carry a prepareQC
}

TEST_F(HotStuffAdversarial, CommitNoticeWithPrepareQcRejected) {
  QuorumCert p = forge_qc(h_->suite(), QcType::kPrepare, 1, tip_, {0, 1, 2});
  types::QcNoticeMsg notice{types::Phase::kCommit, 1, p, {}};
  h_->post(1, 0, types::make_envelope(types::MsgKind::kQcNotice, notice));
  h_->deliver_all();
  EXPECT_EQ(votes_, 0u);  // COMMIT notices must carry a precommitQC
}

TEST_F(HotStuffAdversarial, NoticeWithAuxRejected) {
  QuorumCert p = forge_qc(h_->suite(), QcType::kPrepare, 1, tip_, {0, 1, 2});
  types::QcNoticeMsg notice{types::Phase::kPreCommit, 1, p,
                            forge_qc(h_->suite(), QcType::kPrepare, 1, tip_,
                                     {0, 1, 2})};
  h_->post(1, 0, types::make_envelope(types::MsgKind::kQcNotice, notice));
  h_->deliver_all();
  EXPECT_EQ(votes_, 0u);  // HotStuff never uses the aux field
}

TEST_F(HotStuffAdversarial, TwoEntryProposalRejected) {
  Block b1 = make_child(tip_, 1, tip_.justify, {op_of(5, 1)});
  types::ProposalMsg msg;
  msg.phase = types::Phase::kPrepare;
  msg.view = 1;
  msg.entries.push_back({b1, b1.justify});
  msg.entries.push_back({b1, b1.justify});
  h_->post(1, 0, types::make_envelope(types::MsgKind::kProposal, msg));
  h_->deliver_all();
  EXPECT_EQ(votes_, 0u);
}

TEST_F(HotStuffAdversarial, DecideWithForgedPrepareQcDoesNotCommit) {
  const Height before = h_->replica(0).committed_height();
  Block fake = make_child(tip_, 1, Justify{}, {op_of(9, 9)});
  QuorumCert fake_commit =
      forge_qc(h_->suite(), QcType::kPrepare, 1, fake, {0, 1, 2});
  types::QcNoticeMsg notice{types::Phase::kDecide, 1, fake_commit, {}};
  h_->post(1, 0, types::make_envelope(types::MsgKind::kQcNotice, notice));
  h_->deliver_all();
  EXPECT_EQ(h_->replica(0).committed_height(), before);
}

TEST_F(HotStuffAdversarial, ForgedCommitQcOnRealChainCommits) {
  // Positive control: a commitQC with genuine quorum signatures over an
  // actually-certified block IS accepted regardless of who relays it —
  // QCs, not sender identity, carry the authority.
  h_->set_drop(nullptr);
  h_->submit_to_all(op_of(1, 2));
  h_->deliver_all();
  const Block tip2 = *h_->replica(0).store().get(
      h_->replica(0).committed_hash());
  QuorumCert commit =
      forge_qc(h_->suite(), QcType::kCommit, 1, tip2, {0, 1, 2});
  // Relay "from" the leader to a replica that already has everything.
  types::QcNoticeMsg notice{types::Phase::kDecide, 1, commit, {}};
  h_->post(1, 0, types::make_envelope(types::MsgKind::kQcNotice, notice));
  h_->deliver_all();
  EXPECT_FALSE(h_->replica(0).safety_violated());
}

}  // namespace
}  // namespace marlin::consensus::testing
