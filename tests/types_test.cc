// Tests for the consensus data model: block hashing/serialization, the
// rank partial order (including the paper's Fig. 5 worked example), block
// rank, the block store (extension/chain/virtual parents), and every wire
// message round-trip including the shadow-block proposal encoding.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "consensus/block_frames.h"
#include "types/block_store.h"
#include "types/messages.h"

namespace marlin::types {
namespace {

Block make_block(ViewNumber view, Height height, Hash256 parent,
                 ViewNumber pview, std::vector<Operation> ops = {}) {
  Block b;
  b.parent_link = parent;
  b.parent_view = pview;
  b.view = view;
  b.height = height;
  b.ops = std::move(ops);
  return b;
}

QuorumCert make_qc(QcType type, ViewNumber view, Height height,
                   Hash256 block_hash = {}, ViewNumber block_view = 0,
                   ViewNumber pview = 0, bool virt = false) {
  QuorumCert qc;
  qc.type = type;
  qc.view = view;
  qc.height = height;
  qc.block_hash = block_hash;
  qc.block_view = block_view == 0 ? view : block_view;
  qc.pview = pview;
  qc.virtual_block = virt;
  return qc;
}

Operation make_op(ClientId c, RequestId r, std::size_t size = 8) {
  return Operation{c, r, Bytes(size, static_cast<std::uint8_t>(r))};
}

// ---------------------------------------------------------------------------
// Blocks
// ---------------------------------------------------------------------------

TEST(Block, HashIsDeterministic) {
  const Block b = make_block(1, 1, Hash256{}, 0, {make_op(1, 1)});
  EXPECT_EQ(b.hash(), b.hash());
}

TEST(Block, HashCoversEveryField) {
  const Block base = make_block(2, 5, Hash256{}, 1, {make_op(1, 1)});
  Block changed = base;
  changed.view = 3;
  EXPECT_NE(base.hash(), changed.hash());
  changed = base;
  changed.height = 6;
  EXPECT_NE(base.hash(), changed.hash());
  changed = base;
  changed.virtual_block = true;
  EXPECT_NE(base.hash(), changed.hash());
  changed = base;
  changed.ops[0].payload[0] ^= 1;
  EXPECT_NE(base.hash(), changed.hash());
  changed = base;
  changed.parent_view = 2;
  EXPECT_NE(base.hash(), changed.hash());
}

TEST(Block, ShadowBlocksHashDifferently) {
  // Same ops, different metadata (the paper's shadow blocks) must have
  // distinct identities.
  const std::vector<Operation> ops = {make_op(1, 1), make_op(1, 2)};
  const Block b1 =
      make_block(3, 7, crypto::Sha256::digest(to_bytes("parent")), 2, ops);
  Block b2 = b1;
  b2.height = 8;
  b2.virtual_block = true;
  b2.parent_link = Hash256{};
  EXPECT_NE(b1.hash(), b2.hash());
}

// Block::hash() of a block built locally must equal a plain SHA-256 of the
// block's hash encoding.
Hash256 unmemoized_hash(const Block& b) {
  Writer w;
  w.str("marlin.block");
  b.encode(w);
  return crypto::Sha256::digest(std::move(w).take());
}

TEST(Block, EncodedSizeIsExact) {
  // hash() reserves the tag plus encoded_size(): when that is exact, the
  // hash input is written into one buffer that never grows (a grown
  // buffer reallocates and copies the whole encoding).
  QuorumCert signed_qc = make_qc(QcType::kPrepare, 3, 8);
  for (std::uint32_t r = 0; r < 3; ++r) {
    signed_qc.sigs.parts.push_back(
        {r, Bytes(crypto::kSignatureSize, static_cast<std::uint8_t>(r))});
  }
  Block with_qc = make_block(4, 9, crypto::Sha256::digest(to_bytes("p")), 3,
                             {make_op(1, 1, 4096), make_op(2, 7, 50)});
  with_qc.justify.qc = signed_qc;
  // A (qc, vc) justify, a threshold-form QC and a payload whose length
  // needs a three-byte varint.
  Block with_pair = make_block(5, 10, Hash256{}, 4, {make_op(3, 1, 20000)});
  with_pair.justify.qc = make_qc(QcType::kPrePrepare, 4, 9, {}, 4, 3, true);
  with_pair.justify.vc = signed_qc;
  with_pair.justify.vc->threshold_sig = Bytes(48, 0x7a);
  for (const Block* b : {&with_qc, &with_pair}) {
    constexpr std::string_view kTag = "marlin.block";
    const std::size_t exact = 1 + kTag.size() + b->encoded_size();
    Writer w(exact);
    const std::uint8_t* buffer = w.buffer().data();
    w.str(kTag);
    b->encode(w);
    EXPECT_EQ(w.size(), exact);
    EXPECT_EQ(w.buffer().data(), buffer) << "the hash buffer reallocated";
    EXPECT_EQ(b->hash(), unmemoized_hash(*b));
  }
}

TEST(Block, WireRoundTrip) {
  Block b = make_block(4, 9, crypto::Sha256::digest(to_bytes("p")), 3,
                       {make_op(1, 1, 100), make_op(2, 7, 50)});
  b.justify.qc = make_qc(QcType::kPrepare, 3, 8);
  auto back = decode_from_bytes<Block>(encode_to_bytes(b));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), b);
  EXPECT_EQ(back.value().hash(), b.hash());
}

TEST(Block, GenesisProperties) {
  const Block g = Block::genesis();
  EXPECT_TRUE(g.is_genesis());
  EXPECT_EQ(g.height, 0u);
  EXPECT_TRUE(g.parent_link.is_zero());
  EXPECT_TRUE(g.justify.empty());
}

TEST(Block, OpsWireSize) {
  EXPECT_EQ(ops_wire_size({}), 0u);
  EXPECT_EQ(ops_wire_size({make_op(1, 1, 150)}), 4 + 8 + 2 + 150u);
}

TEST(Block, DecodeRejectsOversizedBatch) {
  Writer w;
  w.raw(Hash256{}.view());
  w.u64(0);
  w.u64(1);
  w.u64(1);
  w.boolean(false);
  w.varint(1u << 23);  // absurd op count
  auto r = decode_from_bytes<Block>(w.buffer());
  EXPECT_FALSE(r.is_ok());
}

// ---------------------------------------------------------------------------
// Rank rules (paper Fig. 4 and Fig. 5)
// ---------------------------------------------------------------------------

TEST(Rank, RuleA_HigherViewWins) {
  const auto lo = make_qc(QcType::kCommit, 3, 100);
  const auto hi = make_qc(QcType::kPrePrepare, 4, 1);
  EXPECT_TRUE(rank_greater(hi, lo));
  EXPECT_FALSE(rank_greater(lo, hi));
}

TEST(Rank, RuleB_PrepareBeatsPrePrepareSameView) {
  const auto pp = make_qc(QcType::kPrePrepare, 5, 10);
  const auto p = make_qc(QcType::kPrepare, 5, 3);
  const auto c = make_qc(QcType::kCommit, 5, 3);
  EXPECT_TRUE(rank_greater(p, pp));
  EXPECT_TRUE(rank_greater(c, pp));
  EXPECT_FALSE(rank_greater(pp, p));
}

TEST(Rank, RuleC_HeightBreaksTiesInHighClass) {
  const auto lo = make_qc(QcType::kPrepare, 5, 3);
  const auto hi = make_qc(QcType::kCommit, 5, 4);
  EXPECT_TRUE(rank_greater(hi, lo));
  EXPECT_FALSE(rank_greater(lo, hi));
}

TEST(Rank, PrepareAndCommitSameViewHeightAreEqual) {
  const auto p = make_qc(QcType::kPrepare, 5, 3);
  const auto c = make_qc(QcType::kCommit, 5, 3);
  EXPECT_TRUE(rank_equal(p, c));
  EXPECT_TRUE(rank_geq(p, c));
  EXPECT_TRUE(rank_geq(c, p));
}

TEST(Rank, PrePreparesSameViewEqualRegardlessOfHeight) {
  // Paper Fig. 5: qc3 and qc3' have the same rank although heights differ.
  const auto a = make_qc(QcType::kPrePrepare, 3, 7);
  const auto b = make_qc(QcType::kPrePrepare, 3, 8);
  EXPECT_TRUE(rank_equal(a, b));
}

TEST(Rank, Figure5WorkedExample) {
  // qc1: prepareQC view 2 height 1; qc2: prepareQC view 2 height 2;
  // qc3/qc3': pre-prepareQCs view 3 heights 3/4; qc4: prepareQC view 3.
  const auto qc1 = make_qc(QcType::kPrepare, 2, 1);
  const auto qc2 = make_qc(QcType::kPrepare, 2, 2);
  const auto qc3 = make_qc(QcType::kPrePrepare, 3, 3);
  const auto qc3p = make_qc(QcType::kPrePrepare, 3, 4);
  const auto qc4 = make_qc(QcType::kPrepare, 3, 3);
  EXPECT_TRUE(rank_greater(qc3p, qc2));   // rule (a)
  EXPECT_TRUE(rank_greater(qc4, qc3));    // rule (b)
  EXPECT_TRUE(rank_greater(qc4, qc3p));   // rule (b)
  EXPECT_TRUE(rank_greater(qc2, qc1));    // rule (c)
  EXPECT_TRUE(rank_equal(qc3, qc3p));
}

TEST(Rank, GenesisRanksLowest) {
  const auto genesis = QuorumCert::genesis(Hash256{});
  const auto any = make_qc(QcType::kPrePrepare, 1, 1);
  EXPECT_TRUE(rank_greater(any, genesis));
}

TEST(Rank, TotalOnRandomPairsIsAntisymmetric) {
  Rng rng(55);
  for (int i = 0; i < 200; ++i) {
    const auto a = make_qc(static_cast<QcType>(rng.next_below(4)),
                           rng.next_below(5), rng.next_below(5));
    const auto b = make_qc(static_cast<QcType>(rng.next_below(4)),
                           rng.next_below(5), rng.next_below(5));
    const int ab = compare_rank(a, b);
    const int ba = compare_rank(b, a);
    EXPECT_EQ(ab, -ba);
  }
}

TEST(Rank, TransitiveOnRandomTriples) {
  Rng rng(56);
  for (int i = 0; i < 500; ++i) {
    const auto a = make_qc(static_cast<QcType>(rng.next_below(4)),
                           rng.next_below(4), rng.next_below(4));
    const auto b = make_qc(static_cast<QcType>(rng.next_below(4)),
                           rng.next_below(4), rng.next_below(4));
    const auto c = make_qc(static_cast<QcType>(rng.next_below(4)),
                           rng.next_below(4), rng.next_below(4));
    if (compare_rank(a, b) >= 0 && compare_rank(b, c) >= 0) {
      EXPECT_GE(compare_rank(a, c), 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Block rank
// ---------------------------------------------------------------------------

TEST(BlockRank, HigherViewDominates) {
  const Block b1 = make_block(3, 2, {}, 2);
  const Block b2 = make_block(2, 9, {}, 1);
  EXPECT_TRUE(block_rank_greater(b1, b2));
  EXPECT_FALSE(block_rank_greater(b2, b1));
}

TEST(BlockRank, SameViewNeedsPrepareJustifyOfOwnView) {
  Block parent_qc_block = make_block(4, 5, {}, 4);
  Block higher = make_block(4, 6, {}, 4);
  const Block lower = make_block(4, 5, {}, 4);

  // Without a same-view prepareQC justify, height does not dominate.
  EXPECT_FALSE(block_rank_greater(higher, lower));

  higher.justify.qc = make_qc(QcType::kPrepare, 4, 5);
  EXPECT_TRUE(block_rank_greater(higher, lower));

  // A pre-prepareQC justify does not qualify (the anti-forking clause).
  higher.justify.qc = make_qc(QcType::kPrePrepare, 4, 5);
  EXPECT_FALSE(block_rank_greater(higher, lower));

  // Nor does a prepareQC from an older view.
  higher.justify.qc = make_qc(QcType::kPrepare, 3, 5);
  EXPECT_FALSE(block_rank_greater(higher, lower));
}

// ---------------------------------------------------------------------------
// QuorumCert wire format / digests
// ---------------------------------------------------------------------------

TEST(QuorumCert, WireRoundTrip) {
  QuorumCert qc = make_qc(QcType::kPrePrepare, 9, 12,
                          crypto::Sha256::digest(to_bytes("b")), 9, 7, true);
  qc.sigs.parts.push_back({2, Bytes(crypto::kSignatureSize, 0xaa)});
  qc.sigs.parts.push_back({5, Bytes(crypto::kSignatureSize, 0xbb)});
  auto back = decode_from_bytes<QuorumCert>(encode_to_bytes(qc));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), qc);
}

TEST(QuorumCert, SignedDigestCoversFields) {
  const auto a = make_qc(QcType::kPrepare, 3, 4);
  auto b = a;
  b.height = 5;
  EXPECT_NE(a.signed_digest("marlin"), b.signed_digest("marlin"));
  EXPECT_NE(a.signed_digest("marlin"), a.signed_digest("hotstuff"));
  auto c = a;
  c.type = QcType::kCommit;
  EXPECT_NE(a.signed_digest("marlin"), c.signed_digest("marlin"));
}

TEST(Justify, RoundTripAllShapes) {
  Justify empty;
  auto back = decode_from_bytes<Justify>(encode_to_bytes(empty));
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(back.value().empty());

  Justify one;
  one.qc = make_qc(QcType::kPrepare, 2, 3);
  back = decode_from_bytes<Justify>(encode_to_bytes(one));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), one);

  Justify two;
  two.qc = make_qc(QcType::kPrePrepare, 4, 6, {}, 4, 3, true);
  two.vc = make_qc(QcType::kPrepare, 3, 5);
  back = decode_from_bytes<Justify>(encode_to_bytes(two));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), two);
}

TEST(Justify, VcWithoutQcRejected) {
  const Bytes bad = {0x02};
  auto r = decode_from_bytes<Justify>(bad);
  EXPECT_FALSE(r.is_ok());
}

// ---------------------------------------------------------------------------
// BlockStore
// ---------------------------------------------------------------------------

class BlockStoreTest : public ::testing::Test {
 protected:
  /// Appends a child of `parent` and returns its hash.
  Hash256 add_child(const Hash256& parent, ViewNumber view,
                    std::vector<Operation> ops = {}) {
    const Block* p = store_.get(parent);
    EXPECT_NE(p, nullptr);
    Block b = make_block(view, p->height + 1, parent, p->view, std::move(ops));
    const Hash256 h = b.hash();
    store_.insert(std::move(b));
    return h;
  }

  BlockStore store_;
};

TEST_F(BlockStoreTest, GenesisPresent) {
  EXPECT_TRUE(store_.contains(store_.genesis_hash()));
  EXPECT_EQ(store_.size(), 1u);
}

TEST_F(BlockStoreTest, InsertAndLookup) {
  const Hash256 h = add_child(store_.genesis_hash(), 1);
  ASSERT_TRUE(store_.contains(h));
  EXPECT_EQ(store_.get(h)->height, 1u);
  EXPECT_EQ(store_.parent_of(h), store_.genesis_hash());
}

TEST_F(BlockStoreTest, ExtendsAlongChain) {
  const Hash256 a = add_child(store_.genesis_hash(), 1);
  const Hash256 b = add_child(a, 1);
  const Hash256 c = add_child(b, 2);
  EXPECT_TRUE(store_.extends(c, a));
  EXPECT_TRUE(store_.extends(c, c));
  EXPECT_TRUE(store_.extends(c, store_.genesis_hash()));
  EXPECT_FALSE(store_.extends(a, c));
}

TEST_F(BlockStoreTest, ConflictingBranchesDoNotExtend) {
  const Hash256 a = add_child(store_.genesis_hash(), 1);
  const Hash256 b1 = add_child(a, 1, {make_op(1, 1)});
  const Hash256 b2 = add_child(a, 2, {make_op(2, 2)});
  EXPECT_FALSE(store_.extends(b1, b2));
  EXPECT_FALSE(store_.extends(b2, b1));
}

TEST_F(BlockStoreTest, ChainReturnsCommitOrder) {
  const Hash256 a = add_child(store_.genesis_hash(), 1);
  const Hash256 b = add_child(a, 1);
  const Hash256 c = add_child(b, 1);
  const auto path = store_.chain(c, store_.genesis_hash());
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], a);
  EXPECT_EQ(path[1], b);
  EXPECT_EQ(path[2], c);
  EXPECT_TRUE(store_.chain(c, c).empty());
}

TEST_F(BlockStoreTest, ChainFailsAcrossGap) {
  const Hash256 a = add_child(store_.genesis_hash(), 1);
  Block orphan = make_block(2, 5, crypto::Sha256::digest(to_bytes("??")), 1);
  const Hash256 o = orphan.hash();
  store_.insert(std::move(orphan));
  EXPECT_TRUE(store_.chain(o, a).empty());
  EXPECT_FALSE(store_.extends(o, a));
}

TEST_F(BlockStoreTest, VirtualParentResolution) {
  const Hash256 a = add_child(store_.genesis_hash(), 1);
  const Hash256 b = add_child(a, 1);
  Block virt;
  virt.view = 2;
  virt.height = 3;
  virt.virtual_block = true;
  virt.parent_view = 1;
  const Hash256 v = virt.hash();
  store_.insert(std::move(virt));

  // Unresolved: no parent, chain fails.
  EXPECT_TRUE(store_.parent_of(v).is_zero());
  EXPECT_TRUE(store_.chain(v, store_.genesis_hash()).empty());

  store_.set_virtual_parent(v, b);
  EXPECT_EQ(store_.parent_of(v), b);
  const auto path = store_.chain(v, store_.genesis_hash());
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[2], v);
  EXPECT_TRUE(store_.extends(v, a));
}

TEST_F(BlockStoreTest, InsertIsIdempotent) {
  const Hash256 a = add_child(store_.genesis_hash(), 1);
  const std::size_t size = store_.size();
  Block again = *store_.get(a);
  store_.insert(std::move(again));
  EXPECT_EQ(store_.size(), size);
}

TEST_F(BlockStoreTest, ReleaseOps) {
  const Hash256 a =
      add_child(store_.genesis_hash(), 1, {make_op(1, 1, 100)});
  EXPECT_FALSE(store_.ops_released(a));
  store_.release_ops(a);
  EXPECT_TRUE(store_.ops_released(a));
  EXPECT_TRUE(store_.get(a)->ops.empty());
  // Metadata queries still work.
  EXPECT_TRUE(store_.extends(a, store_.genesis_hash()));
}

TEST_F(BlockStoreTest, StoredProposalKeepsItsIdentity) {
  Block proposal = make_block(1, 1, store_.genesis_hash(), 0,
                              {make_op(1, 1, 4096)});
  const Hash256 h = proposal.hash();
  // Copy-then-mutate derives a new block: the copy must not inherit h.
  Block sibling = proposal;
  sibling.ops[0].payload[0] ^= 0x01;
  EXPECT_NE(sibling.hash(), h);

  // A moved-in block keeps its memoized identity, and insert returns the
  // stored body.
  const Block& stored = store_.insert(std::move(proposal));
  EXPECT_EQ(store_.get(h), &stored);
  EXPECT_EQ(stored.hash(), h);
  // Releasing the body does not move its identity: the store answers from
  // the memo the move carried, not from a re-encode of the emptied block.
  store_.release_ops(h);
  EXPECT_EQ(store_.get(h)->hash(), h);
  EXPECT_TRUE(store_.contains(store_.insert(std::move(sibling)).hash()));
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

TEST(Messages, ClientRequestRoundTrip) {
  ClientRequestMsg m;
  m.ops = {make_op(3, 9, 150), make_op(3, 10, 150)};
  auto env = make_envelope(MsgKind::kClientRequest, m);
  auto parsed = Envelope::parse(env.serialize());
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().kind(), MsgKind::kClientRequest);
  auto back = open_envelope<ClientRequestMsg>(parsed.value());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().ops, m.ops);
}

TEST(Messages, ClientReplyRoundTrip) {
  ClientReplyMsg m;
  m.client = 7;
  m.replica = 2;
  m.view = 4;
  m.height = 77;
  m.requests = {8, 9, 12};
  m.result = to_bytes("digest64");
  m.padding = Bytes(100, 0xcd);
  auto back = decode_from_bytes<ClientReplyMsg>(encode_to_bytes(m));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().requests, m.requests);
  EXPECT_EQ(back.value().padding.size(), 100u);
}

TEST(Messages, ProposalSingleEntryRoundTrip) {
  ProposalMsg m;
  m.phase = Phase::kPrepare;
  m.view = 3;
  ProposalEntry e;
  e.block = make_block(3, 4, crypto::Sha256::digest(to_bytes("p")), 2,
                       {make_op(1, 1, 150)});
  e.justify.qc = make_qc(QcType::kPrepare, 3, 3);
  e.block.justify = e.justify;
  m.entries.push_back(e);
  auto back = decode_from_bytes<ProposalMsg>(encode_to_bytes(m));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().entries[0].block, e.block);
}

TEST(Messages, ShadowProposalSharesOpsOnWire) {
  // Two blocks with identical op batches: the wire carries the batch once.
  const std::vector<Operation> ops = {make_op(1, 1, 2000), make_op(1, 2, 2000)};
  ProposalMsg shadow;
  shadow.phase = Phase::kPrePrepare;
  shadow.view = 5;
  ProposalEntry e1, e2;
  e1.block = make_block(5, 4, crypto::Sha256::digest(to_bytes("p")), 3, ops);
  e2.block = make_block(5, 5, Hash256{}, 3, ops);
  e2.block.virtual_block = true;
  shadow.entries = {e1, e2};

  ProposalMsg distinct = shadow;
  distinct.entries[1].block.ops = {make_op(9, 9, 2000), make_op(9, 10, 2000)};

  const std::size_t shadow_size = encode_to_bytes(shadow).size();
  const std::size_t distinct_size = encode_to_bytes(distinct).size();
  EXPECT_LT(shadow_size + 3500, distinct_size);

  // And the decode reconstructs the shared batch.
  auto back = decode_from_bytes<ProposalMsg>(encode_to_bytes(shadow));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().entries[1].block.ops, ops);
  EXPECT_EQ(back.value().entries[1].block.hash(), e2.block.hash());
}

TEST(Messages, ProposalRejectsZeroOrThreeEntries) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(Phase::kPrepare));
  w.u64(1);
  w.varint(0);
  EXPECT_FALSE(decode_from_bytes<ProposalMsg>(w.buffer()).is_ok());
}

TEST(Messages, VoteRoundTripWithLockedQc) {
  VoteMsg m;
  m.phase = Phase::kPrePrepare;
  m.view = 6;
  m.block_hash = crypto::Sha256::digest(to_bytes("b"));
  m.parsig = {3, Bytes(crypto::kSignatureSize, 0x11)};
  m.locked_qc = make_qc(QcType::kPrepare, 5, 9);
  auto back = decode_from_bytes<VoteMsg>(encode_to_bytes(m));
  ASSERT_TRUE(back.is_ok());
  ASSERT_TRUE(back.value().locked_qc.has_value());
  EXPECT_EQ(*back.value().locked_qc, *m.locked_qc);
}

TEST(Messages, QcNoticeRoundTripWithAux) {
  QcNoticeMsg m;
  m.phase = Phase::kPrepare;
  m.view = 7;
  m.qc = make_qc(QcType::kPrePrepare, 7, 11, {}, 7, 6, true);
  m.aux = make_qc(QcType::kPrepare, 6, 10);
  auto back = decode_from_bytes<QcNoticeMsg>(encode_to_bytes(m));
  ASSERT_TRUE(back.is_ok());
  ASSERT_TRUE(back.value().aux.has_value());
  EXPECT_EQ(back.value().qc, m.qc);
}

TEST(Messages, ViewChangeRoundTrip) {
  ViewChangeMsg m;
  m.view = 9;
  m.last_voted = BlockRef{crypto::Sha256::digest(to_bytes("lb")), 8, 20, 7,
                          false};
  m.high_qc.qc = make_qc(QcType::kPrepare, 8, 19);
  m.parsig = {1, Bytes(crypto::kSignatureSize, 0x77)};
  auto back = decode_from_bytes<ViewChangeMsg>(encode_to_bytes(m));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().last_voted, m.last_voted);
  EXPECT_EQ(back.value().high_qc, m.high_qc);
}

TEST(Messages, FetchRoundTrip) {
  FetchRequestMsg req{crypto::Sha256::digest(to_bytes("want"))};
  auto back = decode_from_bytes<FetchRequestMsg>(encode_to_bytes(req));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().block_hash, req.block_hash);

  FetchResponseMsg resp{make_block(2, 3, Hash256{}, 1, {make_op(1, 1)})};
  auto back2 = decode_from_bytes<FetchResponseMsg>(encode_to_bytes(resp));
  ASSERT_TRUE(back2.is_ok());
  EXPECT_EQ(back2.value().block, resp.block);
}

TEST(Messages, TimeoutNoticeRoundTrip) {
  TimeoutNoticeMsg m{42};
  auto back = decode_from_bytes<TimeoutNoticeMsg>(encode_to_bytes(m));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().view, m.view);

  Envelope env = make_envelope(MsgKind::kTimeoutNotice, m);
  auto reparsed = Envelope::parse(env.serialize());
  ASSERT_TRUE(reparsed.is_ok());
  auto opened = open_envelope<TimeoutNoticeMsg>(reparsed.value());
  ASSERT_TRUE(opened.is_ok());
  EXPECT_EQ(opened.value().view, 42u);
}

TEST(Messages, EnvelopeSharesItsFrame) {
  ClientRequestMsg req;
  req.ops = {make_op(1, 1, 4096)};
  const Envelope sent = make_envelope(MsgKind::kClientRequest, req);
  const Payload frame = sent.serialize();
  // Serializing hands out the envelope's own buffer: [kind][body].
  EXPECT_TRUE(frame.shares_buffer(sent.serialize()));
  EXPECT_EQ(frame[0], static_cast<std::uint8_t>(MsgKind::kClientRequest));
  EXPECT_EQ(frame.size(), 1 + encode_to_bytes(req).size());

  // Parsing wraps the received frame: the body is a view into it.
  auto parsed = Envelope::parse(frame);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_TRUE(parsed.value().serialize().shares_buffer(frame));
  EXPECT_EQ(parsed.value().body().data(), frame.data() + 1);
  EXPECT_EQ(frame.use_count(), 3);  // frame, sent, parsed
  auto back = open_envelope<ClientRequestMsg>(parsed.value());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().ops, req.ops);
}

TEST(Messages, EnvelopeRejectsGarbage) {
  EXPECT_FALSE(Envelope::parse(Bytes{}).is_ok());
  EXPECT_FALSE(Envelope::parse(Bytes{0x00}).is_ok());
  EXPECT_FALSE(Envelope::parse(Bytes{0xff, 0x01}).is_ok());
}

TEST(Messages, TrailingGarbageRejected) {
  FetchRequestMsg req{Hash256{}};
  Bytes enc = encode_to_bytes(req);
  enc.push_back(0x00);
  EXPECT_FALSE(decode_from_bytes<FetchRequestMsg>(enc).is_ok());
}

}  // namespace
}  // namespace marlin::types

namespace marlin::types {
namespace {

// ---------------------------------------------------------------------------
// Decoder robustness (fuzz-style): arbitrary corruption must produce a
// clean error or a valid value — never a crash or UB.
// ---------------------------------------------------------------------------

/// Valid wire frames of the message kinds the decoder tests mutate.
std::vector<Bytes> envelope_corpus() {
  std::vector<Bytes> corpus;
  ClientRequestMsg req;
  req.ops = {make_op(1, 1, 150), make_op(2, 9, 10)};
  corpus.push_back(
      make_envelope(MsgKind::kClientRequest, req).serialize().bytes());

  ClientReplyMsg rep;
  rep.client = 3;
  rep.requests = {1, 2, 3};
  rep.result = to_bytes("12345678");
  rep.padding = Bytes(64, 0xcd);
  corpus.push_back(
      make_envelope(MsgKind::kClientReply, rep).serialize().bytes());

  ProposalMsg prop;
  prop.phase = Phase::kPrePrepare;
  prop.view = 4;
  ProposalEntry e1, e2;
  e1.block = make_block(4, 3, crypto::Sha256::digest(to_bytes("p")), 2,
                        {make_op(1, 1, 40)});
  e1.justify.qc = make_qc(QcType::kPrepare, 3, 2);
  e2.block = e1.block;
  e2.block.height = 4;
  e2.block.virtual_block = true;
  e2.block.parent_link = Hash256{};
  e2.justify = e1.justify;
  prop.entries = {e1, e2};
  corpus.push_back(
      make_envelope(MsgKind::kProposal, prop).serialize().bytes());

  VoteMsg vote;
  vote.phase = Phase::kPrepare;
  vote.view = 4;
  vote.parsig = {1, Bytes(crypto::kSignatureSize, 0x33)};
  vote.locked_qc = make_qc(QcType::kPrepare, 3, 2);
  corpus.push_back(
      make_envelope(MsgKind::kVote, vote).serialize().bytes());

  QcNoticeMsg notice;
  notice.qc = make_qc(QcType::kPrePrepare, 4, 5, {}, 4, 3, true);
  notice.aux = make_qc(QcType::kPrepare, 3, 4);
  corpus.push_back(
      make_envelope(MsgKind::kQcNotice, notice).serialize().bytes());

  ViewChangeMsg vc;
  vc.view = 5;
  vc.last_voted = BlockRef{crypto::Sha256::digest(to_bytes("lb")), 4, 7, 3,
                           false};
  vc.high_qc.qc = make_qc(QcType::kPrepare, 4, 6);
  vc.parsig = {2, Bytes(crypto::kSignatureSize, 0x44)};
  corpus.push_back(
      make_envelope(MsgKind::kViewChange, vc).serialize().bytes());
  return corpus;
}

/// Parses `wire` and opens it as the kind its first byte declares.
Status open_any(const Bytes& wire) {
  auto env = Envelope::parse(wire);
  if (!env.is_ok()) return env.status();
  switch (env.value().kind()) {
    case MsgKind::kClientRequest:
      return open_envelope<ClientRequestMsg>(env.value()).status();
    case MsgKind::kClientReply:
      return open_envelope<ClientReplyMsg>(env.value()).status();
    case MsgKind::kProposal:
      return open_envelope<ProposalMsg>(env.value()).status();
    case MsgKind::kVote:
      return open_envelope<VoteMsg>(env.value()).status();
    case MsgKind::kQcNotice:
      return open_envelope<QcNoticeMsg>(env.value()).status();
    case MsgKind::kViewChange:
      return open_envelope<ViewChangeMsg>(env.value()).status();
    case MsgKind::kFetchRequest:
      return open_envelope<FetchRequestMsg>(env.value()).status();
    case MsgKind::kFetchResponse:
      return open_envelope<FetchResponseMsg>(env.value()).status();
    case MsgKind::kSnapshotRequest:
      return open_envelope<SnapshotRequestMsg>(env.value()).status();
    case MsgKind::kSnapshotResponse:
      return open_envelope<SnapshotResponseMsg>(env.value()).status();
    case MsgKind::kTimeoutNotice:
      return open_envelope<TimeoutNoticeMsg>(env.value()).status();
  }
  return Status::ok();
}

class DecoderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecoderFuzz, MutatedEnvelopesNeverCrash) {
  Rng rng(GetParam());
  const std::vector<Bytes> corpus = envelope_corpus();

  for (int trial = 0; trial < 3000; ++trial) {
    Bytes wire = corpus[rng.next_below(corpus.size())];
    const auto mutation = rng.next_below(4);
    if (mutation == 0 && !wire.empty()) {
      // Flip random bytes.
      for (int k = 0; k < 3; ++k) {
        wire[rng.next_below(wire.size())] ^=
            static_cast<std::uint8_t>(1 + rng.next_below(255));
      }
    } else if (mutation == 1 && wire.size() > 2) {
      wire.resize(1 + rng.next_below(wire.size() - 1));  // truncate
    } else if (mutation == 2) {
      append(wire, rng.next_bytes(1 + rng.next_below(32)));  // extend
    } else {
      wire = rng.next_bytes(1 + rng.next_below(200));  // pure garbage
    }
    (void)open_any(wire);  // must not crash; outcome irrelevant
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz,
                         ::testing::Values(1000, 2000, 3000, 4000));

// Every bounds check in the codec: each strict prefix of a valid frame is
// a short read somewhere, and must fail cleanly as corruption.
TEST(DecoderCorpus, EveryStrictPrefixFailsWithCorruption) {
  for (const Bytes& wire : envelope_corpus()) {
    ASSERT_TRUE(open_any(wire).is_ok());
    for (std::size_t len = 0; len < wire.size(); ++len) {
      const Bytes prefix(wire.begin(), wire.begin() + len);
      const Status s = open_any(prefix);
      EXPECT_EQ(s.code(), ErrorCode::kCorruption)
          << "kind " << int(wire[0]) << ", " << len << " of " << wire.size()
          << " bytes: " << s.to_string();
    }
  }
}

// ---------------------------------------------------------------------------
// Block identity from the frame (consensus/block_frames.h)
// ---------------------------------------------------------------------------

QuorumCert signed_qc(QcType type, ViewNumber view, Height height) {
  QuorumCert qc = make_qc(type, view, height,
                          crypto::Sha256::digest(to_bytes("b")), view, 1);
  for (std::uint32_t r = 0; r < 3; ++r) {
    qc.sigs.parts.push_back(
        {r, Bytes(crypto::kSignatureSize, static_cast<std::uint8_t>(r + 1))});
  }
  return qc;
}

/// Frames exercising every block path: a PREPARE, a PRE-PREPARE shadow
/// pair, a fetch response and a snapshot suffix, with signature-group,
/// threshold-form and (qc, vc) justifies.
std::vector<Envelope> block_frames() {
  Block b1 = make_block(4, 3, crypto::Sha256::digest(to_bytes("p")), 2,
                        {make_op(1, 1, 40), make_op(2, 5, 300)});
  b1.justify.qc = signed_qc(QcType::kPrepare, 3, 2);
  Block b2 = b1;
  b2.height = 4;
  b2.virtual_block = true;
  b2.parent_link = Hash256{};
  b2.justify.qc = make_qc(QcType::kPrePrepare, 3, 3, {}, 3, 2, true);
  b2.justify.qc->threshold_sig = Bytes(crypto::kSignatureSize, 0x7a);
  b2.justify.vc = signed_qc(QcType::kPrepare, 2, 2);

  ProposalMsg prepare;
  prepare.view = 4;
  prepare.entries.push_back({b1, b1.justify});
  ProposalMsg pair;
  pair.phase = Phase::kPrePrepare;
  pair.view = 4;
  pair.entries.push_back({b1, b1.justify});
  pair.entries.push_back({b2, b2.justify});
  SnapshotResponseMsg snapshot;
  snapshot.height = 4;
  snapshot.suffix = {b2, b1};
  return {make_envelope(MsgKind::kProposal, prepare),
          make_envelope(MsgKind::kProposal, pair),
          make_envelope(MsgKind::kFetchResponse, FetchResponseMsg{b1}),
          make_envelope(MsgKind::kSnapshotResponse, snapshot)};
}

/// Opens a frame as a receiver does and returns its blocks, digests
/// pinned; nullopt when it does not decode.
std::optional<std::vector<Block>> open_blocks(const Envelope& env) {
  using consensus::open_framed;
  std::vector<Block> out;
  switch (env.kind()) {
    case MsgKind::kProposal: {
      auto m = open_framed<ProposalMsg>(env);
      if (!m.is_ok()) return std::nullopt;
      for (ProposalEntry& e : m.value().entries) {
        out.push_back(std::move(e.block));
      }
      return out;
    }
    case MsgKind::kFetchResponse: {
      auto m = open_framed<FetchResponseMsg>(env);
      if (!m.is_ok()) return std::nullopt;
      out.push_back(std::move(m.value().block));
      return out;
    }
    case MsgKind::kSnapshotResponse: {
      auto m = open_framed<SnapshotResponseMsg>(env);
      if (!m.is_ok()) return std::nullopt;
      return std::move(m.value().suffix);
    }
    default:
      return std::nullopt;
  }
}

TEST(FramedBlocks, PinnedDigestIsEncodeThenHash) {
  for (const Envelope& env : block_frames()) {
    auto blocks = open_blocks(env);
    ASSERT_TRUE(blocks.has_value());
    ASSERT_FALSE(blocks->empty());
    for (const Block& b : *blocks) {
      // A copy drops the pinned digest, so it encodes and hashes.
      EXPECT_EQ(b.hash(), Block(b).hash());
      EXPECT_EQ(b.hash(), unmemoized_hash(b));
    }
  }
}

TEST(FramedBlocks, FrameIsHashedOnceForAllReceivers) {
  const Envelope env = block_frames()[1];  // the shadow pair
  const std::uint64_t before = Block::digests_computed;
  std::vector<Hash256> first;
  const auto opened = open_blocks(env);
  ASSERT_TRUE(opened.has_value());
  for (const Block& b : *opened) first.push_back(b.hash());
  // Receivers of the same frame (a shared buffer) reuse its digests.
  for (int receiver = 1; receiver < 4; ++receiver) {
    const Envelope copy = Envelope::parse(env.serialize()).take();
    const auto reopened = open_blocks(copy);
    ASSERT_TRUE(reopened.has_value());
    std::vector<Hash256> again;
    for (const Block& b : *reopened) again.push_back(b.hash());
    EXPECT_EQ(again, first);
  }
  EXPECT_EQ(Block::digests_computed - before, first.size());
}

TEST(FramedBlocks, LeaderDigestsItsFrameForEveryReceiver) {
  ProposalMsg msg =
      decode_from_bytes<ProposalMsg>(block_frames()[1].body()).take();
  std::vector<BlockSlices> sent;
  const Envelope env = consensus::frame_proposal(msg, sent);
  EXPECT_EQ(env.serialize().bytes(),
            make_envelope(MsgKind::kProposal, msg).serialize().bytes());
  // The leader's slices are the ones a receiver's decoder records.
  std::vector<BlockSlices> received;
  Reader r(env.serialize().view());
  ASSERT_TRUE(r.skip(1).is_ok());
  ASSERT_TRUE(ProposalMsg::decode(r, &received).is_ok());
  ASSERT_EQ(sent.size(), 2u);
  ASSERT_EQ(received.size(), 2u);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(sent[i].head, received[i].head) << i;
    EXPECT_EQ(sent[i].ops, received[i].ops) << i;
    EXPECT_EQ(sent[i].justify, received[i].justify) << i;
  }
  // The shadow borrows the first entry's batch.
  EXPECT_EQ(sent[1].ops, sent[0].ops);

  const std::uint64_t before = Block::digests_computed;
  consensus::pin_block_digests(env, sent,
                               {&msg.entries[0].block, &msg.entries[1].block});
  const auto receiver = open_blocks(env);
  EXPECT_EQ(Block::digests_computed - before, 2u);
  ASSERT_TRUE(receiver.has_value());
  for (std::size_t i = 0; i < 2; ++i) {
    const Block& sent_block = msg.entries[i].block;
    EXPECT_EQ(sent_block.hash(), Block(sent_block).hash());
    EXPECT_EQ((*receiver)[i].hash(), sent_block.hash());
  }
}

class FramedBlockFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FramedBlockFuzz, MutatedFramesThatDecodePinEncodeThenHash) {
  // Decoders must accept only canonical encodings: slice hashing takes the
  // frame's bytes as the block's encoding. Every single-byte mutation of
  // every frame (reaching each header, op, justify, QC, signature group
  // and partial-signature field), plus random multi-byte ones, either
  // fails to decode or yields blocks whose pinned digest equals
  // encode-then-hash.
  Rng rng(GetParam());
  std::size_t decoded = 0;
  auto check = [&](const Bytes& wire) {
    auto env = Envelope::parse(wire);
    if (!env.is_ok()) return;
    auto blocks = open_blocks(env.value());
    if (!blocks) return;
    ++decoded;
    for (const Block& b : *blocks) {
      ASSERT_EQ(b.hash(), Block(b).hash())
          << "non-canonical frame accepted: " << to_hex(wire);
    }
  };
  for (const Envelope& env : block_frames()) {
    const Bytes& frame = env.serialize().bytes();
    for (std::size_t at = 1; at < frame.size(); ++at) {
      Bytes wire = frame;
      wire[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
      check(wire);
    }
    for (int trial = 0; trial < 300; ++trial) {
      Bytes wire = frame;
      const auto mutation = rng.next_below(3);
      if (mutation == 0) {
        for (int k = 0; k < 2; ++k) {
          wire[1 + rng.next_below(wire.size() - 1)] =
              static_cast<std::uint8_t>(rng.next_below(256));
        }
      } else if (mutation == 1) {
        wire.insert(wire.begin() + 1 + rng.next_below(wire.size() - 1),
                    static_cast<std::uint8_t>(rng.next_below(256)));
      } else {
        wire.erase(wire.begin() + 1 + rng.next_below(wire.size() - 1));
      }
      check(wire);
    }
  }
  // Mutations that keep a frame decodable exist (op payload bytes, views,
  // signature bytes): the sweep did check some.
  EXPECT_GT(decoded, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FramedBlockFuzz,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace marlin::types
