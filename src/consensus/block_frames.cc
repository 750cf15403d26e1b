#include "consensus/block_frames.h"

namespace marlin::consensus {

using types::Block;
using types::BlockSlices;

namespace {

BytesView slice(BytesView frame, std::pair<std::size_t, std::size_t> r) {
  return frame.subspan(r.first, r.second - r.first);
}

std::vector<Block*> blocks_of(types::ProposalMsg& m) {
  std::vector<Block*> blocks;
  for (types::ProposalEntry& e : m.entries) blocks.push_back(&e.block);
  return blocks;
}

std::vector<Block*> blocks_of(types::FetchResponseMsg& m) {
  return {&m.block};
}

std::vector<Block*> blocks_of(types::SnapshotResponseMsg& m) {
  std::vector<Block*> blocks;
  blocks.reserve(m.suffix.size());
  for (Block& b : m.suffix) blocks.push_back(&b);
  return blocks;
}

}  // namespace

template <typename M>
Result<M> open_framed(const types::Envelope& env) {
  // Read from the whole frame, so the slices are frame offsets.
  Reader r(env.serialize().view());
  (void)r.skip(1);  // the kind byte; Envelope::parse checked it is there
  std::vector<BlockSlices> slices;
  Result<M> m = M::decode(r, &slices);
  if (!m.is_ok()) return m;
  if (Status s = r.expect_exhausted(); !s.is_ok()) return s;
  pin_block_digests(env, slices, blocks_of(m.value()));
  return m;
}

template Result<types::ProposalMsg> open_framed(const types::Envelope&);
template Result<types::FetchResponseMsg> open_framed(const types::Envelope&);
template Result<types::SnapshotResponseMsg> open_framed(
    const types::Envelope&);

types::Envelope frame_proposal(const types::ProposalMsg& msg,
                               std::vector<BlockSlices>& slices) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(types::MsgKind::kProposal));
  msg.encode(w, &slices);
  return types::Envelope::parse(Payload(std::move(w).take())).take();
}

void pin_block_digests(const types::Envelope& env,
                       const std::vector<BlockSlices>& slices,
                       const std::vector<Block*>& blocks) {
  const Payload frame_buffer = env.serialize();
  const BytesView frame = frame_buffer.view();
  const std::vector<Payload::Digest>& digests = frame_buffer.digests([&] {
    std::vector<Payload::Digest> out;
    out.reserve(slices.size());
    for (const BlockSlices& s : slices) {
      out.push_back(Block::digest({slice(frame, s.head), slice(frame, s.ops),
                                   slice(frame, s.justify)})
                        .data);
    }
    return out;
  });
  // One frame decodes one way, so every caller lists the same blocks.
  if (digests.size() != blocks.size()) return;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    blocks[i]->pin_hash(types::Hash256{digests[i]});
  }
}

}  // namespace marlin::consensus
