// Block identity from the bytes on the wire. A block's digest is the hash
// of its canonical encoding, and a frame that carries a block already
// holds that encoding, so nothing here ever re-encodes a block to learn
// its identity: the decoders record each block's slices of the frame
// (types::BlockSlices), the slices are hashed once per frame into the
// frame's digest slot (Payload::digests), and every decoded copy of the
// block gets the digest pinned. One broadcast to n replicas — simulated
// replicas share the frame, the leader's loopback copy shares it on both
// backends — therefore hashes each block once.
#pragma once

#include <vector>

#include "types/messages.h"

namespace marlin::consensus {

/// Decodes a block-carrying message — ProposalMsg, FetchResponseMsg or
/// SnapshotResponseMsg — from its envelope, every block's digest pinned.
template <typename M>
Result<M> open_framed(const types::Envelope& env);

/// Frames a proposal (as make_envelope does), recording where each entry's
/// block lies in the frame.
types::Envelope frame_proposal(const types::ProposalMsg& msg,
                               std::vector<types::BlockSlices>& slices);

/// Pins on blocks[i] the digest of slices[i] of env's frame, from the
/// frame's digest slot: the first caller hashes each block, every other
/// holder of the frame reuses the digests.
void pin_block_digests(const types::Envelope& env,
                       const std::vector<types::BlockSlices>& slices,
                       const std::vector<types::Block*>& blocks);

}  // namespace marlin::consensus
