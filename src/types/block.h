// Block model from the paper (§V-A): a block is
//   b = [pl, pview, view, height, op, justify]
// where `pl` is the hash of the parent block, `pview` the parent's view,
// and `justify` carries the QC(s) for the parent. A *virtual* block is the
// view-change special: its pl is ⊥ (zero hash) and it may acquire a "real"
// parent only after the fact (Case 2 of the pre-prepare phase). *Shadow*
// blocks are a bandwidth trick, not a distinct type: two blocks proposed in
// one PRE-PREPARE share the same `op` payload, and the wire format sends
// the payload once (see messages.h).
#pragma once

#include <atomic>
#include <optional>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/serialize.h"
#include "crypto/sha256.h"
#include "types/quorum_cert.h"

namespace marlin::types {

using crypto::Hash256;

/// One client operation (opaque payload plus routing metadata for replies).
struct Operation {
  ClientId client = 0;
  RequestId request = 0;
  Bytes payload;

  void encode(Writer& w) const;
  bool operator==(const Operation&) const = default;
};

/// Decodes a varint-counted op batch (a block's or a client request's)
/// into `ops`, each op straight into its slot.
Status decode_ops(Reader& r, std::vector<Operation>& ops);

/// Where a block's canonical encoding lies in the bytes it was coded
/// from: header, op batch and justify, as [begin, end) offsets. Its digest
/// hashes the three in order; a shadow block borrows the first entry's ops.
struct BlockSlices {
  std::pair<std::size_t, std::size_t> head, ops, justify;
};

struct Block {
  Hash256 parent_link;    // pl: hash of parent; zero for genesis / virtual
  ViewNumber parent_view = 0;  // pview
  ViewNumber view = 0;
  Height height = 0;
  bool virtual_block = false;  // pl = ⊥ (paper's virtual block)
  std::vector<Operation> ops;
  Justify justify;  // QC(s) for the parent block (see quorum_cert.h)

  /// Deterministic content hash — the identity used by parent links, votes
  /// and QCs. Includes every field (the paper's shadow blocks share ops but
  /// differ in metadata, so they hash differently, as required).
  ///
  /// Memoized, or pinned from the frame a block arrived in (see
  /// consensus/block_frames.h). The one post-hash mutation in the tree —
  /// BlockStore::release_ops dropping committed op payloads — must NOT
  /// change identity, which the memo guarantees.
  Hash256 hash() const;
  /// Pins a digest the caller vouches is this block's.
  void pin_hash(const Hash256& h) { hash_memo_.value = h; }
  /// Block digest of an encoding given in consecutive parts.
  static Hash256 digest(std::initializer_list<BytesView> parts);
  /// digest() calls so far in this process (tests pin hash-once paths).
  static inline std::atomic<std::uint64_t> digests_computed{0};

  bool is_genesis() const { return view == 0 && height == 0; }

  /// With `slices`, encode/decode record where the block lies in w / r.
  void encode(Writer& w, BlockSlices* slices = nullptr) const;
  /// Exact number of bytes encode() appends (hash() reserves its buffer
  /// from it, so hashing a block never grows and copies the encoding).
  std::size_t encoded_size() const;
  static Result<Block> decode(Reader& r, BlockSlices* slices = nullptr);
  bool operator==(const Block& o) const {
    return parent_link == o.parent_link && parent_view == o.parent_view &&
           view == o.view && height == o.height &&
           virtual_block == o.virtual_block && ops == o.ops &&
           justify == o.justify;
  }

  /// The genesis block every replica starts from.
  static Block genesis();

 private:
  // The memo must not survive a copy: `Block b = a; b.view = 3;` is a legal
  // way to derive a new block, and a copied memo would pin the old identity.
  // Moves keep it — a moved block is the same block.
  struct HashMemo {
    mutable std::optional<Hash256> value;
    HashMemo() = default;
    HashMemo(const HashMemo&) {}
    HashMemo& operator=(const HashMemo&) {
      value.reset();
      return *this;
    }
    HashMemo(HashMemo&&) = default;
    HashMemo& operator=(HashMemo&&) = default;
  };
  HashMemo hash_memo_;
};

/// Payload bytes of one op (bandwidth accounting).
inline std::size_t op_wire_size(const Operation& op) {
  return 4 + 8 + 2 + op.payload.size();
}

/// Total payload bytes across ops (bandwidth accounting).
std::size_t ops_wire_size(const std::vector<Operation>& ops);

}  // namespace marlin::types
