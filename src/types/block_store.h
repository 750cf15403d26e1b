// In-memory tree of blocks keyed by hash (each replica's view of the block
// graph, rooted at genesis). Handles the paper's virtual blocks: a virtual
// block's wire parent link is ⊥; its *effective* parent is resolved later
// from the prepareQC `vc` carried beside its pre-prepareQC, and recorded
// here via set_virtual_parent().
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "types/block.h"

namespace marlin::types {

class BlockStore {
 public:
  BlockStore();

  const Hash256& genesis_hash() const { return genesis_hash_; }

  /// Inserts a block (idempotent) and returns the stored body. Orphans are
  /// allowed — consensus can validate proposals from QC metadata alone and
  /// fetch bodies later. Pass an owned block by move: a copy drops its
  /// pinned identity and re-encodes to hash.
  const Block& insert(Block block);

  bool contains(const Hash256& hash) const;
  /// nullptr when unknown.
  const Block* get(const Hash256& hash) const;

  /// Records the resolved parent of a virtual block (from its `vc`).
  void set_virtual_parent(const Hash256& virtual_hash,
                          const Hash256& parent_hash);

  /// Effective parent hash: the recorded virtual parent for virtual
  /// blocks, else the wire parent link. Zero hash when unresolved.
  Hash256 parent_of(const Hash256& hash) const;

  /// True if `descendant` is `ancestor` or an extension of it, following
  /// effective parents. False when the chain cannot be walked (missing
  /// bodies) — callers treat that as "unknown, fetch first".
  bool extends(const Hash256& descendant, const Hash256& ancestor) const;

  /// Blocks strictly after `ancestor` up to and including `descendant`,
  /// oldest first — the commit order. Empty when the walk fails.
  std::vector<Hash256> chain(const Hash256& descendant,
                             const Hash256& ancestor) const;

  /// Drops op payloads of a block already executed (memory hygiene for
  /// long runs); metadata stays for rank/ancestry queries. A released
  /// block's stored content no longer matches its hash, so it must never
  /// be served to fetchers — check ops_released() first.
  void release_ops(const Hash256& hash);
  bool ops_released(const Hash256& hash) const {
    return released_.count(hash) > 0;
  }

  std::size_t size() const { return blocks_.size(); }

 private:
  std::unordered_map<Hash256, Block, crypto::Hash256Hasher> blocks_;
  std::unordered_map<Hash256, Hash256, crypto::Hash256Hasher> virtual_parents_;
  std::unordered_set<Hash256, crypto::Hash256Hasher> released_;
  Hash256 genesis_hash_;
};

/// Block rank dominance (paper §V-A): rank(b1) > rank(b2) iff
/// b1.view > b2.view, or (same view, b1.height > b2.height, and b1.justify
/// is a prepareQC formed in b1's own view).
bool block_rank_greater(const Block& b1, const Block& b2);

/// Metadata-only reference to a block (what VIEW-CHANGE carries as lb).
struct BlockRef {
  Hash256 hash;
  ViewNumber view = 0;
  Height height = 0;
  ViewNumber pview = 0;
  bool virtual_block = false;

  static BlockRef of(const Block& b) {
    return BlockRef{b.hash(), b.view, b.height, b.parent_view,
                    b.virtual_block};
  }

  void encode(Writer& w) const;
  static Result<BlockRef> decode(Reader& r);
  bool operator==(const BlockRef&) const = default;
};

}  // namespace marlin::types
