#include "types/block_store.h"

#include <algorithm>

namespace marlin::types {

BlockStore::BlockStore() {
  Block genesis = Block::genesis();
  genesis_hash_ = genesis.hash();
  blocks_.emplace(genesis_hash_, std::move(genesis));
}

const Block& BlockStore::insert(Block block) {
  // A block whose justify carries a (qc, vc) pair certifies its parent as a
  // virtual block whose own parent is block(vc). The live protocol registers
  // that mapping when it validates the pair, but a block arriving via state
  // transfer (fetch / snapshot) bypasses those paths — without registering
  // here, parent_of() on the transferred virtual block returns ⊥ forever and
  // every chain walk through it fails, wedging catch-up. The justify is
  // covered by the block hash, so the mapping is as authentic as the block.
  // First write wins: a protocol-verified registration is never clobbered.
  const Justify& j = block.justify;
  if (j.qc && j.vc && !virtual_parents_.count(j.qc->block_hash)) {
    virtual_parents_.emplace(j.qc->block_hash, j.vc->block_hash);
  }
  return blocks_.emplace(block.hash(), std::move(block)).first->second;
}

bool BlockStore::contains(const Hash256& hash) const {
  return blocks_.count(hash) > 0;
}

const Block* BlockStore::get(const Hash256& hash) const {
  auto it = blocks_.find(hash);
  return it == blocks_.end() ? nullptr : &it->second;
}

void BlockStore::set_virtual_parent(const Hash256& virtual_hash,
                                    const Hash256& parent_hash) {
  virtual_parents_[virtual_hash] = parent_hash;
}

Hash256 BlockStore::parent_of(const Hash256& hash) const {
  const Block* b = get(hash);
  if (!b) return Hash256{};
  if (b->virtual_block) {
    auto it = virtual_parents_.find(hash);
    return it == virtual_parents_.end() ? Hash256{} : it->second;
  }
  return b->parent_link;
}

bool BlockStore::extends(const Hash256& descendant,
                         const Hash256& ancestor) const {
  const Block* anc = get(ancestor);
  if (!anc) return false;
  Hash256 cursor = descendant;
  while (true) {
    if (cursor == ancestor) return true;
    const Block* b = get(cursor);
    if (!b) return false;
    if (b->height <= anc->height) return false;
    cursor = parent_of(cursor);
    if (cursor.is_zero()) return false;
  }
}

std::vector<Hash256> BlockStore::chain(const Hash256& descendant,
                                       const Hash256& ancestor) const {
  std::vector<Hash256> out;
  Hash256 cursor = descendant;
  while (cursor != ancestor) {
    const Block* b = get(cursor);
    if (!b) return {};
    out.push_back(cursor);
    if (b->is_genesis()) return {};  // walked past the root without a hit
    cursor = parent_of(cursor);
    if (cursor.is_zero()) return {};
  }
  std::reverse(out.begin(), out.end());
  return out;
}

void BlockStore::release_ops(const Hash256& hash) {
  auto it = blocks_.find(hash);
  if (it != blocks_.end() && !it->second.ops.empty()) {
    it->second.ops.clear();
    it->second.ops.shrink_to_fit();
    released_.insert(hash);
  }
}

bool block_rank_greater(const Block& b1, const Block& b2) {
  if (b1.view != b2.view) return b1.view > b2.view;
  if (b1.height <= b2.height) return false;
  // Same view, higher height: dominates only when justified by a
  // prepareQC formed in b1's own view (the anti-forking clause).
  return b1.justify.qc.has_value() &&
         b1.justify.qc->type == QcType::kPrepare &&
         b1.justify.qc->view == b1.view;
}

void BlockRef::encode(Writer& w) const {
  w.raw(hash.view());
  w.u64(view);
  w.u64(height);
  w.u64(pview);
  w.boolean(virtual_block);
}

Result<BlockRef> BlockRef::decode(Reader& r) {
  BlockRef ref;
  Bytes h;
  if (Status s = r.raw(crypto::kHashSize, h); !s.is_ok()) return s;
  ref.hash = Hash256::from_bytes(h);
  if (Status s = r.u64(ref.view); !s.is_ok()) return s;
  if (Status s = r.u64(ref.height); !s.is_ok()) return s;
  if (Status s = r.u64(ref.pview); !s.is_ok()) return s;
  if (Status s = r.boolean(ref.virtual_block); !s.is_ok()) return s;
  return ref;
}

}  // namespace marlin::types
