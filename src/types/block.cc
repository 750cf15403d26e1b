#include "types/block.h"

#include <algorithm>

namespace marlin::types {

void Operation::encode(Writer& w) const {
  w.u32(client);
  w.u64(request);
  w.bytes(payload);
}

Status decode_ops(Reader& r, std::vector<Operation>& ops) {
  std::uint64_t count = 0;
  if (Status s = r.varint(count); !s.is_ok()) return s;
  if (count > (1u << 22)) {
    return error(ErrorCode::kCorruption, "oversized op batch");
  }
  // An op takes at least 13 bytes (client, request, empty payload), so a
  // count the input cannot hold reserves no more than the input could.
  ops.reserve(std::min<std::uint64_t>(count, r.remaining() / 13));
  for (std::uint64_t i = 0; i < count; ++i) {
    Operation& op = ops.emplace_back();
    if (Status s = r.u32(op.client); !s.is_ok()) return s;
    if (Status s = r.u64(op.request); !s.is_ok()) return s;
    if (Status s = r.bytes(op.payload); !s.is_ok()) return s;
  }
  return Status::ok();
}

std::size_t ops_wire_size(const std::vector<Operation>& ops) {
  std::size_t total = 0;
  for (const Operation& op : ops) total += op_wire_size(op);
  return total;
}

Hash256 Block::hash() const {
  if (!hash_memo_.value) {
    Writer w(encoded_size());
    encode(w);
    hash_memo_.value = digest({w.buffer()});
  }
  return *hash_memo_.value;
}

Hash256 Block::digest(std::initializer_list<BytesView> parts) {
  // The tag as Writer::str frames it: length varint, then the bytes.
  static constexpr std::uint8_t kTag[] = "\x0cmarlin.block";
  digests_computed.fetch_add(1, std::memory_order_relaxed);
  crypto::Sha256 sha;
  sha.update(BytesView(kTag, sizeof kTag - 1));
  for (BytesView part : parts) sha.update(part);
  return sha.finish();
}

void Block::encode(Writer& w, BlockSlices* slices) const {
  const std::size_t begin = w.size();
  w.raw(parent_link.view());
  w.u64(parent_view);
  w.u64(view);
  w.u64(height);
  w.boolean(virtual_block);
  const std::size_t ops_begin = w.size();
  w.varint(ops.size());
  for (const Operation& op : ops) op.encode(w);
  const std::size_t ops_end = w.size();
  justify.encode(w);
  if (slices) {
    *slices = BlockSlices{{begin, ops_begin}, {ops_begin, ops_end},
                          {ops_end, w.size()}};
  }
}

std::size_t Block::encoded_size() const {
  // parent link, parent view, view, height, virtual flag.
  std::size_t n = crypto::kHashSize + 8 + 8 + 8 + 1 + varint_size(ops.size());
  for (const Operation& op : ops) {
    n += 4 + 8 + varint_size(op.payload.size()) + op.payload.size();
  }
  return n + justify.encoded_size();
}

Result<Block> Block::decode(Reader& r, BlockSlices* slices) {
  Block b;
  const std::size_t begin = r.position();
  Bytes hash;
  if (Status s = r.raw(crypto::kHashSize, hash); !s.is_ok()) return s;
  b.parent_link = Hash256::from_bytes(hash);
  if (Status s = r.u64(b.parent_view); !s.is_ok()) return s;
  if (Status s = r.u64(b.view); !s.is_ok()) return s;
  if (Status s = r.u64(b.height); !s.is_ok()) return s;
  if (Status s = r.boolean(b.virtual_block); !s.is_ok()) return s;
  const std::size_t ops_begin = r.position();
  if (Status s = decode_ops(r, b.ops); !s.is_ok()) return s;
  const std::size_t ops_end = r.position();
  Result<Justify> j = Justify::decode(r);
  if (!j.is_ok()) return j.status();
  b.justify = std::move(j).take();
  if (slices) {
    *slices = BlockSlices{{begin, ops_begin}, {ops_begin, ops_end},
                          {ops_end, r.position()}};
  }
  return b;
}

Block Block::genesis() {
  return Block{};  // zero hash parent, view 0, height 0, no ops, no justify
}

}  // namespace marlin::types
