#include "types/block.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <unordered_map>

namespace marlin::types {

namespace {

// Cross-instance digest memo: every replica of a simulated cluster decodes
// its own Block from the same proposal bytes, so the same encoding is
// hashed up to n times. Key the digest by the full encoding — first caller
// pays the SHA-256, the rest pay a hash-map probe and one memcmp.
// thread_local so parallel simulations (chaos sweeps with --jobs) never
// contend or mix.
//
// The key hash reads only the size and the first kKeyPrefix bytes (the
// "marlin.block" tag, parent link, views, height and the first op), so a
// probe never scans a whole multi-KiB encoding; equality still compares
// whole encodings, so a prefix collision costs a memcmp, never a wrong
// digest.
constexpr std::size_t kKeyPrefix = 256;
// Bounds on what one thread retains. Past either, the oldest entries are
// evicted one at a time, so the next encoding (usually the same size) can
// reuse the freed buffer; clearing the memo wholesale freed a burst of
// block-sized buffers at once and fragmented the heap. Hits come from the
// same proposal decoded by co-hosted replicas (or, on metal, the leader's
// loopback self-delivery) within a round or two, so a few MiB suffice.
constexpr std::size_t kMaxEntries = 4096;
constexpr std::size_t kMaxBytes = 4u << 20;

struct EncodingHasher {
  std::size_t operator()(const Bytes& b) const {
    std::uint64_t h = (0xcbf29ce484222325ULL ^ b.size()) * 0x100000001b3ULL;
    const std::size_t n = std::min(b.size(), kKeyPrefix);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t v;
      std::memcpy(&v, b.data() + i, 8);
      h = (h ^ v) * 0x100000001b3ULL;
      h ^= h >> 29;
    }
    for (; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ULL;
    return h;
  }
};

Hash256 memoized_digest(Bytes encoding) {
  struct Memo {
    using Map = std::unordered_map<Bytes, Hash256, EncodingHasher>;
    // Sized so the map never rehashes below kMaxEntries: the FIFO's
    // iterators stay valid.
    Memo() { map.reserve(kMaxEntries); }
    Map map;
    std::deque<Map::iterator> fifo;  // insertion order, oldest first
    std::size_t bytes = 0;           // sum of retained encoding sizes
  };
  thread_local Memo memo;
  auto it = memo.map.find(encoding);
  if (it != memo.map.end()) return it->second;
  const Hash256 d = crypto::Sha256::digest(encoding);
  while (!memo.fifo.empty() && (memo.map.size() >= kMaxEntries ||
                                memo.bytes + encoding.size() > kMaxBytes)) {
    memo.bytes -= memo.fifo.front()->first.size();
    memo.map.erase(memo.fifo.front());
    memo.fifo.pop_front();
  }
  memo.bytes += encoding.size();
  memo.fifo.push_back(memo.map.emplace(std::move(encoding), d).first);
  return d;
}

}  // namespace

void Operation::encode(Writer& w) const {
  w.u32(client);
  w.u64(request);
  w.bytes(payload);
}

Result<Operation> Operation::decode(Reader& r) {
  Operation op;
  if (Status s = r.u32(op.client); !s.is_ok()) return s;
  if (Status s = r.u64(op.request); !s.is_ok()) return s;
  if (Status s = r.bytes(op.payload); !s.is_ok()) return s;
  return op;
}

std::size_t ops_wire_size(const std::vector<Operation>& ops) {
  std::size_t total = 0;
  for (const Operation& op : ops) total += op_wire_size(op);
  return total;
}

Hash256 Block::hash() const {
  if (!hash_memo_.value) {
    constexpr std::string_view kTag = "marlin.block";
    Writer w(varint_size(kTag.size()) + kTag.size() + encoded_size());
    w.str(kTag);
    encode(w);
    hash_memo_.value = memoized_digest(std::move(w).take());
  }
  return *hash_memo_.value;
}

void Block::encode(Writer& w) const {
  w.raw(parent_link.view());
  w.u64(parent_view);
  w.u64(view);
  w.u64(height);
  w.boolean(virtual_block);
  w.varint(ops.size());
  for (const Operation& op : ops) op.encode(w);
  justify.encode(w);
}

std::size_t Block::encoded_size() const {
  // parent link, parent view, view, height, virtual flag.
  std::size_t n = crypto::kHashSize + 8 + 8 + 8 + 1 + varint_size(ops.size());
  for (const Operation& op : ops) {
    n += 4 + 8 + varint_size(op.payload.size()) + op.payload.size();
  }
  return n + justify.encoded_size();
}

Result<Block> Block::decode(Reader& r) {
  Block b;
  Bytes hash;
  if (Status s = r.raw(crypto::kHashSize, hash); !s.is_ok()) return s;
  b.parent_link = Hash256::from_bytes(hash);
  if (Status s = r.u64(b.parent_view); !s.is_ok()) return s;
  if (Status s = r.u64(b.view); !s.is_ok()) return s;
  if (Status s = r.u64(b.height); !s.is_ok()) return s;
  if (Status s = r.boolean(b.virtual_block); !s.is_ok()) return s;
  std::uint64_t count = 0;
  if (Status s = r.varint(count); !s.is_ok()) return s;
  if (count > (1u << 22)) {
    return error(ErrorCode::kCorruption, "oversized op batch");
  }
  b.ops.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Result<Operation> op = Operation::decode(r);
    if (!op.is_ok()) return op.status();
    b.ops.push_back(std::move(op).take());
  }
  Result<Justify> j = Justify::decode(r);
  if (!j.is_ok()) return j.status();
  b.justify = std::move(j).take();
  return b;
}

Block Block::genesis() {
  return Block{};  // zero hash parent, view 0, height 0, no ops, no justify
}

}  // namespace marlin::types
