#include "types/messages.h"

#include <algorithm>

namespace marlin::types {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kPrePrepare: return "PRE-PREPARE";
    case Phase::kPrepare: return "PREPARE";
    case Phase::kPreCommit: return "PRE-COMMIT";
    case Phase::kCommit: return "COMMIT";
    case Phase::kDecide: return "DECIDE";
  }
  return "?";
}

void ClientRequestMsg::encode(Writer& w) const {
  w.varint(ops.size());
  for (const Operation& op : ops) op.encode(w);
}

Result<ClientRequestMsg> ClientRequestMsg::decode(Reader& r) {
  ClientRequestMsg m;
  if (Status s = decode_ops(r, m.ops); !s.is_ok()) return s;
  return m;
}

void ClientReplyMsg::encode(Writer& w) const {
  w.u32(client);
  w.u32(replica);
  w.u64(view);
  w.u64(height);
  w.varint(requests.size());
  for (RequestId id : requests) w.u64(id);
  w.bytes(result);
  w.bytes(padding);
}

Result<ClientReplyMsg> ClientReplyMsg::decode(Reader& r) {
  ClientReplyMsg m;
  if (Status s = r.u32(m.client); !s.is_ok()) return s;
  if (Status s = r.u32(m.replica); !s.is_ok()) return s;
  if (Status s = r.u64(m.view); !s.is_ok()) return s;
  if (Status s = r.u64(m.height); !s.is_ok()) return s;
  std::uint64_t count = 0;
  if (Status s = r.varint(count); !s.is_ok()) return s;
  if (count > (1u << 22)) {
    return error(ErrorCode::kCorruption, "oversized reply batch");
  }
  // Reserve no more ids than the input can hold (8 bytes each).
  m.requests.reserve(std::min<std::uint64_t>(count, r.remaining() / 8));
  for (std::uint64_t i = 0; i < count; ++i) {
    RequestId id = 0;
    if (Status s = r.u64(id); !s.is_ok()) return s;
    m.requests.push_back(id);
  }
  if (Status s = r.bytes(m.result); !s.is_ok()) return s;
  if (Status s = r.bytes(m.padding); !s.is_ok()) return s;
  return m;
}

void ProposalMsg::encode(Writer& w, std::vector<BlockSlices>* slices) const {
  w.u8(static_cast<std::uint8_t>(phase));
  w.u64(view);
  w.varint(entries.size());
  if (slices) slices->assign(entries.size(), BlockSlices{});
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const ProposalEntry& e = entries[i];
    BlockSlices* at = slices ? &(*slices)[i] : nullptr;
    // Shadow-block optimisation: if this block's ops batch is identical to
    // the first entry's, send the metadata only.
    const bool shadow = i > 0 && e.block.ops == entries[0].block.ops;
    w.boolean(shadow);
    if (shadow) {
      Block stripped = e.block;
      stripped.ops.clear();
      stripped.encode(w, at);
      if (at) at->ops = (*slices)[0].ops;
    } else {
      e.block.encode(w, at);
    }
    e.justify.encode(w);
  }
}

Result<ProposalMsg> ProposalMsg::decode(Reader& r,
                                        std::vector<BlockSlices>* slices) {
  ProposalMsg m;
  std::uint8_t phase = 0;
  if (Status s = r.u8(phase); !s.is_ok()) return s;
  if (phase > static_cast<std::uint8_t>(Phase::kDecide)) {
    return error(ErrorCode::kCorruption, "bad phase");
  }
  m.phase = static_cast<Phase>(phase);
  if (Status s = r.u64(m.view); !s.is_ok()) return s;
  std::uint64_t count = 0;
  if (Status s = r.varint(count); !s.is_ok()) return s;
  if (count == 0 || count > 2) {
    return error(ErrorCode::kCorruption, "bad proposal entry count");
  }
  if (slices) slices->assign(count, BlockSlices{});
  for (std::uint64_t i = 0; i < count; ++i) {
    bool shadow = false;
    if (Status s = r.boolean(shadow); !s.is_ok()) return s;
    if (shadow && i == 0) {
      return error(ErrorCode::kCorruption, "first entry cannot be shadow");
    }
    BlockSlices* at = slices ? &(*slices)[i] : nullptr;
    Result<Block> b = Block::decode(r, at);
    if (!b.is_ok()) return b.status();
    ProposalEntry entry;
    entry.block = std::move(b).take();
    if (shadow) {
      // A shadow's batch is stripped on the wire: ops there are not canonical.
      if (!entry.block.ops.empty()) {
        return error(ErrorCode::kCorruption, "shadow entry carries ops");
      }
      entry.block.ops = m.entries[0].block.ops;
      if (at) at->ops = (*slices)[0].ops;
    }
    Result<Justify> j = Justify::decode(r);
    if (!j.is_ok()) return j.status();
    entry.justify = std::move(j).take();
    m.entries.push_back(std::move(entry));
  }
  return m;
}

std::size_t ProposalMsg::wire_size() const {
  Writer w;
  encode(w);
  return w.size();
}

void VoteMsg::encode(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(phase));
  w.u64(view);
  w.raw(block_hash.view());
  parsig.encode(w);
  w.boolean(locked_qc.has_value());
  if (locked_qc) locked_qc->encode(w);
}

Result<VoteMsg> VoteMsg::decode(Reader& r) {
  VoteMsg m;
  std::uint8_t phase = 0;
  if (Status s = r.u8(phase); !s.is_ok()) return s;
  if (phase > static_cast<std::uint8_t>(Phase::kDecide)) {
    return error(ErrorCode::kCorruption, "bad phase");
  }
  m.phase = static_cast<Phase>(phase);
  if (Status s = r.u64(m.view); !s.is_ok()) return s;
  Bytes h;
  if (Status s = r.raw(crypto::kHashSize, h); !s.is_ok()) return s;
  m.block_hash = Hash256::from_bytes(h);
  Result<crypto::PartialSig> sig = crypto::PartialSig::decode(r);
  if (!sig.is_ok()) return sig.status();
  m.parsig = std::move(sig).take();
  bool has_locked = false;
  if (Status s = r.boolean(has_locked); !s.is_ok()) return s;
  if (has_locked) {
    Result<QuorumCert> qc = QuorumCert::decode(r);
    if (!qc.is_ok()) return qc.status();
    m.locked_qc = std::move(qc).take();
  }
  return m;
}

void QcNoticeMsg::encode(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(phase));
  w.u64(view);
  qc.encode(w);
  w.boolean(aux.has_value());
  if (aux) aux->encode(w);
}

Result<QcNoticeMsg> QcNoticeMsg::decode(Reader& r) {
  QcNoticeMsg m;
  std::uint8_t phase = 0;
  if (Status s = r.u8(phase); !s.is_ok()) return s;
  if (phase > static_cast<std::uint8_t>(Phase::kDecide)) {
    return error(ErrorCode::kCorruption, "bad phase");
  }
  m.phase = static_cast<Phase>(phase);
  if (Status s = r.u64(m.view); !s.is_ok()) return s;
  Result<QuorumCert> qc = QuorumCert::decode(r);
  if (!qc.is_ok()) return qc.status();
  m.qc = std::move(qc).take();
  bool has_aux = false;
  if (Status s = r.boolean(has_aux); !s.is_ok()) return s;
  if (has_aux) {
    Result<QuorumCert> aux = QuorumCert::decode(r);
    if (!aux.is_ok()) return aux.status();
    m.aux = std::move(aux).take();
  }
  return m;
}

void ViewChangeMsg::encode(Writer& w) const {
  w.u64(view);
  last_voted.encode(w);
  high_qc.encode(w);
  parsig.encode(w);
}

Result<ViewChangeMsg> ViewChangeMsg::decode(Reader& r) {
  ViewChangeMsg m;
  if (Status s = r.u64(m.view); !s.is_ok()) return s;
  Result<BlockRef> lb = BlockRef::decode(r);
  if (!lb.is_ok()) return lb.status();
  m.last_voted = std::move(lb).take();
  Result<Justify> j = Justify::decode(r);
  if (!j.is_ok()) return j.status();
  m.high_qc = std::move(j).take();
  Result<crypto::PartialSig> sig = crypto::PartialSig::decode(r);
  if (!sig.is_ok()) return sig.status();
  m.parsig = std::move(sig).take();
  return m;
}

void FetchRequestMsg::encode(Writer& w) const {
  w.raw(block_hash.view());
  w.u64(since);
}

Result<FetchRequestMsg> FetchRequestMsg::decode(Reader& r) {
  FetchRequestMsg m;
  Bytes h;
  if (Status s = r.raw(crypto::kHashSize, h); !s.is_ok()) return s;
  m.block_hash = Hash256::from_bytes(h);
  if (Status s = r.u64(m.since); !s.is_ok()) return s;
  return m;
}

void FetchResponseMsg::encode(Writer& w) const { block.encode(w); }

Result<FetchResponseMsg> FetchResponseMsg::decode(
    Reader& r, std::vector<BlockSlices>* slices) {
  if (slices) slices->assign(1, BlockSlices{});
  Result<Block> b = Block::decode(r, slices ? slices->data() : nullptr);
  if (!b.is_ok()) return b.status();
  return FetchResponseMsg{std::move(b).take()};
}

void SnapshotRequestMsg::encode(Writer& w) const { w.u64(since); }

Result<SnapshotRequestMsg> SnapshotRequestMsg::decode(Reader& r) {
  SnapshotRequestMsg m;
  if (Status s = r.u64(m.since); !s.is_ok()) return s;
  return m;
}

void SnapshotResponseMsg::encode(Writer& w) const {
  w.u64(height);
  w.raw(head.view());
  w.varint(suffix.size());
  for (const Block& b : suffix) b.encode(w);
}

Result<SnapshotResponseMsg> SnapshotResponseMsg::decode(
    Reader& r, std::vector<BlockSlices>* slices) {
  SnapshotResponseMsg m;
  if (Status s = r.u64(m.height); !s.is_ok()) return s;
  Bytes h;
  if (Status s = r.raw(crypto::kHashSize, h); !s.is_ok()) return s;
  m.head = Hash256::from_bytes(h);
  std::uint64_t count = 0;
  if (Status s = r.varint(count); !s.is_ok()) return s;
  if (count > kSuffixLimit) {
    return error(ErrorCode::kCorruption, "oversized snapshot suffix");
  }
  m.suffix.reserve(count);
  if (slices) slices->assign(count, BlockSlices{});
  for (std::uint64_t i = 0; i < count; ++i) {
    Result<Block> b = Block::decode(r, slices ? &(*slices)[i] : nullptr);
    if (!b.is_ok()) return b.status();
    m.suffix.push_back(std::move(b).take());
  }
  return m;
}

void TimeoutNoticeMsg::encode(Writer& w) const { w.u64(view); }

Result<TimeoutNoticeMsg> TimeoutNoticeMsg::decode(Reader& r) {
  TimeoutNoticeMsg m;
  if (Status s = r.u64(m.view); !s.is_ok()) return s;
  return m;
}

Result<Envelope> Envelope::parse(Payload frame) {
  if (frame.empty()) return error(ErrorCode::kCorruption, "empty envelope");
  const std::uint8_t kind = frame[0];
  if (kind < static_cast<std::uint8_t>(MsgKind::kClientRequest) ||
      kind > static_cast<std::uint8_t>(MsgKind::kTimeoutNotice)) {
    return error(ErrorCode::kCorruption, "bad message kind");
  }
  return Envelope(static_cast<MsgKind>(kind), std::move(frame));
}

}  // namespace marlin::types
