#include "types/quorum_cert.h"

#include <cstdio>

namespace marlin::types {

const char* qc_type_name(QcType t) {
  switch (t) {
    case QcType::kPrePrepare: return "PRE-PREPARE";
    case QcType::kPrepare: return "PREPARE";
    case QcType::kPreCommit: return "PRE-COMMIT";
    case QcType::kCommit: return "COMMIT";
  }
  return "?";
}

Hash256 vote_digest(std::string_view domain, QcType type, ViewNumber view,
                    const Hash256& block_hash, ViewNumber block_view,
                    Height height, ViewNumber pview, bool virtual_block) {
  Writer w(80);
  w.str("marlin.vote");
  w.str(domain);
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(view);
  w.raw(block_hash.view());
  w.u64(block_view);
  w.u64(height);
  w.u64(pview);
  w.boolean(virtual_block);
  return crypto::Sha256::digest(w.buffer());
}

Hash256 QuorumCert::signed_digest(std::string_view domain) const {
  return vote_digest(domain, type, view, block_hash, block_view, height,
                     pview, virtual_block);
}

QuorumCert QuorumCert::genesis(const Hash256& genesis_hash) {
  QuorumCert qc;
  qc.type = QcType::kPrepare;
  qc.view = 0;
  qc.block_hash = genesis_hash;
  qc.block_view = 0;
  qc.height = 0;
  qc.pview = 0;
  qc.virtual_block = false;
  return qc;
}

void QuorumCert::encode(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(view);
  w.raw(block_hash.view());
  w.u64(block_view);
  w.u64(height);
  w.u64(pview);
  w.boolean(virtual_block);
  sigs.encode(w);
  w.bytes(threshold_sig);
}

std::size_t QuorumCert::encoded_size() const {
  // type, view, block hash, block view, height, pview, virtual flag.
  std::size_t n = 1 + 8 + crypto::kHashSize + 8 + 8 + 8 + 1;
  n += varint_size(sigs.parts.size());
  for (const crypto::PartialSig& p : sigs.parts) {
    n += 4 + varint_size(p.sig.size()) + p.sig.size();
  }
  return n + varint_size(threshold_sig.size()) + threshold_sig.size();
}

Result<QuorumCert> QuorumCert::decode(Reader& r) {
  QuorumCert qc;
  std::uint8_t type = 0;
  if (Status s = r.u8(type); !s.is_ok()) return s;
  if (type > static_cast<std::uint8_t>(QcType::kCommit)) {
    return error(ErrorCode::kCorruption, "bad qc type");
  }
  qc.type = static_cast<QcType>(type);
  if (Status s = r.u64(qc.view); !s.is_ok()) return s;
  Bytes hash;
  if (Status s = r.raw(crypto::kHashSize, hash); !s.is_ok()) return s;
  qc.block_hash = Hash256::from_bytes(hash);
  if (Status s = r.u64(qc.block_view); !s.is_ok()) return s;
  if (Status s = r.u64(qc.height); !s.is_ok()) return s;
  if (Status s = r.u64(qc.pview); !s.is_ok()) return s;
  if (Status s = r.boolean(qc.virtual_block); !s.is_ok()) return s;
  Result<crypto::SigGroup> sigs = crypto::SigGroup::decode(r);
  if (!sigs.is_ok()) return sigs.status();
  qc.sigs = std::move(sigs).take();
  if (Status s = r.bytes(qc.threshold_sig); !s.is_ok()) return s;
  if (!qc.threshold_sig.empty() &&
      qc.threshold_sig.size() != crypto::kSignatureSize) {
    return error(ErrorCode::kCorruption, "bad threshold signature length");
  }
  if (!qc.threshold_sig.empty() && !qc.sigs.parts.empty()) {
    return error(ErrorCode::kCorruption, "qc carries both signature forms");
  }
  return qc;
}

std::string QuorumCert::to_string() const {
  char buf[128];
  std::snprintf(buf, sizeof buf, "QC{%s v=%llu h=%llu blk=%s%s}",
                qc_type_name(type), static_cast<unsigned long long>(view),
                static_cast<unsigned long long>(height),
                block_hash.short_hex().c_str(), virtual_block ? " virt" : "");
  return buf;
}

namespace {
/// Rank class used by rules (b)/(c): PRE-PREPARE is the low class.
int type_class(QcType t) {
  return t == QcType::kPrePrepare ? 0 : 1;
}
}  // namespace

int compare_rank(const QuorumCert& a, const QuorumCert& b) {
  // Rule (a).
  if (a.view != b.view) return a.view < b.view ? -1 : 1;
  // Rule (b).
  const int ca = type_class(a.type);
  const int cb = type_class(b.type);
  if (ca != cb) return ca < cb ? -1 : 1;
  // Rule (c) — only for the {PREPARE, COMMIT} class. Two pre-prepareQCs of
  // the same view always have equal rank regardless of height (paper
  // Fig. 5: qc3 and qc3' have the same rank although heights differ).
  if (ca == 1 && a.height != b.height) return a.height < b.height ? -1 : 1;
  return 0;
}

void Justify::encode(Writer& w) const {
  std::uint8_t tag = 0;
  if (qc) tag |= 1;
  if (vc) tag |= 2;
  w.u8(tag);
  if (qc) qc->encode(w);
  if (vc) vc->encode(w);
}

std::size_t Justify::encoded_size() const {
  return 1 + (qc ? qc->encoded_size() : 0) + (vc ? vc->encoded_size() : 0);
}

Result<Justify> Justify::decode(Reader& r) {
  std::uint8_t tag = 0;
  if (Status s = r.u8(tag); !s.is_ok()) return s;
  if (tag > 3) return error(ErrorCode::kCorruption, "bad justify tag");
  if ((tag & 2) && !(tag & 1)) {
    return error(ErrorCode::kCorruption, "vc without primary qc");
  }
  Justify out;
  if (tag & 1) {
    Result<QuorumCert> qc = QuorumCert::decode(r);
    if (!qc.is_ok()) return qc.status();
    out.qc = std::move(qc).take();
  }
  if (tag & 2) {
    Result<QuorumCert> vc = QuorumCert::decode(r);
    if (!vc.is_ok()) return vc.status();
    out.vc = std::move(vc).take();
  }
  return out;
}

}  // namespace marlin::types
