#include "crypto/aggregate.h"

#include <algorithm>

namespace marlin::crypto {

void PartialSig::encode(Writer& w) const {
  w.u32(signer);
  w.bytes(sig);
}

Result<PartialSig> PartialSig::decode(Reader& r) {
  PartialSig out;
  if (Status s = r.u32(out.signer); !s.is_ok()) return s;
  if (Status s = r.bytes(out.sig); !s.is_ok()) return s;
  if (out.sig.size() != kSignatureSize) {
    return error(ErrorCode::kCorruption, "bad signature length");
  }
  return out;
}

std::optional<SigGroup> SigGroup::combine(std::vector<PartialSig> partials,
                                          std::uint32_t threshold) {
  std::sort(partials.begin(), partials.end(),
            [](const PartialSig& a, const PartialSig& b) {
              return a.signer < b.signer;
            });
  partials.erase(std::unique(partials.begin(), partials.end(),
                             [](const PartialSig& a, const PartialSig& b) {
                               return a.signer == b.signer;
                             }),
                 partials.end());
  if (partials.size() < threshold) return std::nullopt;
  return SigGroup{std::move(partials)};
}

bool SigGroup::verify(const Verifier& verifier, BytesView message,
                      std::uint32_t threshold) const {
  if (parts.size() < threshold) return false;
  ReplicaId prev = kNoReplica;
  for (const PartialSig& p : parts) {
    if (p.signer >= verifier.n()) return false;
    if (prev != kNoReplica && p.signer <= prev) return false;  // sorted+unique
    prev = p.signer;
    if (!verifier.verify(p.signer, message, p.sig)) return false;
  }
  return true;
}

std::size_t SigGroup::wire_size() const {
  // varint count + per-part (4-byte id + 1-byte len + 64-byte sig).
  return 1 + parts.size() * (4 + 1 + kSignatureSize);
}

void SigGroup::encode(Writer& w) const {
  w.varint(parts.size());
  for (const PartialSig& p : parts) p.encode(w);
}

Result<SigGroup> SigGroup::decode(Reader& r) {
  std::uint64_t count = 0;
  if (Status s = r.varint(count); !s.is_ok()) return s;
  if (count > 4096) return error(ErrorCode::kCorruption, "oversized sig group");
  SigGroup out;
  out.parts.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Result<PartialSig> p = PartialSig::decode(r);
    if (!p.is_ok()) return p.status();
    out.parts.push_back(std::move(p).take());
  }
  return out;
}

}  // namespace marlin::crypto
