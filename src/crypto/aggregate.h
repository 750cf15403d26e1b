// Threshold-signature abstraction in the paper's two instantiations:
//
//  * SigGroup — a quorum certificate is a group of t standard signatures
//    (the paper's "most efficient implementation"; what its evaluation
//    runs). Size = t * 64 bytes + t ids; verification = t signature checks.
//
//  * SimThreshold — a constant-size combined object standing in for a
//    pairing-based (t, n) threshold signature (BLS-style). We simulate the
//    combine as a deterministic digest over the sorted partials; the
//    registry can re-derive and check it. Sizes (one 64-byte object) and
//    the pairing cost model match the paper's complexity accounting
//    (Table I), letting the complexity bench report both instantiations.
#pragma once

#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/serialize.h"
#include "crypto/signer.h"

namespace marlin::crypto {

/// One replica's share of a quorum certificate.
struct PartialSig {
  ReplicaId signer = kNoReplica;
  Bytes sig;  // kSignatureSize bytes

  void encode(Writer& w) const;
  static Result<PartialSig> decode(Reader& r);
  bool operator==(const PartialSig&) const = default;
};

/// Group-of-signatures aggregate: the default QC payload.
struct SigGroup {
  std::vector<PartialSig> parts;  // sorted by signer id, unique

  /// Combines exactly the given partials (sorts + dedups; returns nullopt
  /// if fewer than `threshold` distinct signers remain).
  static std::optional<SigGroup> combine(std::vector<PartialSig> partials,
                                         std::uint32_t threshold);

  /// All partials verify over `message` and there are ≥ threshold distinct
  /// signers with ids < verifier.n().
  bool verify(const Verifier& verifier, BytesView message,
              std::uint32_t threshold) const;

  std::size_t wire_size() const;
  std::size_t signer_count() const { return parts.size(); }

  void encode(Writer& w) const;
  static Result<SigGroup> decode(Reader& r);
  bool operator==(const SigGroup&) const = default;
};

}  // namespace marlin::crypto
