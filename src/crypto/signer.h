// Signature-suite abstraction used by the consensus layer. Two suites:
//
//  * EcdsaSuite — real secp256k1 ECDSA; every partial signature is an
//    actual signature verified against the signer's registered public key.
//    Used by unit tests, integration tests, and the runnable examples.
//
//  * FastSuite — HMAC-SHA256 tags with the same 64-byte wire size as an
//    ECDSA signature. Integrity within the simulation is real (a replica
//    cannot accidentally accept a corrupted message), but tags are only
//    verifiable by the trusted registry; Byzantine behaviour is therefore
//    modeled at the protocol-behaviour level, and CPU cost of public-key
//    crypto is charged in *virtual time* through CryptoCostModel. This is
//    the suite the benchmark testbed runs, mirroring how the paper charges
//    ECDSA cost on real hardware (DESIGN.md §1).
//
// A suite holds no mutable state: every tag and signature is computed
// afresh from key material fixed at construction, so one instance serves
// every replica of a cluster, on any number of threads.
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "crypto/ecdsa.h"
#include "crypto/sha256.h"

namespace marlin::crypto {

inline constexpr std::size_t kSignatureSize = 64;

/// Per-replica signing handle.
class Signer {
 public:
  virtual ~Signer() = default;
  virtual ReplicaId id() const = 0;
  /// Signs the digest of a message; output is exactly kSignatureSize bytes.
  virtual Bytes sign(BytesView message) const = 0;
};

/// Verifies any replica's signature. One registry per process/simulation.
class Verifier {
 public:
  virtual ~Verifier() = default;
  virtual bool verify(ReplicaId signer, BytesView message,
                      BytesView signature) const = 0;
  virtual std::uint32_t n() const = 0;
};

/// A suite owns key material for all n replicas of a deployment and hands
/// out per-replica signers plus a shared verifier.
///
/// It also provides the (t, n) *threshold-signature* instantiation of
/// quorum certificates (paper §III): `threshold_combine` turns t valid
/// partial signatures over a message into one constant-size combined
/// signature, and `threshold_verify` checks it. The simulation implements
/// the combined object as a suite-secret MAC (integrity within the run is
/// real; the pairing CPU cost is charged in virtual time by the cost
/// model, see DESIGN.md §1).
class SignatureSuite {
 public:
  virtual ~SignatureSuite() = default;
  virtual std::unique_ptr<Signer> signer(ReplicaId id) const = 0;
  virtual const Verifier& verifier() const = 0;
  virtual std::uint32_t n() const = 0;

  /// Combines partial signatures (already collected for `message`) into a
  /// constant-size threshold signature. Returns std::nullopt when fewer
  /// than `threshold` partials are valid.
  virtual std::optional<Bytes> threshold_combine(
      BytesView message, const std::vector<std::pair<ReplicaId, Bytes>>& parts,
      std::uint32_t threshold) const = 0;

  /// Verifies a combined threshold signature over `message`.
  virtual bool threshold_verify(BytesView message,
                                BytesView combined) const = 0;
};

/// Real ECDSA suite; keys derived deterministically from (seed, replica id).
std::unique_ptr<SignatureSuite> make_ecdsa_suite(std::uint32_t n,
                                                 BytesView seed);

/// HMAC-based simulation suite (same sizes, trusted-registry verification).
std::unique_ptr<SignatureSuite> make_fast_suite(std::uint32_t n,
                                                BytesView seed);

}  // namespace marlin::crypto
