#include "crypto/signer.h"

#include <array>
#include <cassert>
#include <cstring>

namespace marlin::crypto {

namespace {

using Tag = std::array<std::uint8_t, kSignatureSize>;

// 64-byte keyed tag: two chained HMACs so wire sizes match ECDSA exactly —
// the bandwidth model must see identical message lengths. The key is a
// midstate (HmacKey), so each tag costs the message and finalization
// compressions only.
Tag tag(const HmacKey& key, BytesView message) {
  const Hash256 first = key.mac(message);
  const Hash256 second = key.mac(first.view());
  Tag out{};
  std::memcpy(out.data(), first.data.data(), kHashSize);
  std::memcpy(out.data() + kHashSize, second.data.data(), kHashSize);
  return out;
}

bool tag_matches(const HmacKey& key, BytesView message, BytesView tagged) {
  return constant_time_equal(tag(key, message), tagged);
}

Bytes seed_for(BytesView seed, ReplicaId id, const char* domain) {
  Bytes material(seed.begin(), seed.end());
  append(material, to_bytes(domain));
  material.push_back(static_cast<std::uint8_t>(id));
  material.push_back(static_cast<std::uint8_t>(id >> 8));
  material.push_back(static_cast<std::uint8_t>(id >> 16));
  material.push_back(static_cast<std::uint8_t>(id >> 24));
  return material;
}

// The simulated threshold-signature combine / verify shared by both
// suites (see SignatureSuite doc): the combined object is a 64-byte
// suite-secret tag over the message, derivable only after `threshold`
// valid partials are presented.
class ThresholdSuite : public SignatureSuite {
 public:
  std::optional<Bytes> threshold_combine(
      BytesView message, const std::vector<std::pair<ReplicaId, Bytes>>& parts,
      std::uint32_t threshold) const override {
    const Verifier& v = verifier();
    std::uint32_t valid = 0;
    std::vector<bool> seen(v.n(), false);
    for (const auto& [signer, sig] : parts) {
      if (signer >= v.n() || seen[signer]) continue;
      if (!v.verify(signer, message, sig)) continue;
      seen[signer] = true;
      ++valid;
    }
    if (valid < threshold) return std::nullopt;
    const Tag combined = tag(key_, message);
    return Bytes(combined.begin(), combined.end());
  }

  bool threshold_verify(BytesView message, BytesView combined) const override {
    return tag_matches(key_, message, combined);
  }

 protected:
  explicit ThresholdSuite(BytesView seed) {
    Bytes material(seed.begin(), seed.end());
    append(material, to_bytes("threshold-core"));
    key_ = HmacKey(Sha256::digest(material).view());
  }

 private:
  HmacKey key_;
};

// --------------------------------------------------------------------------
// ECDSA suite
// --------------------------------------------------------------------------

class EcdsaSigner final : public Signer {
 public:
  EcdsaSigner(ReplicaId id, EcdsaPrivateKey key) : id_(id), key_(std::move(key)) {}

  ReplicaId id() const override { return id_; }

  Bytes sign(BytesView message) const override {
    return key_.sign(message).encode();
  }

 private:
  ReplicaId id_;
  EcdsaPrivateKey key_;
};

class EcdsaVerifier final : public Verifier {
 public:
  explicit EcdsaVerifier(std::vector<EcdsaPublicKey> keys)
      : keys_(std::move(keys)) {}

  bool verify(ReplicaId signer, BytesView message,
              BytesView signature) const override {
    if (signer >= keys_.size()) return false;
    const auto sig = EcdsaSignature::decode(signature);
    if (!sig) return false;
    return keys_[signer].verify(message, *sig);
  }

  std::uint32_t n() const override {
    return static_cast<std::uint32_t>(keys_.size());
  }

 private:
  std::vector<EcdsaPublicKey> keys_;
};

class EcdsaSuite final : public ThresholdSuite {
 public:
  EcdsaSuite(std::uint32_t n, BytesView seed) : ThresholdSuite(seed) {
    std::vector<EcdsaPublicKey> pubs;
    pubs.reserve(n);
    keys_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      keys_.push_back(EcdsaPrivateKey::from_seed(seed_for(seed, i, "ecdsa")));
      pubs.push_back(keys_.back().public_key());
    }
    verifier_ = std::make_unique<EcdsaVerifier>(std::move(pubs));
  }

  std::unique_ptr<Signer> signer(ReplicaId id) const override {
    assert(id < keys_.size());
    return std::make_unique<EcdsaSigner>(id, keys_[id]);
  }

  const Verifier& verifier() const override { return *verifier_; }
  std::uint32_t n() const override {
    return static_cast<std::uint32_t>(keys_.size());
  }

 private:
  std::vector<EcdsaPrivateKey> keys_;
  std::unique_ptr<EcdsaVerifier> verifier_;
};

// --------------------------------------------------------------------------
// Fast (HMAC) suite
// --------------------------------------------------------------------------

class FastSigner final : public Signer {
 public:
  FastSigner(ReplicaId id, const HmacKey& key) : id_(id), key_(key) {}

  ReplicaId id() const override { return id_; }

  Bytes sign(BytesView message) const override {
    const Tag t = tag(key_, message);
    return Bytes(t.begin(), t.end());
  }

 private:
  ReplicaId id_;
  HmacKey key_;
};

class FastVerifier final : public Verifier {
 public:
  explicit FastVerifier(std::vector<HmacKey> keys) : keys_(std::move(keys)) {}

  bool verify(ReplicaId signer, BytesView message,
              BytesView signature) const override {
    if (signer >= keys_.size()) return false;
    return tag_matches(keys_[signer], message, signature);
  }

  std::uint32_t n() const override {
    return static_cast<std::uint32_t>(keys_.size());
  }

  const HmacKey& key(ReplicaId id) const { return keys_[id]; }

 private:
  std::vector<HmacKey> keys_;
};

std::vector<HmacKey> fast_keys(std::uint32_t n, BytesView seed) {
  std::vector<HmacKey> keys;
  keys.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    keys.emplace_back(Sha256::digest(seed_for(seed, i, "fast")).view());
  }
  return keys;
}

class FastSuite final : public ThresholdSuite {
 public:
  FastSuite(std::uint32_t n, BytesView seed)
      : ThresholdSuite(seed), verifier_(fast_keys(n, seed)) {}

  std::unique_ptr<Signer> signer(ReplicaId id) const override {
    assert(id < n());
    return std::make_unique<FastSigner>(id, verifier_.key(id));
  }

  const Verifier& verifier() const override { return verifier_; }
  std::uint32_t n() const override { return verifier_.n(); }

 private:
  FastVerifier verifier_;
};

}  // namespace

std::unique_ptr<SignatureSuite> make_ecdsa_suite(std::uint32_t n,
                                                 BytesView seed) {
  return std::make_unique<EcdsaSuite>(n, seed);
}

std::unique_ptr<SignatureSuite> make_fast_suite(std::uint32_t n,
                                                BytesView seed) {
  return std::make_unique<FastSuite>(n, seed);
}

}  // namespace marlin::crypto
