// SHA-256 (FIPS 180-4). Used for block parent links, message digests
// signed by ECDSA, and as the PRF core of HMAC. The compression function
// runs on the x86 SHA extensions when the CPU has them and in portable C++
// otherwise (crypto/sha256_kernel.h); both give the same digests.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace marlin::crypto {

inline constexpr std::size_t kHashSize = 32;

/// A 32-byte digest with value semantics; ordered/hashable for map keys.
struct Hash256 {
  std::array<std::uint8_t, kHashSize> data{};

  auto operator<=>(const Hash256&) const = default;

  BytesView view() const { return BytesView(data.data(), data.size()); }
  Bytes to_bytes() const { return Bytes(data.begin(), data.end()); }
  std::string to_hex() const { return ::marlin::to_hex(view()); }
  /// First 8 hex chars — for logs.
  std::string short_hex() const { return to_hex().substr(0, 8); }

  static Hash256 from_bytes(BytesView b);  // asserts b.size() == 32
  bool is_zero() const;
};

/// Incremental SHA-256.
class Sha256 {
 public:
  Sha256();
  void update(BytesView data);
  Hash256 finish();  // may only be called once

  static Hash256 digest(BytesView data);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// HMAC-SHA256 (RFC 2104).
Hash256 hmac_sha256(BytesView key, BytesView message);

/// Precomputed HMAC-SHA256 key: the ipad/opad block compressions are paid
/// once at construction, so each mac() costs only the message and
/// finalization compressions, run straight from the two midstates (a
/// message under 56 bytes costs two). Output is byte-identical to
/// hmac_sha256().
class HmacKey {
 public:
  HmacKey() = default;
  explicit HmacKey(BytesView key);

  Hash256 mac(BytesView message) const;

 private:
  std::array<std::uint32_t, 8> inner_{};  // state after key ^ ipad
  std::array<std::uint32_t, 8> outer_{};  // state after key ^ opad
};

/// std::hash adapter so Hash256 keys work in unordered containers.
struct Hash256Hasher {
  std::size_t operator()(const Hash256& h) const {
    std::size_t out;
    static_assert(sizeof out <= kHashSize);
    __builtin_memcpy(&out, h.data.data(), sizeof out);
    return out;
  }
};

}  // namespace marlin::crypto
