#include "crypto/sha256.h"

#include <bit>
#include <cassert>
#include <cstring>

#include "crypto/sha256_kernel.h"

#ifdef MARLIN_HW_SHA256
#include <immintrin.h>
#endif

namespace marlin::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void compress(std::uint32_t state[8], const std::uint8_t* data,
              std::size_t nblocks) {
#ifdef MARLIN_HW_SHA256
  // The SHA extensions compute exactly these rounds; the portable kernel
  // exists for non-x86 builds and CPUs without them.
  static const bool hw = detail::sha_ni_supported();
  if (hw) return detail::compress_sha_ni(state, data, nblocks);
#endif
  detail::compress_portable(state, data, nblocks);
}

// Big-endian stores as one whole-word store each: the next compression
// loads these bytes 16 at a time, and a load the store buffer cannot
// forward from one store (it spans byte stores) stalls until they retire.
void store_be32(std::uint8_t* at, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(at, &v, sizeof v);
}

/// The 8-byte big-endian message bit length that ends SHA-256 padding.
void put_bit_len(std::uint8_t* at, std::uint64_t bit_len) {
  if constexpr (std::endian::native == std::endian::little) {
    bit_len = __builtin_bswap64(bit_len);
  }
  std::memcpy(at, &bit_len, sizeof bit_len);
}

/// The big-endian digest of a finished state.
Hash256 digest_of(const std::uint32_t state[8]) {
  Hash256 out;
  for (int i = 0; i < 8; ++i) store_be32(out.data.data() + 4 * i, state[i]);
  return out;
}

/// Finishes a hash whose first 64 bytes are already absorbed into `state`
/// (an HMAC midstate): absorbs `data` and the padding, straight from the
/// caller's bytes, with no Sha256 object to copy.
void finish_after_block(std::uint32_t state[8], BytesView data) {
  const std::size_t whole = data.size() / 64;
  if (whole > 0) compress(state, data.data(), whole);
  const std::size_t tail = data.size() - whole * 64;
  // The tail, 0x80 and the length fit one block below 56 tail bytes.
  const std::size_t blocks = tail < 56 ? 1 : 2;
  std::uint8_t last[128];
  if (tail > 0) std::memcpy(last, data.data() + whole * 64, tail);
  last[tail] = 0x80;
  std::memset(last + tail + 1, 0, blocks * 64 - 8 - tail - 1);
  put_bit_len(last + blocks * 64 - 8, (64 + data.size()) * 8);
  compress(state, last, blocks);
}

}  // namespace

namespace detail {

void compress_portable(std::uint32_t state[8], const std::uint8_t* data,
                       std::size_t nblocks) {
  std::uint32_t s[8];
  std::memcpy(s, state, sizeof s);
  for (; nblocks > 0; --nblocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(data[4 * i]) << 24 |
             static_cast<std::uint32_t>(data[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(data[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = s[0], b = s[1], c = s[2], d = s[3];
    std::uint32_t e = s[4], f = s[5], g = s[6], h = s[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    s[0] += a;
    s[1] += b;
    s[2] += c;
    s[3] += d;
    s[4] += e;
    s[5] += f;
    s[6] += g;
    s[7] += h;
  }
  std::memcpy(state, s, sizeof s);
}

#ifdef MARLIN_HW_SHA256
bool sha_ni_supported() {
  // cpu_init makes the answer right even when the first hash runs from a
  // static initializer, before libgcc's own constructor has probed CPUID.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
         __builtin_cpu_supports("ssse3");
}

// SHA-NI keeps the eight state words as two vectors, ABEF and CDGH.
// sha256rnds2 runs two rounds from the low two lanes of W+K; sha256msg1 and
// sha256msg2 (with the alignr/add between them) extend the schedule four
// words at a time, so each group of four rounds g feeds W[4g+16..4g+19].
__attribute__((target("sha,sse4.1,ssse3"))) void compress_sha_ni(
    std::uint32_t state[8], const std::uint8_t* data, std::size_t nblocks) {
  // Byte swap of each 32-bit lane: the message words are big-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xb1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1b);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xf0);       // CDGH

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef = state0;
    const __m128i cdgh = state1;
    __m128i msg[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        msg[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            bswap);
      }
      __m128i wk = _mm_add_epi32(
          msg[g % 4],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRound + 4 * g)));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      if (g >= 3 && g < 15) {
        __m128i& next = msg[(g + 1) % 4];
        next = _mm_add_epi32(
            next, _mm_alignr_epi8(msg[g % 4], msg[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, msg[g % 4]);
      }
      wk = _mm_shuffle_epi32(wk, 0x0e);
      state0 = _mm_sha256rnds2_epu32(state0, state1, wk);
      if (g >= 1 && g < 13) {
        msg[(g + 3) % 4] = _mm_sha256msg1_epu32(msg[(g + 3) % 4], msg[g % 4]);
      }
    }
    state0 = _mm_add_epi32(state0, abef);
    state1 = _mm_add_epi32(state1, cdgh);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1b);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xb1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xf0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}
#endif

}  // namespace detail

Hash256 Hash256::from_bytes(BytesView b) {
  assert(b.size() == kHashSize);
  Hash256 h;
  std::memcpy(h.data.data(), b.data(), kHashSize);
  return h;
}

bool Hash256::is_zero() const {
  for (auto b : data) {
    if (b != 0) return false;
  }
  return true;
}

Sha256::Sha256() {
  std::memcpy(state_.data(), kInit, sizeof kInit);
}

void Sha256::update(BytesView data) {
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      compress(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  // Every whole block left goes to the kernel in one call, so the state
  // is loaded and stored once per update, not once per 64 bytes.
  const std::size_t whole = (data.size() - offset) / 64;
  if (whole > 0) {
    compress(state_.data(), data.data() + offset, whole);
    offset += whole * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Hash256 Sha256::finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  put_bit_len(buffer_.data() + 56, bit_len);
  compress(state_.data(), buffer_.data(), 1);
  return digest_of(state_.data());
}

Hash256 Sha256::digest(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Hash256 hmac_sha256(BytesView key, BytesView message) {
  return HmacKey(key).mac(message);
}

HmacKey::HmacKey(BytesView key) {
  std::array<std::uint8_t, 64> k_block{};
  if (key.size() > 64) {
    const Hash256 kh = Sha256::digest(key);
    std::memcpy(k_block.data(), kh.data.data(), kHashSize);
  } else {
    std::memcpy(k_block.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, 64> pad;
  std::memcpy(inner_.data(), kInit, sizeof kInit);
  for (int i = 0; i < 64; ++i) pad[i] = k_block[i] ^ 0x36;
  compress(inner_.data(), pad.data(), 1);
  std::memcpy(outer_.data(), kInit, sizeof kInit);
  for (int i = 0; i < 64; ++i) pad[i] = k_block[i] ^ 0x5c;
  compress(outer_.data(), pad.data(), 1);
}

Hash256 HmacKey::mac(BytesView message) const {
  std::array<std::uint32_t, 8> inner = inner_;
  finish_after_block(inner.data(), message);
  // The outer hash's one block: the inner digest, then the padding of a
  // 96-byte message, stored whole so the compression's loads forward.
  static constexpr std::uint8_t kOuterPad[32] = {
      0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0,    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x03, 0x00};
  std::uint8_t block[64];
  for (int i = 0; i < 8; ++i) store_be32(block + 4 * i, inner[i]);
  std::memcpy(block + 32, kOuterPad, sizeof kOuterPad);
  std::array<std::uint32_t, 8> outer = outer_;
  compress(outer.data(), block, 1);
  return digest_of(outer.data());
}

}  // namespace marlin::crypto
