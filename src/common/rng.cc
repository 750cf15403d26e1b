#include "common/rng.h"

#include <bit>
#include <cmath>
#include <cstring>

namespace marlin {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& s : s_) s = splitmix64(seed);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

std::uint64_t Rng::next_in(std::uint64_t lo, std::uint64_t hi) {
  return lo + next_below(hi - lo + 1);
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return next_double() < p;
}

double Rng::next_exponential(double mean) {
  // Inverse-CDF; 1 - u in (0, 1] avoids log(0).
  return -mean * std::log(1.0 - next_double());
}

Bytes Rng::next_bytes(std::size_t n) {
  // Each draw contributes its 8 bytes least-significant first. On a
  // little-endian host that is the word's memory layout, so whole words
  // are stored with one memcpy; the byte loop serves big-endian hosts and
  // the tail.
  Bytes out(n);
  std::size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (; i + 8 <= n; i += 8) {
      const std::uint64_t r = next_u64();
      std::memcpy(out.data() + i, &r, 8);
    }
  }
  while (i < n) {
    std::uint64_t r = next_u64();
    for (int b = 0; b < 8 && i < n; ++b, ++i) {
      out[i] = static_cast<std::uint8_t>(r >> (8 * b));
    }
  }
  return out;
}

Rng Rng::fork() {
  return Rng(next_u64());
}

}  // namespace marlin
