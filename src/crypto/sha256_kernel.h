// SHA-256 compression kernels behind Sha256 (internal; not part of the
// crypto API). Each advances `state` over `nblocks` consecutive 64-byte
// blocks. Sha256 picks one once per process by CPUID; tests call both
// directly to check they agree.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MARLIN_HW_SHA256 1
#endif

namespace marlin::crypto::detail {

/// FIPS 180-4 rounds in plain C++; runs everywhere.
void compress_portable(std::uint32_t state[8], const std::uint8_t* data,
                       std::size_t nblocks);

#ifdef MARLIN_HW_SHA256
/// True when this CPU has the SHA extensions plus SSE4.1 and SSSE3.
bool sha_ni_supported();

/// The x86 SHA-NI rounds. Call only when sha_ni_supported().
void compress_sha_ni(std::uint32_t state[8], const std::uint8_t* data,
                     std::size_t nblocks);
#endif

}  // namespace marlin::crypto::detail
