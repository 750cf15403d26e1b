// Micro-benchmarks for the crypto stack (google-benchmark).
// These numbers justify the virtual-time cost model in crypto/cost_model.h:
// the simulation charges calibrated ECDSA-class sign/verify costs, and this
// binary shows what our own implementations cost on the host.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "crypto/aggregate.h"
#include "crypto/ecdsa.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernel.h"
#include "crypto/signer.h"

namespace {

using namespace marlin;
using namespace marlin::crypto;

void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  const Bytes data = rng.next_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536)->Arg(1 << 20);

// Each SHA-256 compression kernel alone over 256 KiB of whole blocks (one
// 64-op block of 4 KiB requests), so the two are compared without the
// dispatch in between.
void compress_bench(benchmark::State& state,
                    void (*kernel)(std::uint32_t*, const std::uint8_t*,
                                   std::size_t)) {
  Rng rng(4);
  const Bytes data = rng.next_bytes(256u << 10);
  std::uint32_t s[8] = {};
  for (auto _ : state) {
    kernel(s, data.data(), data.size() / 64);
    benchmark::DoNotOptimize(s);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}

void BM_Sha256CompressPortable(benchmark::State& state) {
  compress_bench(state, detail::compress_portable);
}
BENCHMARK(BM_Sha256CompressPortable);

#ifdef MARLIN_HW_SHA256
void BM_Sha256CompressShaNi(benchmark::State& state) {
  if (!detail::sha_ni_supported()) {
    state.SkipWithError("CPU lacks SHA-NI");
    return;
  }
  compress_bench(state, detail::compress_sha_ni);
}
BENCHMARK(BM_Sha256CompressShaNi);
#endif

void BM_HmacSha256(benchmark::State& state) {
  Rng rng(2);
  const Bytes key = rng.next_bytes(32);
  const Bytes data = rng.next_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

void BM_EcdsaSign(benchmark::State& state) {
  const auto key = EcdsaPrivateKey::from_seed(to_bytes("bench"));
  const Hash256 digest = Sha256::digest(to_bytes("message"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sign_digest(digest));
  }
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
  const auto key = EcdsaPrivateKey::from_seed(to_bytes("bench"));
  const auto pub = key.public_key();
  const Hash256 digest = Sha256::digest(to_bytes("message"));
  const auto sig = key.sign_digest(digest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pub.verify_digest(digest, sig));
  }
}
BENCHMARK(BM_EcdsaVerify);

void BM_FastSuiteSign(benchmark::State& state) {
  auto suite = make_fast_suite(4, to_bytes("bench"));
  auto signer = suite->signer(0);
  const Bytes msg = to_bytes("vote digest: 32 bytes of content");
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer->sign(msg));
  }
}
BENCHMARK(BM_FastSuiteSign);

void BM_SigGroupVerify(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t quorum = n - (n - 1) / 3;
  auto suite = make_fast_suite(n, to_bytes("bench"));
  const Bytes msg = to_bytes("qc digest");
  std::vector<PartialSig> parts;
  for (std::uint32_t r = 0; r < quorum; ++r) {
    parts.push_back({r, suite->signer(r)->sign(msg)});
  }
  const auto group = SigGroup::combine(parts, quorum);
  for (auto _ : state) {
    benchmark::DoNotOptimize(group->verify(suite->verifier(), msg, quorum));
  }
  state.SetLabel("quorum=" + std::to_string(quorum));
}
BENCHMARK(BM_SigGroupVerify)->Arg(4)->Arg(16)->Arg(31)->Arg(91);

}  // namespace

BENCHMARK_MAIN();
