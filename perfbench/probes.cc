#include "probes.h"

#include <cmath>
#include <filesystem>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/wire_codec.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "simnet/simulator.h"
#include "stats.h"
#include "storage/env.h"
#include "storage/kvstore.h"
#include "types/block.h"
#include "types/quorum_cert.h"

namespace perfbench {

namespace crypto = marlin::crypto;
namespace types = marlin::types;
using marlin::Bytes;
using marlin::BytesView;

namespace {

constexpr int kRounds = 5;  // each probe reports the median round

/// Median over kRounds calls of `round(i)`, which returns one round's
/// cost per item (preparation inside a round stays outside its timing).
template <typename Fn>
double median_round(Fn&& round) {
  std::vector<double> per_item;
  for (int i = 0; i < kRounds; ++i) per_item.push_back(round(i));
  return median(std::move(per_item));
}

/// Wall time of `work()` per item, in `scale` units (1e6 = us, 1e9 = ns).
template <typename Fn>
double time_per(double scale, double items, Fn&& work) {
  const double t0 = wall_now_s();
  work();
  return (wall_now_s() - t0) * scale / items;
}

Bytes seed_bytes(std::uint64_t seed) {
  Bytes b(8);
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(seed >> (8 * i));
  return b;
}

/// A distinct 32-byte message per counter value.
Bytes message(std::uint64_t i) {
  Bytes m(8);
  for (int k = 0; k < 8; ++k) m[k] = static_cast<std::uint8_t>(i >> (8 * k));
  const crypto::Hash256 h = crypto::Sha256::digest(m);
  return Bytes(h.data.begin(), h.data.end());
}

/// A QC over a distinct view, signed by replicas 0..quorum-1.
types::QuorumCert make_qc(const crypto::SignatureSuite& suite,
                          std::uint32_t quorum, std::uint64_t view) {
  types::QuorumCert qc;
  qc.type = types::QcType::kPrepare;
  qc.view = view;
  qc.block_view = view;
  qc.height = view;
  qc.pview = view - 1;
  const Bytes bh = message(view);
  qc.block_hash = crypto::Hash256::from_bytes(bh);
  const crypto::Hash256 digest = qc.signed_digest("perfbench");
  for (std::uint32_t r = 0; r < quorum; ++r) {
    qc.sigs.parts.push_back(
        crypto::PartialSig{r, suite.signer(r)->sign(digest.view())});
  }
  return qc;
}

types::Block make_block(const ProbeInputs& in,
                        const crypto::SignatureSuite& suite) {
  marlin::Rng rng(in.seed);
  types::Block b;
  b.view = 7;
  b.height = 7;
  b.parent_view = 6;
  b.parent_link = crypto::Hash256::from_bytes(message(6));
  for (std::size_t i = 0; i < in.ops_per_block; ++i) {
    types::Operation op;
    op.client = 0;
    op.request = i + 1;
    op.payload.resize(in.payload);
    for (auto& byte : op.payload) {
      byte = static_cast<std::uint8_t>(rng.next_u64());
    }
    b.ops.push_back(std::move(op));
  }
  b.justify.qc = make_qc(suite, in.quorum, 6);
  return b;
}

void crypto_probes(const ProbeInputs& in, RunResult& out) {
  // Separate suites for signing and verifying, as on metal: a verifier
  // never hits the signer's tag cache.
  auto signing = crypto::make_fast_suite(in.n, seed_bytes(in.seed));
  auto verifying = crypto::make_fast_suite(in.n, seed_bytes(in.seed));
  auto signer = signing->signer(1);
  constexpr int kSigs = 4000;
  std::uint64_t next = 1;
  // Fresh messages every round: a repeated one would be a cache hit.
  auto fresh = [&] {
    std::vector<Bytes> msgs;
    for (int i = 0; i < kSigs; ++i) msgs.push_back(message(next++));
    return msgs;
  };
  out.set("crypto.sign_us", median_round([&](int) {
            const std::vector<Bytes> msgs = fresh();
            return time_per(1e6, kSigs, [&] {
              for (const Bytes& m : msgs) (void)signer->sign(m);
            });
          }),
          "us");
  int bad = 0;
  out.set("crypto.verify_us", median_round([&](int) {
            std::vector<std::pair<Bytes, Bytes>> batch;
            for (Bytes& m : fresh()) {
              Bytes sig = signer->sign(m);
              batch.emplace_back(std::move(m), std::move(sig));
            }
            return time_per(1e6, kSigs, [&] {
              for (const auto& [m, sig] : batch) {
                if (!verifying->verifier().verify(1, m, sig)) ++bad;
              }
            });
          }),
          "us");
  if (bad > 0) out.fail("probe: signature failed to verify");

  // SHA-256 over a block-sized buffer.
  const std::size_t len =
      std::max<std::size_t>(1024, in.ops_per_block * (in.payload + 16));
  Bytes buf(len, 0x5a);
  const int hashes = static_cast<int>(std::max<std::size_t>(1, (2u << 20) / len));
  const double hashed_kib = hashes * static_cast<double>(len) / 1024.0;
  out.set("crypto.hash_us_per_kb", median_round([&](int) {
            return time_per(1e6, hashed_kib, [&] {
              for (int i = 0; i < hashes; ++i) (void)crypto::Sha256::digest(buf);
            });
          }),
          "us");
}

void types_probes(const ProbeInputs& in, RunResult& out) {
  auto signing = crypto::make_fast_suite(in.n, seed_bytes(in.seed));
  auto verifying = crypto::make_fast_suite(in.n, seed_bytes(in.seed));
  const types::Block block = make_block(in, *signing);
  const int reps = static_cast<int>(std::max<std::size_t>(
      8, 200000 / std::max<std::size_t>(1, in.ops_per_block)));

  Bytes encoded;
  out.set("types.block_encode_us", median_round([&](int) {
            return time_per(1e6, reps, [&] {
              for (int i = 0; i < reps; ++i) {
                marlin::Writer w;
                block.encode(w);
                encoded = std::move(w).take();
              }
            });
          }),
          "us");
  int bad = 0;
  out.set("types.block_decode_us", median_round([&](int) {
            return time_per(1e6, reps, [&] {
              for (int i = 0; i < reps; ++i) {
                marlin::Reader r(encoded);
                if (!types::Block::decode(r).is_ok()) ++bad;
              }
            });
          }),
          "us");
  // hash() is memoised per object; copies start unhashed, and copying is
  // kept outside the timed loop.
  const int copies = std::min(reps, 64);
  out.set("types.block_hash_us", median_round([&](int) {
            const std::vector<types::Block> fresh(copies, block);
            return time_per(1e6, copies, [&] {
              for (const types::Block& b : fresh) (void)b.hash();
            });
          }),
          "us");

  // Distinct QCs, so no verification repeats a cached tag.
  std::uint64_t view = 100;
  const int qcs = static_cast<int>(std::max<std::uint32_t>(20, 2000 / in.quorum));
  out.set("types.qc_verify_us", median_round([&](int) {
            std::vector<types::QuorumCert> batch;
            for (int i = 0; i < qcs; ++i) {
              batch.push_back(make_qc(*signing, in.quorum, view++));
            }
            return time_per(1e6, qcs, [&] {
              for (const types::QuorumCert& qc : batch) {
                const crypto::Hash256 d = qc.signed_digest("perfbench");
                if (!qc.sigs.verify(verifying->verifier(), d.view(),
                                    in.quorum)) {
                  ++bad;
                }
              }
            });
          }),
          "us");
  if (bad > 0) out.fail("probe: block decode or QC verify failed");

  // FrameDecoder over a stream shaped like replica ingress: request-sized
  // frames plus one block-sized frame, fed in 64 KiB reads.
  Bytes stream;
  Bytes request(in.payload + 24, 0x11);
  for (int i = 0; i < 64; ++i) marlin::wire::append_frame(stream, request);
  marlin::wire::append_frame(stream, encoded);
  const double stream_kib = static_cast<double>(stream.size()) / 1024.0;
  const int passes = std::max(1, static_cast<int>(4096 / stream_kib));
  out.set("common.frame_decode_ns_per_kb", median_round([&](int) {
            return time_per(1e9, passes * stream_kib, [&] {
              Bytes frame;
              for (int p = 0; p < passes; ++p) {
                marlin::wire::FrameDecoder dec;
                for (std::size_t off = 0; off < stream.size(); off += 65536) {
                  const std::size_t len =
                      std::min<std::size_t>(65536, stream.size() - off);
                  if (!dec.feed(BytesView(stream).subspan(off, len)).is_ok()) {
                    ++bad;
                  }
                  while (dec.next(frame)) {
                  }
                }
              }
            });
          }),
          "ns");
  if (bad > 0) out.fail("probe: frame decode failed");
}

/// Median put time on a store in `env`, `puts` per round.
double put_us(marlin::storage::Env& env, bool sync, int puts, std::size_t len,
              RunResult& out) {
  marlin::storage::KVStoreOptions opts;
  opts.sync_writes = sync;
  auto store = marlin::storage::KVStore::open(env, opts);
  if (!store.is_ok()) {
    out.fail("probe: store open: " + store.status().message());
    return 0;
  }
  Bytes value(len, 0x3c);
  int bad = 0;
  const double us = median_round([&](int round) {
    return time_per(1e6, puts, [&] {
      for (int i = 0; i < puts; ++i) {
        value[0] = static_cast<std::uint8_t>(i + round);
        if (!store.value()->put("pstate", value).is_ok()) ++bad;
      }
    });
  });
  if (bad > 0) out.fail("probe: store put failed");
  return us;
}

void storage_probes(const ProbeInputs& in, RunResult& out) {
  // The write-ahead pstate record: fixed fields plus a QC of n−f sigs.
  const std::size_t len = 64 + in.quorum * (crypto::kSignatureSize + 4);
  auto mem = marlin::storage::make_mem_env();
  out.set("storage.put_us", put_us(*mem, false, 20000, len, out), "us");

  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove_all(in.scratch_dir, ec);
  for (const bool sync : {false, true}) {
    const std::string dir =
        in.scratch_dir + (sync ? "/store-sync" : "/store-nosync");
    auto posix = marlin::storage::make_posix_env(dir);
    if (!posix.is_ok()) {
      out.fail("probe: posix env: " + posix.status().message());
      continue;
    }
    const double us = put_us(*posix.value(), sync, sync ? 40 : 4000, len, out);
    out.set(sync ? "storage.put_sync_us" : "storage.put_posix_us", us, "us");
  }
  fs::remove_all(in.scratch_dir, ec);
}

void simnet_probes(const ProbeInputs& in, RunResult& out) {
  marlin::Rng rng(in.seed);
  constexpr int kEvents = 200000;
  std::uint64_t fired = 0;
  out.set("simnet.post_step_ns", median_round([&](int) {
            marlin::sim::Simulator sim(in.seed);
            return time_per(1e9, kEvents, [&] {
              for (int i = 0; i < kEvents; ++i) {
                sim.post(marlin::Duration::micros(static_cast<std::int64_t>(
                             rng.next_below(1000))),
                         [&fired] { ++fired; });
              }
              while (sim.step()) {
              }
            });
          }),
          "ns");
  if (fired != static_cast<std::uint64_t>(kEvents) * kRounds) {
    out.fail("probe: simulator lost events");
  }
}

}  // namespace

ProbeInputs ProbeInputs::from_run(std::uint32_t n, std::size_t payload,
                                  const RunOptions& options,
                                  const RunResult& result) {
  ProbeInputs in;
  in.n = n;
  in.quorum = n - (n - 1) / 3;
  in.payload = payload;
  in.seed = options.seed;
  in.scratch_dir = options.scratch_dir;
  auto it = result.metrics.find("consensus.ops_per_block");
  if (it != result.metrics.end() && it->second.value >= 1) {
    in.ops_per_block = static_cast<std::size_t>(std::lround(it->second.value));
  }
  return in;
}

void run_probes(const ProbeInputs& in, RunResult& out) {
  crypto_probes(in, out);
  types_probes(in, out);
  storage_probes(in, out);
  simnet_probes(in, out);
}

}  // namespace perfbench
