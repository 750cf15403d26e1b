// Unit tests for the crypto stack: SHA-256 / HMAC against published
// vectors, the portable and SHA-NI compression kernels against each other,
// 256-bit arithmetic, secp256k1 group law, ECDSA, the signer suites, and
// quorum-certificate aggregation.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "common/rng.h"
#include "crypto/aggregate.h"
#include "crypto/bigint.h"
#include "crypto/ecdsa.h"
#include "crypto/secp256k1.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernel.h"
#include "crypto/signer.h"

namespace marlin::crypto {
namespace {

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4 / NIST vectors)
// ---------------------------------------------------------------------------

struct ShaVector {
  const char* label;
  const char* message;
  const char* digest;
};

// Print the label so test names are stable; the default printer dumps the
// struct's pointer bytes, which change from build to build.
void PrintTo(const ShaVector& v, std::ostream* os) { *os << v.label; }

class Sha256KnownAnswer : public ::testing::TestWithParam<ShaVector> {};

TEST_P(Sha256KnownAnswer, Matches) {
  const auto& v = GetParam();
  EXPECT_EQ(Sha256::digest(to_bytes(v.message)).to_hex(), v.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Nist, Sha256KnownAnswer,
    ::testing::Values(
        ShaVector{"empty", "", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        ShaVector{"abc", "abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
        ShaVector{"two_blocks", "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                  "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
        ShaVector{"quick_brown_fox", "The quick brown fox jumps over the lazy dog",
                  "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"}));

TEST(Sha256, MillionAs) {
  // NIST long-message vector: 1,000,000 'a' characters.
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finish().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  // Property: arbitrary chunking never changes the digest.
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const Bytes data = rng.next_bytes(1 + rng.next_below(500));
    Sha256 inc;
    std::size_t pos = 0;
    while (pos < data.size()) {
      const std::size_t take =
          std::min<std::size_t>(1 + rng.next_below(64), data.size() - pos);
      inc.update(BytesView(data.data() + pos, take));
      pos += take;
    }
    EXPECT_EQ(inc.finish(), Sha256::digest(data));
  }
}

TEST(Sha256, BoundaryLengths) {
  // Padding boundaries: 55, 56, 63, 64, 65 bytes.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
    const Bytes data(len, 'x');
    Sha256 a;
    a.update(data);
    EXPECT_EQ(a.finish(), Sha256::digest(data)) << len;
  }
}

// The compression kernels, called directly. A reference digest pads by
// hand and feeds whole blocks to `kernel` in random-sized runs, so a kernel
// that mishandles a multi-block call or a state carried across calls
// disagrees with the others.
using Kernel = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

Hash256 kernel_digest(Kernel kernel, const Bytes& data, Rng& rng) {
  Bytes padded = data;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::size_t block = 0;
  const std::size_t blocks = padded.size() / 64;
  while (block < blocks) {
    const std::size_t run =
        std::min<std::size_t>(1 + rng.next_below(8), blocks - block);
    kernel(state, padded.data() + 64 * block, run);
    block += run;
  }
  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) {
      out.data[4 * i + j] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * j));
    }
  }
  return out;
}

// Sha256 fed in random update splits, so updates that start mid-block,
// end mid-block and span many whole blocks all occur.
Hash256 split_digest(const Bytes& data, Rng& rng) {
  Sha256 h;
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t take = std::min<std::size_t>(
        1 + rng.next_below(300), data.size() - pos);
    h.update(BytesView(data.data() + pos, take));
    pos += take;
  }
  return h.finish();
}

TEST(Sha256Kernel, PortableMatchesKnownAnswer) {
  Rng rng(5);
  EXPECT_EQ(kernel_digest(detail::compress_portable, to_bytes("abc"), rng)
                .to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Kernel, PortableMatchesSha256OnRandomSplits) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const Bytes data = rng.next_bytes(rng.next_below(5001));
    const Hash256 want = kernel_digest(detail::compress_portable, data, rng);
    ASSERT_EQ(split_digest(data, rng), want) << data.size();
    ASSERT_EQ(Sha256::digest(data), want) << data.size();
  }
}

TEST(Sha256Kernel, ShaNiMatchesPortableOnRandomLengthsAndSplits) {
#ifdef MARLIN_HW_SHA256
  if (!detail::sha_ni_supported()) GTEST_SKIP() << "CPU lacks SHA-NI";
  Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    const Bytes data = rng.next_bytes(rng.next_below(5001));
    const Hash256 want = kernel_digest(detail::compress_portable, data, rng);
    ASSERT_EQ(kernel_digest(detail::compress_sha_ni, data, rng), want)
        << data.size();
    ASSERT_EQ(split_digest(data, rng), want) << data.size();
  }
#else
  GTEST_SKIP() << "SHA-NI kernel not built on this architecture";
#endif
}

TEST(Hash256, ShortHexAndZero) {
  Hash256 z;
  EXPECT_TRUE(z.is_zero());
  const Hash256 h = Sha256::digest(to_bytes("x"));
  EXPECT_FALSE(h.is_zero());
  EXPECT_EQ(h.short_hex(), h.to_hex().substr(0, 8));
}

// ---------------------------------------------------------------------------
// HMAC-SHA256 (RFC 4231)
// ---------------------------------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hmac_sha256(key, to_bytes("Hi There")).to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(hmac_sha256(to_bytes("Jefe"),
                        to_bytes("what do ya want for nothing?"))
                .to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  EXPECT_EQ(hmac_sha256(key, to_bytes("Test Using Larger Than Block-Size Key "
                                      "- Hash Key First"))
                .to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// ---------------------------------------------------------------------------
// 256-bit arithmetic
// ---------------------------------------------------------------------------

TEST(U256, HexRoundTrip) {
  const U256 v = U256::from_hex("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
  EXPECT_EQ(v.to_hex(),
            "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
}

TEST(U256, ByteRoundTrip) {
  const U256 v = U256::from_u64(0xdeadbeefcafebabeULL);
  EXPECT_EQ(U256::from_be_bytes(v.to_be_bytes()), v);
}

TEST(U256, Comparison) {
  EXPECT_LT(U256::from_u64(1), U256::from_u64(2));
  EXPECT_LT(U256::from_u64(~0ull), U256::from_hex("010000000000000000"));
}

TEST(U256, BitLength) {
  EXPECT_EQ(U256::zero().bit_length(), 0);
  EXPECT_EQ(U256::one().bit_length(), 1);
  EXPECT_EQ(U256::from_u64(0x80).bit_length(), 8);
  EXPECT_EQ(U256::from_hex("0100000000000000000000000000000000").bit_length(),
            129);
}

TEST(U256, AddSubInverse) {
  const U256 a = U256::from_hex("ffffffffffffffffffffffffffffffff");
  const U256 b = U256::from_u64(12345);
  U256 sum, back;
  EXPECT_EQ(add_with_carry(a, b, sum), 0u);
  EXPECT_EQ(sub_with_borrow(sum, b, back), 0u);
  EXPECT_EQ(back, a);
}

TEST(U256, CarryPropagates) {
  U256 max;
  for (auto& l : max.limb) l = ~0ull;
  U256 out;
  EXPECT_EQ(add_with_carry(max, U256::one(), out), 1u);
  EXPECT_TRUE(out.is_zero());
}

TEST(U256, MulFullKnown) {
  // (2^64 - 1)^2 = 2^128 - 2^65 + 1.
  const U256 a = U256::from_u64(~0ull);
  const U512 p = mul_full(a, a);
  EXPECT_EQ(p.limb[0], 1ull);
  EXPECT_EQ(p.limb[1], ~0ull - 1);  // 0xfffffffffffffffe
  EXPECT_EQ(p.limb[2], 0ull);
  EXPECT_TRUE(p.high_is_zero());
}

TEST(ModArith, FieldBasics) {
  const ModArith& fp = Secp256k1::instance().field();
  const U256 p_minus_1 = fp.sub(U256::zero(), U256::one());
  EXPECT_EQ(fp.add(p_minus_1, U256::one()), U256::zero());
  EXPECT_EQ(fp.mul(p_minus_1, p_minus_1), U256::one());  // (-1)^2 = 1
}

TEST(ModArith, InverseRoundTrip) {
  const ModArith& fn = Secp256k1::instance().scalar();
  Rng rng(4242);
  for (int i = 0; i < 10; ++i) {
    const U256 x = fn.reduce(U256::from_be_bytes(rng.next_bytes(32)));
    if (x.is_zero()) continue;
    EXPECT_EQ(fn.mul(x, fn.inv(x)), U256::one());
  }
}

TEST(ModArith, PowMatchesRepeatedMul) {
  const ModArith& fp = Secp256k1::instance().field();
  const U256 base = U256::from_u64(7);
  U256 acc = U256::one();
  for (int i = 0; i < 13; ++i) acc = fp.mul(acc, base);
  EXPECT_EQ(fp.pow(base, U256::from_u64(13)), acc);
}

TEST(ModArith, Reduce512) {
  const ModArith& fp = Secp256k1::instance().field();
  // p * p reduces to 0.
  const U512 pp = mul_full(Secp256k1::instance().p(), Secp256k1::instance().p());
  EXPECT_TRUE(fp.reduce(pp).is_zero());
}

// ---------------------------------------------------------------------------
// secp256k1 group law
// ---------------------------------------------------------------------------

TEST(Secp256k1, GeneratorOnCurve) {
  const auto& c = Secp256k1::instance();
  AffinePoint g{c.gx(), c.gy(), false};
  EXPECT_TRUE(g.on_curve());
}

TEST(Secp256k1, KnownMultiples) {
  const auto& c = Secp256k1::instance();
  AffinePoint g{c.gx(), c.gy(), false};
  const AffinePoint two_g = scalar_mult(U256::from_u64(2), g).to_affine();
  EXPECT_EQ(two_g.x.to_hex(),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  EXPECT_EQ(two_g.y.to_hex(),
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
  const AffinePoint three_g = scalar_mult(U256::from_u64(3), g).to_affine();
  EXPECT_EQ(three_g.x.to_hex(),
            "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9");
}

TEST(Secp256k1, OrderAnnihilates) {
  const auto& c = Secp256k1::instance();
  AffinePoint g{c.gx(), c.gy(), false};
  EXPECT_TRUE(scalar_mult(c.n(), g).is_infinity());
}

TEST(Secp256k1, AddCommutes) {
  const auto& c = Secp256k1::instance();
  AffinePoint g{c.gx(), c.gy(), false};
  const JacobianPoint p2 = scalar_mult(U256::from_u64(5), g);
  const JacobianPoint p3 = scalar_mult(U256::from_u64(9), g);
  EXPECT_EQ(point_add(p2, p3).to_affine(), point_add(p3, p2).to_affine());
}

TEST(Secp256k1, DoubleMatchesAdd) {
  const auto& c = Secp256k1::instance();
  AffinePoint g{c.gx(), c.gy(), false};
  const JacobianPoint jg = JacobianPoint::from_affine(g);
  EXPECT_EQ(point_double(jg).to_affine(), point_add(jg, jg).to_affine());
}

TEST(Secp256k1, ScalarDistributes) {
  // (a + b) * G == a*G + b*G for random a, b.
  const auto& c = Secp256k1::instance();
  AffinePoint g{c.gx(), c.gy(), false};
  Rng rng(777);
  for (int i = 0; i < 5; ++i) {
    const U256 a = c.scalar().reduce(U256::from_be_bytes(rng.next_bytes(32)));
    const U256 b = c.scalar().reduce(U256::from_be_bytes(rng.next_bytes(32)));
    const U256 ab = c.scalar().add(a, b);
    const AffinePoint lhs = scalar_mult(ab, g).to_affine();
    const AffinePoint rhs =
        point_add(scalar_mult(a, g), scalar_mult(b, g)).to_affine();
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(Secp256k1, DoubleScalarMultMatchesNaive) {
  const auto& c = Secp256k1::instance();
  AffinePoint g{c.gx(), c.gy(), false};
  const AffinePoint q = scalar_mult(U256::from_u64(123456789), g).to_affine();
  const U256 u1 = U256::from_u64(987654);
  const U256 u2 = U256::from_u64(13579);
  const AffinePoint fast = double_scalar_mult(u1, u2, q).to_affine();
  const AffinePoint slow =
      point_add(scalar_mult(u1, g), scalar_mult(u2, q)).to_affine();
  EXPECT_EQ(fast, slow);
}

TEST(Secp256k1, PointEncodingRoundTrip) {
  const auto& c = Secp256k1::instance();
  AffinePoint g{c.gx(), c.gy(), false};
  const AffinePoint p = scalar_mult(U256::from_u64(42), g).to_affine();
  auto decoded = AffinePoint::decode(p.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, p);
}

TEST(Secp256k1, DecodeRejectsOffCurve) {
  const auto& c = Secp256k1::instance();
  AffinePoint g{c.gx(), c.gy(), false};
  Bytes enc = g.encode();
  enc[40] ^= 0x01;  // corrupt a coordinate byte
  EXPECT_FALSE(AffinePoint::decode(enc).has_value());
}

TEST(Secp256k1, InfinityEncoding) {
  const AffinePoint inf = AffinePoint::at_infinity();
  auto decoded = AffinePoint::decode(inf.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->infinity);
}

// ---------------------------------------------------------------------------
// ECDSA
// ---------------------------------------------------------------------------

TEST(Ecdsa, SignVerifyRoundTrip) {
  const auto key = EcdsaPrivateKey::from_seed(to_bytes("k1"));
  const auto pub = key.public_key();
  const Bytes msg = to_bytes("attack at dawn");
  EXPECT_TRUE(pub.verify(msg, key.sign(msg)));
}

TEST(Ecdsa, RejectsTamperedMessage) {
  const auto key = EcdsaPrivateKey::from_seed(to_bytes("k2"));
  const auto pub = key.public_key();
  const auto sig = key.sign(to_bytes("original"));
  EXPECT_FALSE(pub.verify(to_bytes("0riginal"), sig));
}

TEST(Ecdsa, RejectsTamperedSignature) {
  const auto key = EcdsaPrivateKey::from_seed(to_bytes("k3"));
  const auto pub = key.public_key();
  const Bytes msg = to_bytes("msg");
  auto sig = key.sign(msg);
  sig.s = Secp256k1::instance().scalar().add(sig.s, U256::one());
  EXPECT_FALSE(pub.verify(msg, sig));
}

TEST(Ecdsa, RejectsWrongKey) {
  const auto k1 = EcdsaPrivateKey::from_seed(to_bytes("a"));
  const auto k2 = EcdsaPrivateKey::from_seed(to_bytes("b"));
  const Bytes msg = to_bytes("msg");
  EXPECT_FALSE(k2.public_key().verify(msg, k1.sign(msg)));
}

TEST(Ecdsa, DeterministicSignatures) {
  const auto key = EcdsaPrivateKey::from_seed(to_bytes("det"));
  const Bytes msg = to_bytes("same message");
  EXPECT_EQ(key.sign(msg), key.sign(msg));
}

TEST(Ecdsa, RejectsZeroComponents) {
  const auto key = EcdsaPrivateKey::from_seed(to_bytes("z"));
  const auto pub = key.public_key();
  const Bytes msg = to_bytes("m");
  auto sig = key.sign(msg);
  auto zero_r = sig;
  zero_r.r = U256::zero();
  EXPECT_FALSE(pub.verify(msg, zero_r));
  auto zero_s = sig;
  zero_s.s = U256::zero();
  EXPECT_FALSE(pub.verify(msg, zero_s));
}

TEST(Ecdsa, SignatureEncoding) {
  const auto key = EcdsaPrivateKey::from_seed(to_bytes("enc"));
  const auto sig = key.sign(to_bytes("m"));
  const Bytes enc = sig.encode();
  EXPECT_EQ(enc.size(), 64u);
  auto dec = EcdsaSignature::decode(enc);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, sig);
  EXPECT_FALSE(EcdsaSignature::decode(BytesView(enc.data(), 63)).has_value());
}

TEST(Ecdsa, PublicKeyEncoding) {
  const auto key = EcdsaPrivateKey::from_seed(to_bytes("pk"));
  const auto pub = key.public_key();
  auto dec = EcdsaPublicKey::decode(pub.encode());
  ASSERT_TRUE(dec.has_value());
  EXPECT_TRUE(dec->verify(to_bytes("m"), key.sign(to_bytes("m"))));
}

// ---------------------------------------------------------------------------
// Signature suites
// ---------------------------------------------------------------------------

class SuiteTest : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<SignatureSuite> make(std::uint32_t n) {
    return GetParam() ? make_ecdsa_suite(n, to_bytes("seed"))
                      : make_fast_suite(n, to_bytes("seed"));
  }
};

TEST_P(SuiteTest, SignVerify) {
  auto suite = make(4);
  const Bytes msg = to_bytes("vote");
  for (ReplicaId r = 0; r < 4; ++r) {
    const Bytes sig = suite->signer(r)->sign(msg);
    EXPECT_EQ(sig.size(), kSignatureSize);
    EXPECT_TRUE(suite->verifier().verify(r, msg, sig));
  }
}

TEST_P(SuiteTest, CrossReplicaRejected) {
  auto suite = make(4);
  const Bytes msg = to_bytes("vote");
  const Bytes sig = suite->signer(0)->sign(msg);
  EXPECT_FALSE(suite->verifier().verify(1, msg, sig));
}

TEST_P(SuiteTest, TamperedMessageRejected) {
  auto suite = make(4);
  const Bytes sig = suite->signer(2)->sign(to_bytes("vote"));
  EXPECT_FALSE(suite->verifier().verify(2, to_bytes("votf"), sig));
}

TEST_P(SuiteTest, UnknownSignerRejected) {
  auto suite = make(4);
  const Bytes sig = suite->signer(0)->sign(to_bytes("m"));
  EXPECT_FALSE(suite->verifier().verify(17, to_bytes("m"), sig));
}

INSTANTIATE_TEST_SUITE_P(EcdsaAndFast, SuiteTest,
                         ::testing::Values(true, false),
                         [](const auto& info) {
                           return info.param ? "Ecdsa" : "Fast";
                         });

// Everything a replica asks of its cluster's suite, recorded: every
// signer's signature over each message, each verify, a SigGroup verify
// and a threshold combine + verify per message.
struct SuiteTranscript {
  std::vector<Bytes> sigs;
  std::vector<Bytes> combined;
  std::vector<bool> verdicts;
  bool operator==(const SuiteTranscript&) const = default;
};

SuiteTranscript run_suite(const SignatureSuite& suite, int messages) {
  constexpr std::uint32_t kQuorum = 3;
  SuiteTranscript out;
  for (int m = 0; m < messages; ++m) {
    const Bytes msg = to_bytes("block " + std::to_string(m));
    std::vector<PartialSig> parts;
    std::vector<std::pair<ReplicaId, Bytes>> pairs;
    for (ReplicaId r = 0; r < suite.n(); ++r) {
      const Bytes sig = suite.signer(r)->sign(msg);
      out.verdicts.push_back(suite.verifier().verify(r, msg, sig));
      out.sigs.push_back(sig);
      parts.push_back(PartialSig{r, sig});
      pairs.emplace_back(r, sig);
    }
    const auto group = SigGroup::combine(parts, kQuorum);
    out.verdicts.push_back(group.has_value() &&
                           group->verify(suite.verifier(), msg, kQuorum));
    const auto combined = suite.threshold_combine(msg, pairs, kQuorum);
    out.verdicts.push_back(combined.has_value() &&
                           suite.threshold_verify(msg, *combined));
    out.combined.push_back(combined.value_or(Bytes{}));
  }
  return out;
}

// A suite holds no mutable state, so one instance serves every replica
// thread of a cluster: concurrent use yields what a single thread, and a
// fresh suite from the same seed, yield.
TEST(SignatureSuite, OneSuiteSharedAcrossThreads) {
  for (const bool ecdsa : {false, true}) {
    SCOPED_TRACE(ecdsa ? "ecdsa" : "fast");
    const auto make = [ecdsa] {
      return ecdsa ? make_ecdsa_suite(4, to_bytes("shared"))
                   : make_fast_suite(4, to_bytes("shared"));
    };
    const int messages = ecdsa ? 2 : 64;
    const auto shared = make();
    const SuiteTranscript single = run_suite(*shared, messages);
    EXPECT_EQ(single, run_suite(*make(), messages));
    for (const bool verdict : single.verdicts) EXPECT_TRUE(verdict);

    std::vector<SuiteTranscript> got(4);
    std::vector<std::thread> threads;
    for (SuiteTranscript& out : got) {
      threads.emplace_back([&shared, &out, messages] {
        out = run_suite(*shared, messages);
      });
    }
    for (std::thread& t : threads) t.join();
    for (const SuiteTranscript& out : got) EXPECT_EQ(out, single);
  }
}

// ---------------------------------------------------------------------------
// SigGroup aggregation
// ---------------------------------------------------------------------------

class SigGroupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    suite_ = make_fast_suite(7, to_bytes("agg"));
    msg_ = to_bytes("the digest");
  }

  PartialSig part(ReplicaId r) {
    return PartialSig{r, suite_->signer(r)->sign(msg_)};
  }

  std::unique_ptr<SignatureSuite> suite_;
  Bytes msg_;
};

TEST_F(SigGroupTest, CombineAndVerify) {
  auto group = SigGroup::combine({part(0), part(2), part(4), part(6), part(1)}, 5);
  ASSERT_TRUE(group.has_value());
  EXPECT_EQ(group->signer_count(), 5u);
  EXPECT_TRUE(group->verify(suite_->verifier(), msg_, 5));
}

TEST_F(SigGroupTest, BelowThresholdFails) {
  EXPECT_FALSE(SigGroup::combine({part(0), part(1)}, 3).has_value());
}

TEST_F(SigGroupTest, DuplicatesDeduped) {
  auto group = SigGroup::combine({part(0), part(0), part(1), part(2)}, 3);
  ASSERT_TRUE(group.has_value());
  EXPECT_EQ(group->signer_count(), 3u);
}

TEST_F(SigGroupTest, DuplicatesDontFakeQuorum) {
  EXPECT_FALSE(
      SigGroup::combine({part(0), part(0), part(0), part(1)}, 3).has_value());
}

TEST_F(SigGroupTest, VerifyRejectsBadSignature) {
  auto group = SigGroup::combine({part(0), part(1), part(2)}, 3);
  ASSERT_TRUE(group.has_value());
  group->parts[1].sig[0] ^= 0x01;
  EXPECT_FALSE(group->verify(suite_->verifier(), msg_, 3));
}

TEST_F(SigGroupTest, VerifyRejectsWrongMessage) {
  auto group = SigGroup::combine({part(0), part(1), part(2)}, 3);
  ASSERT_TRUE(group.has_value());
  EXPECT_FALSE(group->verify(suite_->verifier(), to_bytes("other"), 3));
}

TEST_F(SigGroupTest, VerifyRejectsOutOfRangeSigner) {
  auto group = SigGroup::combine({part(0), part(1), part(2)}, 3);
  ASSERT_TRUE(group.has_value());
  group->parts[2].signer = 99;
  EXPECT_FALSE(group->verify(suite_->verifier(), msg_, 3));
}

TEST_F(SigGroupTest, WireRoundTrip) {
  auto group = SigGroup::combine({part(0), part(1), part(2)}, 3);
  ASSERT_TRUE(group.has_value());
  Writer w;
  group->encode(w);
  auto back = decode_from_bytes<SigGroup>(w.buffer());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), *group);
}

}  // namespace
}  // namespace marlin::crypto

namespace marlin::crypto {
namespace {

// ---------------------------------------------------------------------------
// Arithmetic and group-law edge cases
// ---------------------------------------------------------------------------

TEST(U256Edge, SubWithBorrowWraps) {
  U256 out;
  EXPECT_EQ(sub_with_borrow(U256::zero(), U256::one(), out), 1u);
  for (auto limb : out.limb) EXPECT_EQ(limb, ~0ull);
}

TEST(U256Edge, MaxValueRoundTrips) {
  U256 max;
  for (auto& l : max.limb) l = ~0ull;
  EXPECT_EQ(U256::from_be_bytes(max.to_be_bytes()), max);
  EXPECT_EQ(max.bit_length(), 256);
}

TEST(ModArithEdge, InverseOfOneIsOne) {
  const ModArith& fp = Secp256k1::instance().field();
  EXPECT_EQ(fp.inv(U256::one()), U256::one());
}

TEST(ModArithEdge, PowZeroExponentIsOne) {
  const ModArith& fp = Secp256k1::instance().field();
  EXPECT_EQ(fp.pow(U256::from_u64(12345), U256::zero()), U256::one());
}

TEST(ModArithEdge, ReduceValueJustBelowModulus) {
  const auto& c = Secp256k1::instance();
  U256 below;
  sub_with_borrow(c.p(), U256::one(), below);
  EXPECT_EQ(c.field().reduce(below), below);
  EXPECT_TRUE(c.field().reduce(c.p()).is_zero());
}

TEST(PointEdge, InfinityIsIdentity) {
  const auto& c = Secp256k1::instance();
  AffinePoint g{c.gx(), c.gy(), false};
  const JacobianPoint jg = JacobianPoint::from_affine(g);
  const JacobianPoint inf = JacobianPoint::at_infinity();
  EXPECT_EQ(point_add(jg, inf).to_affine(), g);
  EXPECT_EQ(point_add(inf, jg).to_affine(), g);
  EXPECT_TRUE(point_double(inf).is_infinity());
}

TEST(PointEdge, AddingInverseGivesInfinity) {
  const auto& c = Secp256k1::instance();
  AffinePoint g{c.gx(), c.gy(), false};
  AffinePoint neg_g = g;
  neg_g.y = c.field().sub(U256::zero(), g.y);
  EXPECT_TRUE(neg_g.on_curve());
  EXPECT_TRUE(point_add(JacobianPoint::from_affine(g),
                        JacobianPoint::from_affine(neg_g))
                  .is_infinity());
}

TEST(PointEdge, ScalarZeroGivesInfinity) {
  const auto& c = Secp256k1::instance();
  AffinePoint g{c.gx(), c.gy(), false};
  EXPECT_TRUE(scalar_mult(U256::zero(), g).is_infinity());
}

TEST(PointEdge, NMinusOneTimesGIsNegG) {
  const auto& c = Secp256k1::instance();
  AffinePoint g{c.gx(), c.gy(), false};
  U256 n_minus_1;
  sub_with_borrow(c.n(), U256::one(), n_minus_1);
  const AffinePoint r = scalar_mult(n_minus_1, g).to_affine();
  EXPECT_EQ(r.x, g.x);
  EXPECT_EQ(r.y, c.field().sub(U256::zero(), g.y));
}

TEST(EcdsaEdge, DomainsAreIndependent) {
  // Same seed, different domains (suite seeding) → different keys.
  auto fast = make_fast_suite(2, to_bytes("same-seed"));
  auto ecdsa = make_ecdsa_suite(2, to_bytes("same-seed"));
  const Bytes msg = to_bytes("m");
  const Bytes fast_sig = fast->signer(0)->sign(msg);
  EXPECT_FALSE(ecdsa->verifier().verify(0, msg, fast_sig));
}

TEST(EcdsaEdge, DistinctMessagesDistinctSignatures) {
  const auto key = EcdsaPrivateKey::from_seed(to_bytes("dm"));
  EXPECT_NE(key.sign(to_bytes("a")).encode(), key.sign(to_bytes("b")).encode());
}

TEST(Sha256Edge, DigestsDifferOnSingleBitFlip) {
  Bytes a(100, 0x42);
  Bytes b = a;
  b[63] ^= 0x80;  // flip a bit at the block boundary
  EXPECT_NE(Sha256::digest(a), Sha256::digest(b));
}

}  // namespace
}  // namespace marlin::crypto
