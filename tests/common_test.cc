// Unit tests for the common kernel: bytes/hex, serialization, varints,
// status/result, RNG, time types, CRC32C, histograms.
#include <gtest/gtest.h>

#include <set>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/histogram.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/sim_time.h"
#include "common/status.h"

namespace marlin {
namespace {

// ---------------------------------------------------------------------------
// bytes / hex
// ---------------------------------------------------------------------------

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xcd, 0xef, 0xff};
  EXPECT_EQ(to_hex(data), "0001abcdefff");
  auto back = from_hex("0001abcdefff");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(Bytes, HexUppercaseAccepted) {
  auto v = from_hex("DEADBEEF");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_hex(*v), "deadbeef");
}

TEST(Bytes, HexRejectsOddLength) {
  EXPECT_FALSE(from_hex("abc").has_value());
}

TEST(Bytes, HexRejectsNonHex) {
  EXPECT_FALSE(from_hex("zz").has_value());
  EXPECT_FALSE(from_hex("0x12").has_value());
}

TEST(Bytes, EmptyHex) {
  EXPECT_EQ(to_hex(Bytes{}), "");
  auto v = from_hex("");
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->empty());
}

TEST(Bytes, ConstantTimeEqual) {
  const Bytes a = to_bytes("secret");
  const Bytes b = to_bytes("secret");
  const Bytes c = to_bytes("secreT");
  EXPECT_TRUE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, c));
  EXPECT_FALSE(constant_time_equal(a, to_bytes("secre")));
}

TEST(Bytes, Append) {
  Bytes a = to_bytes("foo");
  append(a, to_bytes("bar"));
  EXPECT_EQ(a, to_bytes("foobar"));
}

// ---------------------------------------------------------------------------
// status / result
// ---------------------------------------------------------------------------

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "Ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = error(ErrorCode::kNotFound, "missing thing");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.to_string(), "NotFound: missing thing");
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, HoldsError) {
  Result<int> r = error(ErrorCode::kCorruption, "bad");
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCorruption);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, TakeMovesValue) {
  Result<std::string> r = std::string("payload");
  std::string s = std::move(r).take();
  EXPECT_EQ(s, "payload");
}

// ---------------------------------------------------------------------------
// serialization
// ---------------------------------------------------------------------------

TEST(Serialize, FixedWidthRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.boolean(true);

  Reader r(w.buffer());
  std::uint8_t a;
  std::uint16_t b;
  std::uint32_t c;
  std::uint64_t d;
  std::int64_t e;
  bool f;
  ASSERT_TRUE(r.u8(a).is_ok());
  ASSERT_TRUE(r.u16(b).is_ok());
  ASSERT_TRUE(r.u32(c).is_ok());
  ASSERT_TRUE(r.u64(d).is_ok());
  ASSERT_TRUE(r.i64(e).is_ok());
  ASSERT_TRUE(r.boolean(f).is_ok());
  EXPECT_EQ(a, 0xab);
  EXPECT_EQ(b, 0x1234);
  EXPECT_EQ(c, 0xdeadbeef);
  EXPECT_EQ(d, 0x0123456789abcdefULL);
  EXPECT_EQ(e, -42);
  EXPECT_TRUE(f);
  EXPECT_TRUE(r.exhausted());
}

class VarintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundTrip, Encodes) {
  Writer w;
  w.varint(GetParam());
  Reader r(w.buffer());
  std::uint64_t v = 0;
  ASSERT_TRUE(r.varint(v).is_ok());
  EXPECT_EQ(v, GetParam());
  EXPECT_TRUE(r.exhausted());
}

INSTANTIATE_TEST_SUITE_P(
    Values, VarintRoundTrip,
    ::testing::Values(0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull,
                      (1ull << 32) - 1, 1ull << 32, (1ull << 56) + 12345,
                      ~0ull));

TEST(Serialize, VarintRejectsNonCanonical) {
  // 0x80 0x00 encodes 0 in two bytes — must be rejected.
  const Bytes bad = {0x80, 0x00};
  Reader r(bad);
  std::uint64_t v = 0;
  EXPECT_FALSE(r.varint(v).is_ok());
}

TEST(Serialize, VarintRejectsOverflow) {
  // 10 bytes with a high final digit overflows 64 bits.
  const Bytes bad = {0xff, 0xff, 0xff, 0xff, 0xff,
                     0xff, 0xff, 0xff, 0xff, 0x02};
  Reader r(bad);
  std::uint64_t v = 0;
  EXPECT_FALSE(r.varint(v).is_ok());
}

TEST(Serialize, BytesAndStrings) {
  Writer w;
  w.bytes(to_bytes("hello"));
  w.str("world");
  Reader r(w.buffer());
  Bytes b;
  std::string s;
  ASSERT_TRUE(r.bytes(b).is_ok());
  ASSERT_TRUE(r.str(s).is_ok());
  EXPECT_EQ(b, to_bytes("hello"));
  EXPECT_EQ(s, "world");
}

TEST(Serialize, TruncationDetected) {
  Writer w;
  w.u64(7);
  Reader r(BytesView(w.buffer().data(), 4));  // cut in half
  std::uint64_t v;
  EXPECT_FALSE(r.u64(v).is_ok());
}

TEST(Serialize, TrailingBytesDetected) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.buffer());
  std::uint8_t v;
  ASSERT_TRUE(r.u8(v).is_ok());
  EXPECT_FALSE(r.expect_exhausted().is_ok());
}

TEST(Serialize, BadBooleanRejected) {
  const Bytes bad = {0x02};
  Reader r(bad);
  bool b;
  EXPECT_FALSE(r.boolean(b).is_ok());
}

// ---------------------------------------------------------------------------
// rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, BernoulliRoughlyFair) {
  Rng rng(17);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.next_bool(0.5);
  EXPECT_GT(heads, 4600);
  EXPECT_LT(heads, 5400);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  double total = 0;
  const int k = 20000;
  for (int i = 0; i < k; ++i) total += rng.next_exponential(5.0);
  EXPECT_NEAR(total / k, 5.0, 0.3);
}

TEST(Rng, BytesLengthAndDeterminism) {
  Rng a(23), b(23);
  EXPECT_EQ(a.next_bytes(33).size(), 33u);
  b.next_bytes(33);
  EXPECT_EQ(a.next_bytes(7), b.next_bytes(7));
}

// next_bytes' definition, one byte per shift: each draw contributes its 8
// bytes least-significant first.
Bytes byte_loop_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t r = rng.next_u64();
    for (int b = 0; b < 8 && i < n; ++b, ++i) {
      out[i] = static_cast<std::uint8_t>(r >> (8 * b));
    }
  }
  return out;
}

TEST(Rng, BytesMatchTheByteLoopReference) {
  std::vector<std::size_t> lengths = {4096, 4099};
  for (std::size_t n = 0; n <= 17; ++n) lengths.push_back(n);
  for (std::uint64_t seed : {1ull, 11ull, 23ull, 0x9e3779b97f4a7c15ull}) {
    Rng fast(seed), reference(seed);
    for (std::size_t n : lengths) {
      ASSERT_EQ(fast.next_bytes(n), byte_loop_bytes(reference, n))
          << "seed " << seed << " length " << n;
    }
    // Both consumed the same number of draws.
    EXPECT_EQ(fast.next_u64(), reference.next_u64());
  }
}

TEST(Rng, ForkIndependentStreams) {
  Rng parent(31);
  Rng child = parent.fork();
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

// ---------------------------------------------------------------------------
// time
// ---------------------------------------------------------------------------

TEST(SimTime, Arithmetic) {
  const TimePoint t0 = TimePoint::origin();
  const TimePoint t1 = t0 + Duration::millis(1500);
  EXPECT_EQ((t1 - t0).as_nanos(), 1500000000);
  EXPECT_LT(t0, t1);
  EXPECT_EQ(Duration::seconds(2) - Duration::millis(500),
            Duration::millis(1500));
  EXPECT_EQ(Duration::micros(3) * 4, Duration::micros(12));
}

TEST(SimTime, Conversions) {
  EXPECT_DOUBLE_EQ(Duration::millis(250).as_seconds_f(), 0.25);
  EXPECT_DOUBLE_EQ(Duration::micros(1500).as_millis_f(), 1.5);
  EXPECT_EQ(Duration::from_seconds_f(0.001).as_nanos(), 1000000);
}

TEST(SimTime, Formatting) {
  EXPECT_EQ(Duration::nanos(12).to_string(), "12ns");
  EXPECT_EQ(Duration::millis(12).to_string(), "12.000ms");
  EXPECT_EQ(Duration::seconds(3).to_string(), "3.000s");
}

// ---------------------------------------------------------------------------
// crc32c
// ---------------------------------------------------------------------------

TEST(Crc32c, KnownVectors) {
  // RFC 3720 test vector: 32 bytes of zeros.
  const Bytes zeros(32, 0x00);
  EXPECT_EQ(crc32c(zeros), 0x8a9136aau);
  const Bytes ones(32, 0xff);
  EXPECT_EQ(crc32c(ones), 0x62a8ab43u);
  Bytes ascending(32);
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(crc32c(ascending), 0x46dd794eu);
}

TEST(Crc32c, EmptyInput) {
  EXPECT_EQ(crc32c(Bytes{}), 0u);
}

TEST(Crc32c, MaskedDiffersFromRaw) {
  const Bytes data = to_bytes("some record");
  EXPECT_NE(crc32c(data), crc32c_masked(data));
}

TEST(Crc32c, DetectsBitFlip) {
  Bytes data = to_bytes("payload payload payload");
  const std::uint32_t before = crc32c(data);
  data[5] ^= 0x01;
  EXPECT_NE(before, crc32c(data));
}

// ---------------------------------------------------------------------------
// histogram / counters
// ---------------------------------------------------------------------------

TEST(Histogram, Percentiles) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.record(Duration::millis(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), Duration::millis(1));
  EXPECT_EQ(h.max(), Duration::millis(100));
  EXPECT_NEAR(h.percentile(50).as_millis_f(), 50, 1.5);
  EXPECT_NEAR(h.percentile(95).as_millis_f(), 95, 1.5);
  EXPECT_NEAR(h.mean().as_millis_f(), 50.5, 0.01);
}

TEST(Histogram, PercentileInterpolatesBetweenSamples) {
  LatencyHistogram h;
  for (int ms : {10, 20, 30, 40}) h.record(Duration::millis(ms));
  // rank = p/100 * (n-1); p50 over 4 samples lands halfway between the
  // 2nd and 3rd (exactly 25 ms), p25 a quarter of the way past the 1st.
  EXPECT_EQ(h.percentile(0), Duration::millis(10));
  EXPECT_EQ(h.percentile(50), Duration::millis(25));
  EXPECT_EQ(h.percentile(25), Duration::micros(17500));
  EXPECT_EQ(h.percentile(100), Duration::millis(40));
}

TEST(Histogram, PercentileIsConstAndSortsLazily) {
  LatencyHistogram h;
  h.record(Duration::millis(30));
  h.record(Duration::millis(10));
  h.record(Duration::millis(20));
  const LatencyHistogram& view = h;  // const access must work (exporters)
  EXPECT_EQ(view.percentile(0), Duration::millis(10));
  EXPECT_EQ(view.percentile(100), Duration::millis(30));
  EXPECT_EQ(view.median(), Duration::millis(20));
}

TEST(Histogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile(0), Duration::zero());
  EXPECT_EQ(h.percentile(50), Duration::zero());
  EXPECT_EQ(h.percentile(100), Duration::zero());
  EXPECT_EQ(h.mean(), Duration::zero());
  EXPECT_EQ(h.min(), Duration::zero());
  EXPECT_EQ(h.max(), Duration::zero());
  EXPECT_EQ(h.median(), Duration::zero());
}

TEST(Histogram, SingleSampleIsEveryPercentile) {
  LatencyHistogram h;
  h.record(Duration::millis(7));
  // n == 1 means rank 0 for every p, so both quantile bounds and the
  // median all collapse to the lone sample.
  EXPECT_EQ(h.percentile(0), Duration::millis(7));
  EXPECT_EQ(h.percentile(50), Duration::millis(7));
  EXPECT_EQ(h.percentile(99), Duration::millis(7));
  EXPECT_EQ(h.percentile(100), Duration::millis(7));
  EXPECT_EQ(h.median(), Duration::millis(7));
  EXPECT_EQ(h.min(), Duration::millis(7));
  EXPECT_EQ(h.max(), Duration::millis(7));
  EXPECT_EQ(h.mean(), Duration::millis(7));
}

TEST(Histogram, Merge) {
  LatencyHistogram a, b;
  a.record(Duration::millis(10));
  b.record(Duration::millis(30));
  a.merge_from(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.max(), Duration::millis(30));
}

// ---------------------------------------------------------------------------
// log sink
// ---------------------------------------------------------------------------

TEST(Log, ScopedCaptureCollectsAndRestores) {
  {
    ScopedLogCapture capture;
    MLOG_INFO("hello %d", 42);
    MLOG_WARN("watch out");
    ASSERT_EQ(capture.lines().size(), 2u);
    EXPECT_TRUE(capture.contains("hello 42"));
    EXPECT_TRUE(capture.contains("WARN"));
    EXPECT_FALSE(capture.contains("absent"));
    capture.clear();
    EXPECT_TRUE(capture.lines().empty());
  }
  // After the capture's destructor, a fresh capture starts empty — the
  // previous sink (stderr) was restored in between without leaking lines.
  ScopedLogCapture again;
  EXPECT_TRUE(again.lines().empty());
}

TEST(Log, CaptureHonorsItsLevel) {
  ScopedLogCapture capture(LogLevel::kWarn);
  MLOG_DEBUG("too quiet");
  MLOG_ERROR("loud");
  ASSERT_EQ(capture.lines().size(), 1u);
  EXPECT_TRUE(capture.contains("loud"));
}

TEST(Log, NestedCapturesRestoreInner) {
  ScopedLogCapture outer;
  {
    ScopedLogCapture inner;
    MLOG_INFO("inner message");
    EXPECT_TRUE(inner.contains("inner message"));
    EXPECT_FALSE(outer.contains("inner message"));
  }
  MLOG_INFO("outer message");
  EXPECT_TRUE(outer.contains("outer message"));
}

TEST(WindowedCounter, CountsOnlyWindow) {
  WindowedCounter c;
  c.set_window(TimePoint::from_nanos(1000), TimePoint::from_nanos(2000));
  c.record(TimePoint::from_nanos(500), 5);    // before
  c.record(TimePoint::from_nanos(1500), 7);   // inside
  c.record(TimePoint::from_nanos(2000), 9);   // at end (exclusive)
  EXPECT_EQ(c.total(), 21u);
  EXPECT_EQ(c.in_window(), 7u);
}

TEST(WindowedCounter, Rate) {
  WindowedCounter c;
  c.set_window(TimePoint::origin(), TimePoint::origin() + Duration::seconds(2));
  c.record(TimePoint::origin() + Duration::millis(100), 10);
  c.record(TimePoint::origin() + Duration::millis(200), 10);
  EXPECT_DOUBLE_EQ(c.rate_per_second(), 10.0);
}

}  // namespace
}  // namespace marlin
