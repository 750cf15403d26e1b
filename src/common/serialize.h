// Deterministic binary wire codec. All consensus messages and storage
// records are encoded with this format:
//   - fixed-width integers: little-endian
//   - varint: LEB128 (unsigned)
//   - bytes/string: varint length prefix + raw payload
// Determinism matters: block hashes and signatures are computed over these
// encodings, so two replicas must always serialize a value identically.
//
// Every op on the wire is decoded once per receiving replica (n times per
// op on the simulator), so the per-field paths live here, inline: one bounds
// check per read, a one-byte fast path for varints, and appends that grow
// the buffer once per field. Only the cold paths are out of line: the
// truncation error (Reader::truncated) and the multi-byte varint with its
// canonical-form and overflow checks.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/status.h"

namespace marlin {

/// Bytes Writer::varint(v) appends.
inline std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Append-only encoder. Cheap to create; move the buffer out when done.
class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { fixed(v); }
  void u32(std::uint32_t v) { fixed(v); }
  void u64(std::uint64_t v) { fixed(v); }
  // zig-zag free: fixed 8-byte LE
  void i64(std::int64_t v) { fixed(static_cast<std::uint64_t>(v)); }
  // LEB128
  void varint(std::uint64_t v) {
    std::uint8_t tmp[10];
    std::size_t n = 0;
    for (; v >= 0x80; v >>= 7) tmp[n++] = static_cast<std::uint8_t>(v) | 0x80;
    tmp[n++] = static_cast<std::uint8_t>(v);
    buf_.insert(buf_.end(), tmp, tmp + n);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  // varint length + payload
  void bytes(BytesView v) {
    varint(v.size());
    raw(v);
  }
  void str(std::string_view v) {
    varint(v.size());
    buf_.insert(buf_.end(), v.begin(), v.end());
  }
  // no length prefix
  void raw(BytesView v) { buf_.insert(buf_.end(), v.begin(), v.end()); }

  const Bytes& buffer() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void fixed(T v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    std::uint8_t* p = buf_.data() + at;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  Bytes buf_;
};

/// Bounds-checked decoder over a non-owned view. Every accessor reports
/// truncation/overflow through Status instead of UB.
class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  Status u8(std::uint8_t& out) {
    if (remaining() < 1) [[unlikely]] return truncated();
    out = data_[pos_++];
    return Status::ok();
  }
  Status u16(std::uint16_t& out) { return fixed(out); }
  Status u32(std::uint32_t& out) { return fixed(out); }
  Status u64(std::uint64_t& out) { return fixed(out); }
  Status i64(std::int64_t& out) {
    std::uint64_t u = 0;
    if (Status s = fixed(u); !s.is_ok()) return s;
    out = static_cast<std::int64_t>(u);
    return Status::ok();
  }
  Status varint(std::uint64_t& out) {
    if (pos_ < data_.size() && data_[pos_] < 0x80) [[likely]] {
      out = data_[pos_++];
      return Status::ok();
    }
    return varint_multibyte(out);
  }
  Status boolean(bool& out);
  Status bytes(Bytes& out) {
    std::uint64_t len = 0;
    if (Status s = varint(len); !s.is_ok()) return s;
    return raw(static_cast<std::size_t>(len), out);
  }
  Status str(std::string& out);
  /// Reads exactly `n` raw bytes.
  Status raw(std::size_t n, Bytes& out) {
    if (remaining() < n) [[unlikely]] return truncated();
    const std::uint8_t* p = data_.data() + pos_;
    out.assign(p, p + n);
    pos_ += n;
    return Status::ok();
  }

  /// Skips exactly `n` bytes.
  Status skip(std::size_t n) {
    if (remaining() < n) [[unlikely]] return truncated();
    pos_ += n;
    return Status::ok();
  }

  /// Bytes consumed so far: the offset of the next read in the input.
  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }

  /// Fails unless the whole input was consumed — used by message decoders
  /// to reject trailing garbage.
  Status expect_exhausted() const;

 private:
  template <typename T>
  Status fixed(T& out) {
    if (remaining() < sizeof(T)) [[unlikely]] return truncated();
    const std::uint8_t* p = data_.data() + pos_;
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
    }
    out = v;
    pos_ += sizeof(T);
    return Status::ok();
  }

  /// The kCorruption "truncated input" status every short read returns.
  [[gnu::cold, gnu::noinline]] static Status truncated();
  /// varint() past its one-byte fast path (and at end of input).
  Status varint_multibyte(std::uint64_t& out);

  BytesView data_;
  std::size_t pos_ = 0;
};

/// Convenience: encode any type that provides `void encode(Writer&) const`.
template <typename T>
Bytes encode_to_bytes(const T& value) {
  Writer w;
  value.encode(w);
  return std::move(w).take();
}

/// Convenience: decode any type that provides
/// `static Result<T> decode(Reader&)`, requiring full consumption.
template <typename T>
Result<T> decode_from_bytes(BytesView data) {
  Reader r(data);
  Result<T> out = T::decode(r);
  if (!out.is_ok()) return out;
  if (Status s = r.expect_exhausted(); !s.is_ok()) return s;
  return out;
}

}  // namespace marlin
