// Deterministic binary wire codec. All consensus messages and storage
// records are encoded with this format:
//   - fixed-width integers: little-endian
//   - varint: LEB128 (unsigned)
//   - bytes/string: varint length prefix + raw payload
// Determinism matters: block hashes and signatures are computed over these
// encodings, so two replicas must always serialize a value identically.
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
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);             // zig-zag free: fixed 8-byte LE
  void varint(std::uint64_t v);         // LEB128
  void boolean(bool v) { u8(v ? 1 : 0); }
  void bytes(BytesView v);              // varint length + payload
  void str(std::string_view v);
  void raw(BytesView v);                // no length prefix

  const Bytes& buffer() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Bounds-checked decoder over a non-owned view. Every accessor reports
/// truncation/overflow through Status instead of UB.
class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  Status u8(std::uint8_t& out);
  Status u16(std::uint16_t& out);
  Status u32(std::uint32_t& out);
  Status u64(std::uint64_t& out);
  Status i64(std::int64_t& out);
  Status varint(std::uint64_t& out);
  Status boolean(bool& out);
  Status bytes(Bytes& out);
  Status str(std::string& out);
  /// Reads exactly `n` raw bytes.
  Status raw(std::size_t n, Bytes& out);

  /// Skips exactly `n` bytes.
  Status skip(std::size_t n);

  /// Bytes consumed so far: the offset of the next read in the input.
  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }

  /// Fails unless the whole input was consumed — used by message decoders
  /// to reject trailing garbage.
  Status expect_exhausted() const;

 private:
  Status need(std::size_t n) const;

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
