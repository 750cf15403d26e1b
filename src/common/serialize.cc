#include "common/serialize.h"

namespace marlin {

void Writer::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::i64(std::int64_t v) {
  u64(static_cast<std::uint64_t>(v));
}

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  u8(static_cast<std::uint8_t>(v));
}

void Writer::bytes(BytesView v) {
  varint(v.size());
  raw(v);
}

void Writer::str(std::string_view v) {
  varint(v.size());
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void Writer::raw(BytesView v) {
  buf_.insert(buf_.end(), v.begin(), v.end());
}

Status Reader::need(std::size_t n) const {
  if (remaining() < n) {
    return error(ErrorCode::kCorruption, "truncated input");
  }
  return Status::ok();
}

Status Reader::u8(std::uint8_t& out) {
  if (Status s = need(1); !s.is_ok()) return s;
  out = data_[pos_++];
  return Status::ok();
}

Status Reader::u16(std::uint16_t& out) {
  if (Status s = need(2); !s.is_ok()) return s;
  out = static_cast<std::uint16_t>(data_[pos_] |
                                   (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return Status::ok();
}

Status Reader::u32(std::uint32_t& out) {
  if (Status s = need(4); !s.is_ok()) return s;
  out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return Status::ok();
}

Status Reader::u64(std::uint64_t& out) {
  if (Status s = need(8); !s.is_ok()) return s;
  out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return Status::ok();
}

Status Reader::i64(std::int64_t& out) {
  std::uint64_t u = 0;
  if (Status s = u64(u); !s.is_ok()) return s;
  out = static_cast<std::int64_t>(u);
  return Status::ok();
}

Status Reader::varint(std::uint64_t& out) {
  out = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    std::uint8_t byte = 0;
    if (Status s = u8(byte); !s.is_ok()) return s;
    out |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // Reject non-canonical ("0x80 0x00") and overlong encodings.
      if (byte == 0 && shift != 0) {
        return error(ErrorCode::kCorruption, "non-canonical varint");
      }
      if (shift == 63 && byte > 1) {
        return error(ErrorCode::kCorruption, "varint overflow");
      }
      return Status::ok();
    }
  }
  return error(ErrorCode::kCorruption, "varint too long");
}

Status Reader::boolean(bool& out) {
  std::uint8_t b = 0;
  if (Status s = u8(b); !s.is_ok()) return s;
  if (b > 1) return error(ErrorCode::kCorruption, "bad boolean");
  out = b == 1;
  return Status::ok();
}

Status Reader::bytes(Bytes& out) {
  std::uint64_t len = 0;
  if (Status s = varint(len); !s.is_ok()) return s;
  return raw(static_cast<std::size_t>(len), out);
}

Status Reader::str(std::string& out) {
  Bytes tmp;
  if (Status s = bytes(tmp); !s.is_ok()) return s;
  out.assign(tmp.begin(), tmp.end());
  return Status::ok();
}

Status Reader::raw(std::size_t n, Bytes& out) {
  if (Status s = need(n); !s.is_ok()) return s;
  out.assign(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return Status::ok();
}

Status Reader::skip(std::size_t n) {
  if (Status s = need(n); !s.is_ok()) return s;
  pos_ += n;
  return Status::ok();
}

Status Reader::expect_exhausted() const {
  if (!exhausted()) {
    return error(ErrorCode::kCorruption, "trailing bytes after message");
  }
  return Status::ok();
}

}  // namespace marlin
