#include "common/serialize.h"

namespace marlin {

Status Reader::truncated() {
  return error(ErrorCode::kCorruption, "truncated input");
}

Status Reader::varint_multibyte(std::uint64_t& out) {
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

Status Reader::str(std::string& out) {
  std::uint64_t len = 0;
  if (Status s = varint(len); !s.is_ok()) return s;
  if (remaining() < len) return truncated();
  const auto* p = reinterpret_cast<const char*>(data_.data() + pos_);
  out.assign(p, static_cast<std::size_t>(len));
  pos_ += static_cast<std::size_t>(len);
  return Status::ok();
}

Status Reader::expect_exhausted() const {
  if (!exhausted()) {
    return error(ErrorCode::kCorruption, "trailing bytes after message");
  }
  return Status::ok();
}

}  // namespace marlin
