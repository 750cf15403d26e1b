// Shared wire-framing codec: the one place that knows how a consensus
// envelope travels as bytes. Both transports build on it:
//
//  * simnet delivers whole frames (the simulator has no byte streams), so
//    it uses only the kind classification for its per-kind byte charging;
//  * realnet speaks length-prefixed frames over TCP and uses the full
//    codec — header encode for writev scatter-gather egress and
//    FrameDecoder for partial-read reassembly on ingress.
//
// Frame format on a byte stream:
//   [u32 LE payload length][payload]
// where payload is an Envelope serialization ([u8 MsgKind][body]) or the
// transport's hello frame ([kHelloKind][u32 LE node id]).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "common/bytes.h"
#include "common/net_stats.h"
#include "common/status.h"

namespace marlin::wire {

/// Stream frame header: u32 little-endian payload length.
inline constexpr std::size_t kHeaderSize = 4;

/// Upper bound on a single frame's payload. A snapshot response, capped
/// at kSuffixLimit blocks and kSuffixBytes of ops, is the largest
/// legitimate frame; anything bigger is a corrupt or hostile stream and
/// kills the connection.
inline constexpr std::size_t kMaxFramePayload = 64u << 20;

/// Transport-private frame kind (outside types::MsgKind's range): the
/// connection hello identifying the dialing node. Body: u32 LE node id.
inline constexpr std::uint8_t kHelloKind = 0xFF;

/// Classifies a payload by its leading MsgKind byte for per-kind traffic
/// accounting: slot = kind for known wire values 1..10, slot 0 otherwise.
/// (Kinds outside the table — hello frames, kTimeoutNotice — share the
/// "unknown" slot; totals are exact either way.)
std::size_t kind_slot(BytesView payload);

/// Stable label for a kind slot ("proposal", "vote", ...), mirroring
/// types::MsgKind wire values; the codec keeps its own table so both
/// transports stay below the types layer.
std::string_view kind_slot_name(std::size_t slot);

/// Encodes the 4-byte header for a payload of `payload_size` bytes. Kept
/// separate from the payload so egress can writev [header][shared payload]
/// without copying the refcounted broadcast buffer.
std::array<std::uint8_t, kHeaderSize> encode_header(std::uint32_t payload_size);

/// Appends header + payload to `out` (single-buffer convenience).
void append_frame(Bytes& out, BytesView payload);

/// Builds the connection hello payload for `node_id`.
Bytes hello_payload(std::uint32_t node_id);

/// Parses a hello payload; false when it is not one.
bool parse_hello(BytesView payload, std::uint32_t* node_id);

/// Incremental frame reassembly over an arbitrary chunking of the stream.
/// Feed whatever recv() returned; pop complete frames with next(). A
/// declared length beyond max_payload poisons the decoder (every later
/// call errors) — the caller must drop the connection.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Appends a chunk. Errors (kCorruption) once a frame header declares a
  /// payload larger than max_payload.
  Status feed(BytesView chunk);

  /// Moves the next complete frame payload into `frame`; false when the
  /// buffered bytes do not yet hold a full frame.
  bool next(Bytes& frame);

  /// Bytes buffered but not yet returned as frames.
  std::size_t buffered() const { return buf_.size() - pos_; }

  bool poisoned() const { return poisoned_; }

 private:
  std::size_t max_payload_;
  Bytes buf_;
  std::size_t pos_ = 0;  // consumed prefix, compacted opportunistically
  bool poisoned_ = false;
};

}  // namespace marlin::wire
