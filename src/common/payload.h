// Refcounted immutable byte buffer: the unit of zero-copy message passing
// in the simulated network. A broadcast serializes its envelope into one
// Payload and every receiver shares the same underlying buffer; copying a
// Payload bumps a refcount instead of copying bytes. Immutability is what
// makes the sharing safe — anything that needs to tamper with a frame
// (faults::ByzantineBox) must build a new Payload (copy-on-write).
//
// Beside the bytes, the shared buffer carries one digest slot: the digests
// of the blocks the frame carries (consensus::pin_block_digests), computed by
// whoever needs them first and then reused by every holder of the buffer —
// the n receivers of one broadcast and the sender's own loopback copy.
// Being a pure function of the immutable bytes, the slot never goes stale.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "common/bytes.h"

namespace marlin {

class Payload {
 public:
  /// One 32-byte digest in the slot.
  using Digest = std::array<std::uint8_t, 32>;

  /// Empty payload (no buffer attached).
  Payload() = default;

  /// Takes ownership of `bytes` (one allocation for the shared control
  /// block; the byte buffer itself is moved, not copied). Implicit so call
  /// sites can keep passing `Bytes` where a Payload is expected.
  Payload(Bytes bytes) : frame_(std::make_shared<Frame>(std::move(bytes))) {}

  const Bytes& bytes() const { return frame_ ? frame_->bytes : empty_bytes(); }
  BytesView view() const { return bytes(); }
  std::size_t size() const { return frame_ ? frame_->bytes.size() : 0; }
  bool empty() const { return size() == 0; }
  const std::uint8_t* data() const {
    return frame_ ? frame_->bytes.data() : nullptr;
  }
  std::uint8_t operator[](std::size_t i) const { return frame_->bytes[i]; }

  /// True when a buffer is attached (even a zero-length one).
  bool has_value() const { return frame_ != nullptr; }

  /// True when both payloads alias the same underlying buffer — the
  /// property the zero-copy broadcast tests pin (one serialization, n
  /// receivers).
  bool shares_buffer(const Payload& other) const {
    return frame_ != nullptr && frame_ == other.frame_;
  }

  long use_count() const { return frame_.use_count(); }

  /// The buffer's digest slot, filled on first use: the first caller runs
  /// `compute` (a callable returning std::vector<Digest>); every later or
  /// concurrent caller — sharded simulator workers decode one broadcast
  /// frame at once — waits for and shares that one result. Requires a
  /// buffer (has_value()).
  template <typename Compute>
  const std::vector<Digest>& digests(Compute&& compute) const {
    std::call_once(frame_->digests_once, [&] {
      frame_->digests = compute();
      frame_->digests_ready.store(true, std::memory_order_release);
    });
    return frame_->digests;
  }

  /// The slot's digests if some caller has filled it already; nullptr
  /// otherwise (never waits, never computes).
  const std::vector<Digest>* digests_if_ready() const {
    if (!frame_ || !frame_->digests_ready.load(std::memory_order_acquire)) {
      return nullptr;
    }
    return &frame_->digests;
  }

 private:
  struct Frame {
    explicit Frame(Bytes b) : bytes(std::move(b)) {}
    const Bytes bytes;
    mutable std::once_flag digests_once;
    mutable std::atomic<bool> digests_ready{false};
    mutable std::vector<Digest> digests;
  };

  static const Bytes& empty_bytes() {
    static const Bytes kEmpty;
    return kEmpty;
  }

  std::shared_ptr<const Frame> frame_;
};

}  // namespace marlin
