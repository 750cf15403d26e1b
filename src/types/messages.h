// Wire messages for both protocols. Every network payload is an Envelope:
// a one-byte kind tag plus the message body. Proposal messages implement
// the paper's *shadow block* optimisation: when a PRE-PREPARE carries two
// blocks sharing one op batch (Cases V1/V3), the payload is serialized
// once and the second block is flagged as a shadow (§IV-D, §V-C).
#pragma once

#include <optional>
#include <vector>

#include "common/payload.h"
#include "types/block_store.h"

namespace marlin::types {

enum class MsgKind : std::uint8_t {
  kClientRequest = 1,
  kClientReply = 2,
  kProposal = 3,     // leader → replicas (PREPARE / PRE-PREPARE / HotStuff)
  kVote = 4,         // replica → leader
  kQcNotice = 5,     // leader → replicas: a formed QC (COMMIT msg, DECIDE…)
  kViewChange = 6,   // replica → new leader (Marlin VC / HotStuff NEW-VIEW)
  kFetchRequest = 7, // ask a peer for a block body
  kFetchResponse = 8,
  kSnapshotRequest = 9,   // far-behind replica asks for a checkpoint
  kSnapshotResponse = 10, // manifest + chain suffix in one exchange
  kTimeoutNotice = 11,    // pacemaker: "my timer expired in view v"
};

/// Phase tag on proposals/votes/QC notices. Mapped per protocol:
/// Marlin uses {PrePrepare, Prepare, Commit, Decide};
/// HotStuff uses {Prepare, PreCommit, Commit, Decide}.
enum class Phase : std::uint8_t {
  kPrePrepare = 0,
  kPrepare = 1,
  kPreCommit = 2,
  kCommit = 3,
  kDecide = 4,
};

const char* phase_name(Phase p);

/// One or more operations submitted together. Clients coalesce requests
/// issued at the same instant into one frame (wire bytes are unchanged —
/// it is plain concatenation — but simulator event counts stay bounded).
struct ClientRequestMsg {
  std::vector<Operation> ops;

  void encode(Writer& w) const;
  static Result<ClientRequestMsg> decode(Reader& r);
};

/// Reply for all of one client's operations committed by one block. The
/// simulation batches per-(client, block) to bound event counts; `padding`
/// keeps the wire size equal to one reply-sized message per request (the
/// paper's replies are 150 B each), so the bandwidth model is unchanged.
struct ClientReplyMsg {
  ClientId client = 0;
  ReplicaId replica = 0;
  ViewNumber view = 0;
  Height height = 0;          // height of the committing block
  std::vector<RequestId> requests;
  Bytes result;               // execution result digest (same on all correct)
  Bytes padding;              // sizes the message as |requests| real replies

  void encode(Writer& w) const;
  static Result<ClientReplyMsg> decode(Reader& r);
};

/// One proposed block plus the message-level justify (which, unlike the
/// block's own justify, may be the (qc, vc) pair validating a virtual
/// block's pre-prepareQC).
struct ProposalEntry {
  Block block;
  Justify justify;
  /// Not on the wire: a leader's own proposal back over loopback is not
  /// decoded, but points at the block in its store (`block` stays empty).
  const Block* stored = nullptr;
  const Block& proposed() const { return stored ? *stored : block; }
};

struct ProposalMsg {
  Phase phase = Phase::kPrepare;
  ViewNumber view = 0;
  std::vector<ProposalEntry> entries;  // 1 or 2 (two only in PRE-PREPARE)

  /// With `slices`, both record each entry's BlockSlices.
  void encode(Writer& w, std::vector<BlockSlices>* slices = nullptr) const;
  static Result<ProposalMsg> decode(
      Reader& r, std::vector<BlockSlices>* slices = nullptr);

  /// Wire size (shadow sharing accounted).
  std::size_t wire_size() const;
};

struct VoteMsg {
  Phase phase = Phase::kPrepare;
  ViewNumber view = 0;
  Hash256 block_hash;
  crypto::PartialSig parsig;
  /// R2 votes attach the voter's lockedQC so the leader can learn the
  /// higher prepareQC `vc` (paper Fig. 9, Case R2).
  std::optional<QuorumCert> locked_qc;

  void encode(Writer& w) const;
  static Result<VoteMsg> decode(Reader& r);
};

struct QcNoticeMsg {
  Phase phase = Phase::kCommit;  // which step this QC drives
  ViewNumber view = 0;
  QuorumCert qc;
  /// For a PREPARE re-broadcast of a virtual block: the validating vc.
  std::optional<QuorumCert> aux;

  void encode(Writer& w) const;
  static Result<QcNoticeMsg> decode(Reader& r);
};

struct ViewChangeMsg {
  ViewNumber view = 0;  // the view being started
  BlockRef last_voted;  // lb
  Justify high_qc;      // highQC (one or two QCs)
  crypto::PartialSig parsig;  // partial sig over the happy-path digest

  void encode(Writer& w) const;
  static Result<ViewChangeMsg> decode(Reader& r);
};

/// Catch-up request: "send me the bodies on the path from `block_hash`
/// down to height `since` (exclusive)". The provider answers with up to
/// kFetchBatchLimit FetchResponse messages, newest first.
struct FetchRequestMsg {
  Hash256 block_hash;
  Height since = 0;

  static constexpr std::uint32_t kFetchBatchLimit = 64;

  void encode(Writer& w) const;
  static Result<FetchRequestMsg> decode(Reader& r);
};

struct FetchResponseMsg {
  Block block;

  void encode(Writer& w) const;
  static Result<FetchResponseMsg> decode(
      Reader& r, std::vector<BlockSlices>* slices = nullptr);
};

/// State-transfer request from a recovering or far-behind replica:
/// "send me your checkpoint manifest and the chain suffix above height
/// `since`". One request yields one SnapshotResponse — O(1) rounds, not
/// O(gap / kFetchBatchLimit) fetch rounds.
struct SnapshotRequestMsg {
  Height since = 0;

  void encode(Writer& w) const;
  static Result<SnapshotRequestMsg> decode(Reader& r);
};

/// Checkpoint manifest (committed height + head digest) plus the block
/// bodies from the head down toward the requester's `since`, newest
/// first. The suffix stops early at bodies the provider has already
/// released, and is capped at kSuffixLimit blocks and at about
/// kSuffixBytes of op payload per exchange. The byte cap keeps one
/// response inside one frame (wire::kMaxFramePayload) and one metal
/// egress queue with room to spare; without it, a retained window of
/// large ops made a response that the sender's queue could never take.
struct SnapshotResponseMsg {
  Height height = 0;   // provider's committed height (manifest)
  Hash256 head;        // provider's committed hash (chain digest)
  std::vector<Block> suffix;  // newest first

  static constexpr std::uint32_t kSuffixLimit = 4096;
  static constexpr std::size_t kSuffixBytes = 32u << 20;

  void encode(Writer& w) const;
  static Result<SnapshotResponseMsg> decode(
      Reader& r, std::vector<BlockSlices>* slices = nullptr);
};

/// Pacemaker view synchronization (broadcast): the sender's view timer
/// expired in `view`. A replica advances past a view only when f+1
/// distinct replicas are known to have timed out of it (or the protocol's
/// own view-change evidence arrives) — a lone fast clock can no longer run
/// ahead of the pack and strand the cluster one view apart. Quadratic in
/// the pacemaker, as in deployed HotStuff-family systems; the protocol's
/// view-change certificates stay linear.
struct TimeoutNoticeMsg {
  ViewNumber view = 0;

  void encode(Writer& w) const;
  static Result<TimeoutNoticeMsg> decode(Reader& r);
};

/// Top-level frame: [u8 kind][body], held whole as one shared Payload.
/// make_envelope encodes the kind byte and the body into a single buffer,
/// parse() wraps a received frame without copying it, and serialize()
/// hands that same buffer back (a refcount bump). A frame therefore
/// crosses sender host, transport, receiver host and protocol with no byte
/// copies; the only copies left are the ones decoding makes.
class Envelope {
 public:
  MsgKind kind() const { return kind_; }
  /// The message body: a view into the frame, valid while the envelope (or
  /// any Payload sharing its frame) lives.
  BytesView body() const { return frame_.view().subspan(1); }
  /// The wire frame; shares this envelope's buffer.
  Payload serialize() const { return frame_; }
  static Result<Envelope> parse(Payload frame);

 private:
  template <typename M>
  friend Envelope make_envelope(MsgKind kind, const M& msg);
  Envelope(MsgKind kind, Payload frame)
      : kind_(kind), frame_(std::move(frame)) {}

  MsgKind kind_;
  Payload frame_;
};

/// Helpers to build/open envelopes for any message type above.
template <typename M>
Envelope make_envelope(MsgKind kind, const M& msg) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(kind));
  msg.encode(w);
  return Envelope(kind, Payload(std::move(w).take()));
}

template <typename M>
Result<M> open_envelope(const Envelope& env) {
  return decode_from_bytes<M>(env.body());
}

}  // namespace marlin::types
