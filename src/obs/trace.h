// Structured protocol event tracing. A TraceSink is a fixed-capacity ring
// buffer of typed, fixed-size events stamped with a sequence number and the
// simulation clock. Every layer of the stack (consensus, simnet, storage,
// runtime) records into the same sink, so a trace is a single totally
// ordered story of a run — and, because the simulator is deterministic,
// two runs with the same seed produce byte-identical traces (the golden
// determinism property tests assert on).
//
// The event taxonomy and the meaning of the generic `a`/`b` operands per
// type are documented in docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"

namespace marlin::obs {

enum class EventType : std::uint8_t {
  kProposalSent = 0,   // leader broadcast a proposal (a = ops in batch)
  kProposalReceived,   // replica accepted a proposal (a = sender)
  kVoteSent,           // replica voted (a = vote recipient)
  kVoteReceived,       // leader received a vote (a = sender, b = votes so far)
  kQcFormed,           // quorum reached (phase = QC phase)
  kPhaseTransition,    // leader drives the instance into `phase`
  kCommit,             // block delivered (a = executed ops, b = total ops)
  kViewEntered,        // replica entered view `view`
  kViewChangeStart,    // replica actively joined a view change (sent VC/NV)
  kViewChangeEnd,      // new leader resolved the VC (a = 1 happy, 0 unhappy)
  kTimeoutFired,       // pacemaker view timer expired
  kMsgSent,            // wire send (kind set; a = bytes, b = authenticators)
  kMsgDropped,         // network dropped a send (a = dest, b = reason)
  kWalWrite,           // WAL append (a = record bytes)
  kSstableWrite,       // memtable flush / compaction output (a = bytes, b = entries)
  kCheckpoint,         // storage checkpoint ran (a = tables merged)
  kSigVerify,          // signature verification charged (a = count, b = 1 if pairing, c = charge ns)
  kMsgDelivered,       // network dequeued a frame at the receiver (kind set;
                       // a = sender, b = NIC/link queueing ns, c = total transit ns)
  kClientSubmit,       // client issued a new request (a = request id, b = client id)
  kReplyAccepted,      // client reached its reply quorum (block = committed
                       // block id from the reply; a = request id, b = client id)
  kBatchDequeued,      // leader drained a proposal batch from its txpool
                       // (a = ops in batch, b = oldest op's pool wait ns)
  kFaultInjected,      // fault controller executed a plan action (node =
                       // resolved target replica or kNoNode, a = FaultKind,
                       // b = index of the action in its plan)
  kReplicaRestart,     // replica rebuilt itself from disk (a = 1 if the DB
                       // was wiped first, b = WAL records replayed,
                       // height = restored committed height)
  kStateTransfer,      // snapshot state transfer step (a = 0 request sent,
                       // 1 snapshot served, 2 snapshot applied, 3 amnesia
                       // recovery complete; b = suffix blocks; height =
                       // manifest committed height; on a = 2, c = heights
                       // fast-forwarded over without delivery)
  kCount,              // sentinel — number of event types
};

inline constexpr std::size_t kEventTypeCount =
    static_cast<std::size_t>(EventType::kCount);
// The per-type enable filter is a 64-bit mask; growing the taxonomy past
// that needs a wider representation, not a silent shift overflow.
static_assert(kEventTypeCount <= 64);

/// Stable snake_case name used by the JSONL exporter and trace_inspect.
const char* event_type_name(EventType t);

/// Inverse of event_type_name; returns kCount for unknown names.
EventType event_type_from_name(std::string_view name);

/// Phase names for the `phase` field. Values mirror types::Phase (a wire
/// constant); obs keeps its own table so it depends only on common/.
const char* trace_phase_name(std::uint8_t phase);

inline constexpr std::uint32_t kNoNode = 0xffffffffu;
inline constexpr std::uint8_t kNoPhase = 0xff;

/// kMsgDropped reasons (the `b` operand).
inline constexpr std::uint64_t kDropFilter = 0;  // partition / filter
inline constexpr std::uint64_t kDropRandom = 1;  // loss model
inline constexpr std::uint64_t kDropFault = 2;   // injected drop-burst window
inline constexpr std::uint64_t kDropBackpressure = 3;  // realnet egress cap
inline constexpr std::uint64_t kDropPeerDown = 4;  // realnet link down

struct TraceEvent {
  std::uint64_t seq = 0;        // assigned by the sink, dense and monotonic
  TimePoint at = TimePoint{};   // sink clock at record time
  std::uint32_t node = kNoNode;
  EventType type = EventType::kCount;
  std::uint8_t phase = kNoPhase;  // types::Phase value when applicable
  std::uint8_t kind = 0;          // types::MsgKind byte for message events
  ViewNumber view = 0;
  Height height = 0;
  std::uint64_t block = 0;  // first 8 bytes of the block hash (0 = none)
  std::uint64_t a = 0;      // per-type operand (see taxonomy above)
  std::uint64_t b = 0;      // per-type operand
  std::uint64_t c = 0;      // per-type operand (durations/charges in ns)

  bool operator==(const TraceEvent&) const = default;
};

class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  explicit TraceSink(std::size_t capacity = kDefaultCapacity);

  /// Timestamps come from here (the simulation clock); unset = origin.
  void set_clock(std::function<TimePoint()> clock) {
    clock_ = std::move(clock);
  }

  /// Per-type filter; everything is enabled by default. Recording a
  /// disabled type is a no-op (one branch) and leaves no gap in the
  /// sequence numbering of the events that are kept.
  void set_enabled(EventType t, bool on);
  bool enabled(EventType t) const {
    return (disabled_mask_ & (1ull << static_cast<unsigned>(t))) == 0;
  }

  /// Stamps seq + time and stores the event (evicting the oldest past
  /// capacity). Returns the assigned sequence number.
  std::uint64_t record(TraceEvent e);

  /// Events in sequence order, oldest first (at most `capacity`).
  std::vector<TraceEvent> events() const;

  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Total record() calls that were stored (including since-evicted ones).
  std::uint64_t total_recorded() const { return next_seq_; }
  /// Stored events that have been evicted by the ring.
  std::uint64_t evicted() const { return next_seq_ - ring_.size(); }

  /// Drops all buffered events and restarts sequence numbering.
  void clear();

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;  // grows to capacity, then wraps at head_
  std::size_t head_ = 0;          // next overwrite position once full
  std::uint64_t next_seq_ = 0;
  std::uint64_t disabled_mask_ = 0;
  std::function<TimePoint()> clock_;
};

/// How merge_traces numbers the events it merges.
enum class MergedSeq : std::uint8_t {
  kDense,    // 0..N-1 in merge order, whatever the sink partition
  kPerSink,  // each sink's own seq
};

/// The one cluster-level trace read: the events of `sinks` in (at, node,
/// seq) order. A node records into one sink, whose seq orders its
/// same-instant events; control-lane kNoNode events sort last at equal
/// times. A single sink comes back exactly as recorded (the single-queue
/// simulator's golden order).
std::vector<TraceEvent> merge_traces(const std::vector<const TraceSink*>& sinks,
                                     MergedSeq seq = MergedSeq::kDense);
/// Events the rings of `sinks` evicted (lost from merge_traces).
std::uint64_t evicted_events(const std::vector<const TraceSink*>& sinks);

}  // namespace marlin::obs
