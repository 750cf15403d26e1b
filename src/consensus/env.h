// Boundary between a protocol state machine (Marlin / HotStuff) and the
// world it runs in. The protocol is a pure, deterministic event handler:
// messages and timeouts come in through method calls, and every externally
// visible effect goes out through this interface. runtime::ReplicaHost
// implements it once for both backends (the simulator charges virtual CPU
// for the costs the protocol reports; metal only counts them); unit tests
// implement it with plain vectors.
#pragma once

#include "common/ids.h"
#include "common/sim_time.h"
#include "consensus/persistent_state.h"
#include "obs/trace.h"
#include "types/messages.h"

namespace marlin::consensus {

/// A unit of work a host prices, reported with a count. The protocol
/// reports the first group; runtime::ReplicaHost adds the second for its
/// own work. On the simulator each maps to the crypto / storage cost models.
enum class Cost : std::uint8_t {
  kSign,           // conventional signatures
  kVerify,         // conventional signature checks
  kHashBytes,      // bytes hashed (count = bytes)
  kPairing,        // pairing-based threshold instantiation
  kThresholdSign,  // threshold signature shares
  kCombineShare,   // shares combined into a threshold signature
  // Host work.
  kSerializeBytes,  // wire bytes encoded or decoded
  kExecuteOps,      // committed requests executed
  kStorageWrite,    // one KV record written (count = its bytes)
  kStorageReads,    // KV records read back (recovery replay)
  kCheckpoint,      // one checkpoint (count = blocks since the last)
};

class ProtocolEnv {
 public:
  virtual ~ProtocolEnv() = default;

  /// Structured event trace the protocol records into, or nullptr when the
  /// host is not tracing (unit-test envs). Protocols must tolerate null.
  virtual obs::TraceSink* trace_sink() { return nullptr; }

  /// Time of the event being handled on the host's clock (simulated or
  /// monotonic); origin outside a timed host (unit-test envs). Used only
  /// for observability (txpool wait attribution), never for protocol
  /// decisions.
  virtual TimePoint now() const { return TimePoint::origin(); }

  /// Point-to-point send to another replica (authenticated channel).
  virtual void send(ReplicaId to, const types::Envelope& env) = 0;
  /// Send to every replica except self.
  virtual void broadcast(const types::Envelope& env) = 0;

  /// A block is committed. Called in chain order, exactly once per block.
  /// `executable` points at the block's operations (in `block.ops`) that
  /// have NOT been executed before (exactly-once SMR semantics: a request
  /// that slipped into two blocks — e.g. re-proposed after a view change or
  /// a client retransmit — executes only the first time). The pointers are
  /// valid for the call. The runtime executes them, persists, and replies
  /// to clients.
  virtual void deliver(
      const types::Block& block,
      const std::vector<const types::Operation*>& executable) = 0;

  /// The replica moved to view `v` (timeout, or view sync). The pacemaker
  /// restarts its view timer.
  virtual void entered_view(ViewNumber v) = 0;

  /// Consensus progress was made in the current view (a block committed);
  /// the pacemaker resets its timeout backoff.
  virtual void progressed() = 0;

  /// Write-ahead-voting hook: the protocol's durable state changed and
  /// must be flushed to stable storage before any message sent later in
  /// this handler leaves the host. The simulation runtime writes it
  /// through the KVStore WAL and charges the storage cost model; unit
  /// test envs may record or ignore it.
  virtual void persist_state(const PersistentState& state) { (void)state; }

  /// Cost accounting: `count` units of `cost` were just performed.
  virtual void charge(Cost cost, std::uint64_t count) {
    (void)cost;
    (void)count;
  }
};

}  // namespace marlin::consensus
