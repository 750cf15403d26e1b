// Byzantine replica modes, modeled at the wire: a Byzantine replica runs
// the honest state machine but a ByzantineBox intercepts every outgoing
// envelope and mutates, replaces, or suppresses it per destination. This
// matches the simulation's crypto model (signer.h): FastSuite tags cannot
// be forged, so Byzantine behaviour is expressed as protocol-level
// misbehaviour — equivocation, silence, replay, and corrupted
// authenticators — exactly the adversary the paper's two-phase safety
// argument must survive.
//
// The box is shared by the replica host of both backends
// (runtime::ReplicaHost pipes its sends through it) and the unit-test
// harness (ProtocolHarness's bus), replacing the ad-hoc per-test fault
// hacks.
#pragma once

#include <optional>

#include "common/ids.h"
#include "types/messages.h"

namespace marlin::faults {

enum class ByzantineMode : std::uint8_t {
  kHonest = 0,
  /// A leader that sends conflicting PREPARE proposals: odd-id peers
  /// receive a block with a tampered batch (different hash, same height
  /// and justify) — the paper's equivocating-leader attack.
  kEquivocate,
  /// Never sends votes (view-change messages still flow, so the replica
  /// stalls quorums without stalling view synchronization).
  kSilentVoter,
  /// Sends its first vote honestly, then replays that stale vote in place
  /// of every later one — a liveness drag that exercises the leader's
  /// handling of outdated vote digests.
  kStaleVoteReplayer,
  /// Votes carry a corrupted partial signature; correct leaders must
  /// reject them without counting.
  kInvalidSigSender,
};

/// Stable snake_case name ("equivocate", ...), used by plan JSON.
const char* byzantine_mode_name(ByzantineMode m);
/// Inverse of byzantine_mode_name; nullopt for unknown names.
std::optional<ByzantineMode> byzantine_mode_from_name(std::string_view name);

/// Per-replica outbound interceptor. Stateless for most modes; the stale
/// replayer keeps the first vote it saw.
class ByzantineBox {
 public:
  void set_mode(ByzantineMode m) { mode_ = m; }
  ByzantineMode mode() const { return mode_; }
  bool active() const { return mode_ != ByzantineMode::kHonest; }

  /// Result of intercepting one outgoing envelope. `out` is what goes on
  /// the wire (nullopt = suppress the send); `mutated` is true iff `out`
  /// differs from the input — the copy-on-write signal that lets a
  /// broadcast keep sharing one serialized buffer for every destination the
  /// box left alone.
  struct WireEffect {
    std::optional<types::Envelope> out;
    bool mutated = false;
  };

  /// Applies the mode to one outgoing envelope addressed to `to` (`self` is
  /// the Byzantine replica's own id).
  WireEffect transform_wire(const types::Envelope& env, ReplicaId self,
                            ReplicaId to);

  /// Convenience wrapper: just the wire envelope (or nullopt to suppress).
  std::optional<types::Envelope> transform(const types::Envelope& env,
                                           ReplicaId self, ReplicaId to) {
    return transform_wire(env, self, to).out;
  }

  /// Envelopes mutated or suppressed so far (observability).
  std::uint64_t interventions() const { return interventions_; }

 private:
  ByzantineMode mode_ = ByzantineMode::kHonest;
  std::optional<types::Envelope> stale_vote_;
  std::uint64_t interventions_ = 0;
};

}  // namespace marlin::faults
