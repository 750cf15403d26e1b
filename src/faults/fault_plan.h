// Declarative fault plans: a timeline of fault actions executed against a
// simulated cluster by a FaultController (a metal cluster runs the crash
// and restart actions through realnet::MetalDeployment). A plan is plain
// data — it can be written by hand as JSON (`marlin_run --backend=sim
// --faults plan.json`), generated randomly from a seed (chaos.h),
// round-tripped losslessly, and replayed deterministically: the same (seed,
// plan) pair always produces the same run, byte for byte.
//
// Action vocabulary (docs/FAULTS.md documents the JSON schema):
//   crash / crash_leader / recover   — crash-stop faults, id or "whoever
//                                      leads when the action fires"
//   partition / heal                 — bidirectional replica group splits
//   silence                          — directional: a replica's messages
//                                      reach only an allow-listed set (the
//                                      paper's QC-hiding leader)
//   drop_burst / slow_links          — windows of random loss / added
//                                      one-way delay on every link
//   gst                              — delayed global stabilization time:
//                                      the network is asynchronous (extra
//                                      delay + loss) until `at`
//   byzantine                        — switch a replica's outbound wire
//                                      behaviour to a ByzantineMode
//   restart / wipe_disk              — true crash-recovery: the replica
//                                      goes down at `at` and revives after
//                                      `duration` from its persisted state
//                                      (restart) or from an empty DB that
//                                      must catch up via state transfer
//                                      (wipe_disk / amnesia)
#pragma once

#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "faults/byzantine.h"

namespace marlin::faults {

enum class FaultKind : std::uint8_t {
  kCrash = 0,
  kCrashLeader,  // resolves the current leader when the action fires
  kRecover,
  kPartition,
  kHeal,       // clears partitions and silences
  kSilence,    // replica's sends reach only `allowed` (directional)
  kDropBurst,  // window of extra random loss on all links
  kSlowLinks,  // window of extra one-way delay on all links
  kGst,        // asynchronous (pre-GST chaos) until `at`
  kByzantine,  // switch a replica's ByzantineMode
  kRestart,    // crash, then revive from disk after `duration`
  kWipeDisk,   // crash, wipe the DB, revive amnesiac after `duration`
};

/// Stable snake_case name ("crash_leader", ...), used by the JSON schema
/// and the fault_injected trace event.
const char* fault_kind_name(FaultKind k);

struct FaultAction {
  FaultKind kind = FaultKind::kCrash;
  /// When the action fires, relative to simulation origin. For kGst this
  /// *is* the GST: chaos applies before it, bounds hold after.
  Duration at = Duration::zero();
  /// Target replica (kCrash / kRecover / kSilence / kByzantine).
  ReplicaId replica = 0;
  /// kPartition: replica groups; members of different groups cannot
  /// exchange messages. Replicas not listed join the first group.
  std::vector<std::vector<ReplicaId>> groups;
  /// kSilence: destinations the silenced replica may still reach.
  std::vector<ReplicaId> allowed;
  /// kDropBurst: loss probability; kGst: pre-GST loss probability.
  double probability = 0.0;
  /// kSlowLinks: added one-way delay; kGst: max pre-GST extra delay.
  Duration extra_delay = Duration::zero();
  /// kDropBurst / kSlowLinks: window length (the fault clears at
  /// `at + duration`). kRestart / kWipeDisk: down time before the replica
  /// revives from disk.
  Duration duration = Duration::zero();
  /// kByzantine: the mode to install (kHonest reverts the replica).
  ByzantineMode mode = ByzantineMode::kHonest;

  bool operator==(const FaultAction&) const = default;

  // -- factories (keep call sites declarative) ------------------------------
  static FaultAction crash(Duration at, ReplicaId r);
  static FaultAction crash_leader(Duration at);
  static FaultAction recover(Duration at, ReplicaId r);
  static FaultAction partition(Duration at,
                               std::vector<std::vector<ReplicaId>> groups);
  static FaultAction heal(Duration at);
  static FaultAction silence(Duration at, ReplicaId r,
                             std::vector<ReplicaId> allowed);
  static FaultAction drop_burst(Duration at, double probability,
                                Duration duration);
  static FaultAction slow_links(Duration at, Duration extra_delay,
                                Duration duration);
  static FaultAction gst(Duration at, Duration extra_delay_max,
                         double probability);
  static FaultAction byzantine(Duration at, ReplicaId r, ByzantineMode mode);
  static FaultAction restart(Duration at, ReplicaId r, Duration down_for);
  static FaultAction wipe_disk(Duration at, ReplicaId r, Duration down_for);
};

struct FaultPlan {
  std::string name;
  std::vector<FaultAction> actions;

  bool empty() const { return actions.empty(); }

  /// Earliest instant after which no transient disruption remains active:
  /// every partition/silence healed, every drop/slow window over, GST
  /// passed, and every one-shot action fired. Persistent faults (≤ f
  /// crashes, Byzantine modes) do not block liveness and therefore do not
  /// extend quiesce. Liveness checks start here.
  Duration quiesce_time() const;

  /// Replicas that are down at the end of the plan (crashed, never
  /// recovered). kCrashLeader resolves at run time and is NOT counted —
  /// plans mixing crash_leader with liveness checks should budget for it.
  std::vector<ReplicaId> crashed_at_end() const;

  /// Pretty-printed JSON document (the schema in docs/FAULTS.md).
  std::string to_json() const;
  /// Parses a JSON plan; rejects unknown kinds/fields' types but ignores
  /// unknown keys (forward compatibility).
  static Result<FaultPlan> from_json(std::string_view json);

  bool operator==(const FaultPlan&) const = default;
};

}  // namespace marlin::faults
