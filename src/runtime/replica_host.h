// One replica's host: wires a consensus protocol instance (Marlin or
// HotStuff) to its store, its view timer, its clients and the wire. All
// host logic lives here, once, for both backends: protocol construction,
// restore from the persisted consensus state, block records and the
// checkpoint cadence, padded client replies, write-ahead voting, the
// view-timer policy, the Byzantine box and authenticator counting.
//
// A backend derives from this class and supplies only transport, clock
// and cost (the protected seam below, plus ProtocolEnv::now()):
//  * runtime::SimReplica — simnet links and the simulator's clock; its
//    cost sink is a virtual CPU that charges the crypto/storage cost
//    models and holds a step's sends until the step's charged time ends;
//  * realnet::RealReplica — a TcpTransport, the monotonic clock and the
//    timers of the node's EventLoop; wall time is real, so its cost sink
//    charges nothing (the host's counters still count).
//
// Write-ahead voting: persist_state() writes the consensus state before
// the protocol resumes and emits the dependent vote. If that write fails
// the host fail-stops: it sends nothing further, counts
// storage.pstate_write_failures and reports stopped().
#pragma once

#include <functional>
#include <memory>

#include "common/histogram.h"
#include "common/payload.h"
#include "common/scheduler.h"
#include "consensus/hotstuff.h"
#include "consensus/marlin.h"
#include "faults/byzantine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/pacemaker.h"
#include "runtime/protocol_kind.h"
#include "storage/kvstore.h"

namespace marlin::runtime {

struct ReplicaHostConfig {
  consensus::ReplicaConfig replica;
  ProtocolKind protocol = ProtocolKind::kMarlin;
  PacemakerConfig pacemaker;
  /// Checkpoint (compaction / GC) every this many committed blocks — the
  /// paper uses 5000.
  std::uint64_t checkpoint_interval = 5000;
  /// Reply wire bytes per committed request (paper: 150).
  std::size_t reply_size = 150;
  /// Node id of client #0; client c lives at node client_base + c.
  std::uint32_t client_base = 0;
  /// Event trace (shared or per node); nullptr disables tracing.
  obs::TraceSink* trace = nullptr;
  /// fsync the WAL on every write.
  bool sync_writes = false;
  /// TEST ONLY: skip the write-ahead-voting flush. Simulates a broken build
  /// that forgets durability — the cross-restart safety oracle must catch
  /// the resulting double votes. Never enable outside tests.
  bool disable_persistence = false;
};

/// Outgoing-authenticator counter (Table I instrumentation). Per-kind
/// message/byte breakdowns live in the wire-level NodeNetStats.
struct TrafficStats {
  std::uint64_t authenticators_sent = 0;

  void reset() { *this = TrafficStats{}; }
};

class ReplicaHost : public consensus::ProtocolEnv {
 public:
  // Timers and the protocol instance hold `this`.
  ReplicaHost(const ReplicaHost&) = delete;
  ReplicaHost& operator=(const ReplicaHost&) = delete;

  /// Opens the store in `env` and restores the persisted consensus state
  /// if there is one (a relaunch over surviving storage). A present but
  /// undecodable state is kCorruption: the replica stays dead rather than
  /// vote again from genesis. Backends call this once, from their own
  /// constructor, before start().
  Status open();

  /// Enters the protocol (arming the pacemaker) as one protocol step. After
  /// a restore, the step first accounts the recovery.
  void start();

  /// Crash-recovery in place: destroys the protocol instance (txpool, vote
  /// collectors, QC caches — all volatile state) and the view timer,
  /// resets the pacemaker, reopens the store (WAL replay + checkpoint),
  /// rebuilds the protocol from the persisted state and starts it. With
  /// `wipe` the disk is lost too (amnesia): the replica restarts from
  /// genesis state and catches up via state transfer. On a store or state
  /// error the replica stays dead (its last protocol state stays readable)
  /// and the error is returned.
  Status restart(bool wipe);

  /// One frame from node `from`: decodes it and hands it to the protocol.
  void handle_message(std::uint32_t from, Payload payload);

  // -- ProtocolEnv -----------------------------------------------------------
  void send(ReplicaId to, const types::Envelope& env) override;
  void broadcast(const types::Envelope& env) override;
  void deliver(
      const types::Block& block,
      const std::vector<const types::Operation*>& executable) override;
  void entered_view(ViewNumber v) override;
  void progressed() override;
  void persist_state(const consensus::PersistentState& state) override;
  obs::TraceSink* trace_sink() override { return config_.trace; }
  void charge(consensus::Cost cost, std::uint64_t count) override;

  // -- accessors / metrology -------------------------------------------------
  const ReplicaHostConfig& config() const { return config_; }
  consensus::ReplicaBase& protocol() { return *protocol_; }
  const consensus::ReplicaBase& protocol() const { return *protocol_; }
  consensus::MarlinReplica* marlin();
  ViewNumber current_view() const { return protocol_->current_view(); }

  WindowedCounter& committed_ops() { return committed_ops_; }
  const TrafficStats& traffic() const { return traffic_; }
  void reset_traffic() { traffic_.reset(); }
  /// Per-replica metrics (cost counters, commit counters, storage and
  /// recovery counters). The clusters aggregate these.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  /// Count authenticators per outgoing message (reads the certificates of
  /// every send, once per broadcast; used by the Table I bench).
  void set_count_authenticators(bool on) { count_authenticators_ = on; }

  /// Routes every outgoing envelope through a faults::ByzantineBox from now
  /// on (kHonest reverts). The local state machine stays honest — only the
  /// wire behaviour changes.
  void set_byzantine_mode(faults::ByzantineMode mode) {
    byzantine_.set_mode(mode);
  }
  faults::ByzantineMode byzantine_mode() const { return byzantine_.mode(); }
  const faults::ByzantineBox& byzantine() const { return byzantine_; }

  /// True when open() restored a state persisted by an earlier incarnation.
  bool recovered() const { return recovered_; }
  /// Committed height the last open() restored (0 on a fresh start).
  Height restored_height() const { return restored_height_; }
  /// True after the store failed under the host (open or pstate write):
  /// the replica is dead and sends nothing.
  bool stopped() const { return stopped_; }
  std::uint64_t checkpoints_run() const { return checkpoints_run_; }
  std::uint64_t restarts() const { return restarts_; }
  /// The replica's storage environment. Recovery tests reach through this
  /// to corrupt the on-disk state before calling restart().
  storage::Env& db_env() { return *db_env_; }

  /// The current view's timeout (backoff included).
  Duration view_timeout() const { return pacemaker_.view_timeout(); }
  /// Last time this replica entered a new view.
  TimePoint last_view_entry() const { return last_view_entry_; }
  /// Last sign of life: start, a view entry, a commit or a timer fire.
  TimePoint last_activity() const { return last_activity_; }
  /// First commit observed since the last view entry (valid iff
  /// committed_in_current_view()).
  TimePoint first_commit_in_view() const { return first_commit_in_view_; }
  bool committed_in_current_view() const { return commit_seen_in_view_; }

 protected:
  ReplicaHost(const crypto::SignatureSuite& suite, ReplicaHostConfig config,
              std::unique_ptr<storage::Env> env);

  // -- the backend seam: transport, timers and cost --------------------------
  /// Puts one frame on the wire to node `to` (a replica or a client).
  virtual void transmit(std::uint32_t to, Payload wire) = 0;
  /// Timers, scheduled at now() + delay on the backend's clock.
  virtual marlin::Scheduler& timers() = 0;
  /// Cost sink: takes `count` units of `cost` and returns the time charged
  /// for them (modeled CPU on the simulator, zero on metal).
  virtual Duration spend(consensus::Cost cost, std::uint64_t count) = 0;
  /// Runs one host-initiated protocol step (start, a timer's protocol
  /// call) the way the backend runs its ingress: on the simulator as a
  /// task of the virtual CPU, on metal inline.
  virtual void run_step(std::function<void()> step) = 0;

 private:
  void make_protocol();
  void arm_view_timer();
  /// Leaves the replica dead after a failed open or restart.
  Status recovery_failed(Status s);
  /// Fail-stop after a failed state write.
  void stop();
  /// Counts, traces and transmits one replica frame (env's own buffer)
  /// carrying `authenticators`.
  void send_wire(ReplicaId to, const types::Envelope& env,
                 std::uint32_t authenticators);
  /// Authenticators in env when counting is on (else 0).
  std::uint32_t authenticators_in(const types::Envelope& env) const;
  std::uint32_t count_authenticators(const types::Envelope& env) const;

  /// Records into the sink with this replica's node id stamped.
  void trace(obs::TraceEvent e) {
    if (config_.trace) {
      e.node = config_.replica.id;
      config_.trace->record(e);
    }
  }

  const crypto::SignatureSuite& suite_;
  ReplicaHostConfig config_;

  std::unique_ptr<consensus::ReplicaBase> protocol_;
  std::unique_ptr<storage::Env> db_env_;
  std::unique_ptr<storage::KVStore> db_;

  Pacemaker pacemaker_;
  TimerHandle view_timer_;

  bool recovered_ = false;
  bool stopped_ = false;
  /// The next start() follows a restore or restart (and, with wiped_, an
  /// amnesia restart).
  bool recovering_start_ = false;
  bool wiped_ = false;
  Height restored_height_ = 0;

  std::uint64_t blocks_since_checkpoint_ = 0;
  std::uint64_t checkpoints_run_ = 0;
  std::uint64_t restarts_ = 0;
  WindowedCounter committed_ops_;
  faults::ByzantineBox byzantine_;
  TrafficStats traffic_;
  obs::MetricsRegistry metrics_;
  bool count_authenticators_ = false;
  TimePoint last_view_entry_;
  TimePoint last_activity_;
  TimePoint first_commit_in_view_;
  bool commit_seen_in_view_ = false;
};

}  // namespace marlin::runtime
