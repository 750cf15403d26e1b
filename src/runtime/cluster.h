// Full simulated deployment: n replicas + m closed-loop clients over one
// simnet Network, sharing a signature suite, with an optional declarative
// fault plan executed by a faults::FaultController. This is the testbed
// every integration test, example, and benchmark drives.
#pragma once

#include <memory>
#include <vector>

#include "faults/fault_controller.h"
#include "runtime/sim_host.h"
#include "simnet/sharded.h"

namespace marlin::runtime {

/// Protocol-level knobs applied uniformly to every replica.
struct ConsensusConfig {
  ProtocolKind protocol = ProtocolKind::kMarlin;
  PacemakerConfig pacemaker;
  std::size_t max_batch_ops = 4000;
  bool pipelined = true;
  bool allow_empty_blocks = false;
  bool disable_happy_path = false;
  bool use_threshold_sigs = false;
  std::uint64_t checkpoint_interval = 5000;
  std::size_t reply_size = 150;
  /// TEST ONLY: disable the write-ahead-voting durability hook on every
  /// replica (simulates a broken build; the cross-restart safety oracle
  /// must catch the resulting double votes).
  bool disable_persistence = false;
};

/// Workload knobs applied uniformly to every closed-loop client.
struct ClientConfig {
  std::uint32_t count = 8;
  std::uint32_t window = 16;
  std::size_t payload_size = 150;
  Duration retransmit_timeout = Duration::seconds(4);
  /// Stop issuing new requests after this many per client (0 = unlimited).
  std::uint64_t max_requests = 0;
};

struct ClusterConfig {
  std::uint32_t f = 1;
  std::uint64_t seed = 42;

  ConsensusConfig consensus;
  ClientConfig clients;
  sim::NetConfig net;
  crypto::CostModel crypto_costs;
  storage::CostModel storage_costs;

  /// Declarative fault timeline, armed at start(). Empty = fault-free run.
  faults::FaultPlan faults;

  /// Shared protocol event trace for all replicas, the network, and
  /// storage. The cluster binds its clock to the simulator. Optional.
  obs::TraceSink* trace = nullptr;
  /// Count outgoing authenticators per replica (decodes every send; used
  /// by the Table I bench and metric snapshots that cross-check it).
  bool count_authenticators = false;
};

// -- host wiring shared by both backends' clusters ---------------------------

/// Replica `id`'s host configuration: the consensus knobs, with clients at
/// node ids n.. (trace and backend fields left to the caller).
ReplicaHostConfig replica_host_config(const ClusterConfig& config,
                                      ReplicaId id);
ClientProcessConfig client_process_config(const ClusterConfig& config,
                                          ClientId id);
/// The cluster's signature suite, shared by all its replicas on either
/// backend.
std::unique_ptr<crypto::SignatureSuite> make_suite(
    const ClusterConfig& config);
/// Client `c` starts this long after the replicas: staggered, because
/// synchronized closed-loop clients otherwise refill in lockstep
/// "generations" that quantize throughput measurements.
Duration client_start_delay(ClientId c);
/// Adds one replica's registry to a cluster-wide one: counters add and
/// histograms pool; gauges, meaningless summed, are also re-exported under
/// "replica=<id>".
void merge_replica_metrics(obs::MetricsRegistry& out,
                           const obs::MetricsRegistry& replica, ReplicaId id);

/// Client and safety metrology, written once for both backends' clusters
/// over the ReplicaHost and ClientProcess objects they hold. A backend
/// fills the two host tables and says which replicas count: a crashed
/// replica (network-down on the simulator, killed on metal) leaves the
/// metrology. On metal, call only while the cluster is stopped, except
/// correct_replicas().
class ClusterMetrology {
 public:
  /// Sets the throughput window on every client and replica counter.
  void set_measurement_window(TimePoint start, TimePoint end);
  /// Completed (f+1-acked) operations per second across all clients.
  double client_throughput() const;
  /// Aggregated client latency percentile (ms).
  double latency_ms(double percentile) const;
  double mean_latency_ms() const;
  /// Client operations completed inside the measurement window.
  std::uint64_t total_completed() const;
  /// Any replica, counted or not, detected a safety violation.
  bool any_safety_violation() const;
  /// All counted replicas agree on committed prefixes: the lower committed
  /// hash lies on the higher replica's chain.
  bool committed_heights_consistent() const;
  /// Lowest committed height among counted replicas (0 when none).
  Height min_committed_height() const;
  /// Highest view any counted replica is in.
  ViewNumber max_view() const;

  /// Replica i's host; null on metal while it has none (a failed build).
  const ReplicaHost* replica_host(ReplicaId i) const {
    return replica_hosts_[i];
  }
  /// Whether replica i enters the cross-replica checks: it has not
  /// crashed.
  virtual bool counted(ReplicaId i) const = 0;
  /// Replicas that must keep committing: counted, and honest on the wire.
  std::vector<ReplicaId> correct_replicas() const;

 protected:
  ~ClusterMetrology() = default;
  LatencyHistogram pooled_latency() const;

  std::vector<ReplicaHost*> replica_hosts_;  // by replica id
  std::vector<ClientProcess*> client_hosts_;  // by client id
};

class Cluster : public ClusterMetrology {
 public:
  Cluster(sim::Simulator& sim, ClusterConfig config);
  /// Partitioned-engine composition root: nodes bind to their home-shard
  /// schedulers and trace sinks, the control lane runs faults, network
  /// randomness splits per sender, and the shard heaps are pre-sized from
  /// the cluster's fanout. Requires engine.lookahead() <= net.one_way_delay
  /// (the conservative-window safety condition).
  Cluster(sim::ShardedSimulator& engine, ClusterConfig config);

  /// Arms the fault plan, then starts all replicas, then all clients.
  void start();

  std::uint32_t n() const { return config_.f * 3 + 1; }
  std::uint32_t f() const { return config_.f; }
  const ClusterConfig& config() const { return config_; }

  SimReplica& replica(ReplicaId i) { return *replicas_[i]; }
  const SimReplica& replica(ReplicaId i) const { return *replicas_[i]; }
  ClientProcess& client(ClientId i) { return *clients_[i]; }
  sim::Network& network() { return *net_; }
  std::size_t client_count() const { return clients_.size(); }

  /// Crash-stop a replica (it neither sends nor receives from now on).
  /// Prefer expressing faults in the config's FaultPlan; these imperative
  /// hooks remain for interactive exploration.
  void crash_replica(ReplicaId i) { net_->set_node_down(i, true); }
  /// Crash-and-revive from disk: rebuilds replica i's protocol instance
  /// from its persisted consensus state (WAL replay + checkpoint) and
  /// reconnects it. With `wipe`, the disk is erased first (amnesia) — the
  /// replica rejoins with empty state and catches up via state transfer.
  /// On a recovery error (e.g. corrupted store) the replica stays down.
  Status restart_replica(ReplicaId i, bool wipe = false);
  /// Switches a replica's outbound wire behaviour (kHonest reverts).
  void set_byzantine(ReplicaId i, faults::ByzantineMode mode) {
    replicas_[i]->set_byzantine_mode(mode);
  }

  /// The controller executing this run's fault plan (always present; a
  /// fault-free cluster simply holds an empty plan).
  const faults::FaultController& faults() const { return *faults_; }

  /// The leader of the highest view any live replica is currently in.
  ReplicaId current_leader() const;

  /// A crashed (network-down) replica is left out of the metrology.
  bool counted(ReplicaId i) const override {
    return !net_->is_down(static_cast<sim::NodeId>(i));
  }
  /// Cluster-wide metrics snapshot: per-replica registries merged
  /// additively (gauges re-labeled "replica=N"), aggregate client latency
  /// ("client.latency"), and per-node / per-kind network traffic.
  void export_metrics(obs::MetricsRegistry& out) const;

 private:
  /// How a cluster binds to an event engine. The composition root (the
  /// ctor taking a concrete engine) fills this in; everything downstream —
  /// processes, network, faults — sees only Scheduler&.
  struct EngineBinding {
    /// Control lane: fault actions, trace clock, anything that must not
    /// race shard execution. On the single-queue engine this is the
    /// simulator itself.
    marlin::Scheduler* control = nullptr;
    /// Home scheduler per node id (replicas 0..n-1, clients n..n+m-1).
    std::function<marlin::Scheduler*(sim::NodeId)> node_sched;
    /// Setup-time randomness source; forked in a fixed order (network
    /// first, then clients in id order) that the golden traces pin.
    Rng* setup_rng = nullptr;
    /// Per-node trace sink override (shard-local sinks), or null for the
    /// shared config trace.
    std::function<obs::TraceSink*(sim::NodeId)> node_trace;
    /// Give each network sender its own rng stream (required when senders
    /// run concurrently on the partitioned engine).
    bool per_sender_net_rng = false;
  };

  void build(const EngineBinding& engine);

  marlin::Scheduler* control_ = nullptr;
  std::function<marlin::Scheduler*(sim::NodeId)> sched_of_;
  ClusterConfig config_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<crypto::SignatureSuite> suite_;
  std::vector<std::unique_ptr<SimReplica>> replicas_;
  std::vector<std::unique_ptr<SimClient>> clients_;
  std::unique_ptr<faults::FaultController> faults_;
};

}  // namespace marlin::runtime
