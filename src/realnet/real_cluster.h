// Full real-socket deployment on localhost: n replicas + m closed-loop
// clients, each a TcpTransport + EventLoop on its own thread, speaking
// length-prefixed frames over 127.0.0.1 TCP. Reuses runtime::ClusterConfig
// so a sim experiment and a metal run share one description (the simnet
// NetConfig latency model does not apply here; the fault plan's crash and
// restart actions run through MetalDeployment, which injects them with
// kill_replica/relaunch_replica).
//
// Construction happens entirely on the calling thread: every node's
// listener is pre-bound (ephemeral ports) so the full endpoint table
// exists before any node thread spawns. start() launches the threads;
// stop() drains egress queues, stops the loops, and joins. The client and
// safety metrology is runtime::ClusterMetrology's, shared with the
// simulator's Cluster; a killed replica leaves it until relaunched, as a
// crashed one does on the simulator. Metrology
// accessors are safe only while the cluster is stopped (construction→start
// or after stop()) — node state belongs to node threads in between.
#pragma once

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "crypto/signer.h"
#include "obs/telemetry_server.h"
#include "realnet/real_replica.h"
#include "runtime/client_process.h"
#include "runtime/cluster.h"

namespace marlin::realnet {

struct RealClusterOptions {
  /// Base directory for replica stores ("<dir>/r<i>"); empty = in-memory
  /// (no kill+relaunch durability).
  std::string data_dir;
  /// fsync WAL writes (real crash-consistency at real fsync cost).
  bool sync_writes = false;
  /// Per-node event tracing into private sinks (merged_trace_events()).
  bool trace = false;
  std::size_t trace_capacity = obs::TraceSink::kDefaultCapacity;
  /// Serve live GET /metrics, /status, /healthz per replica (127.0.0.1,
  /// on the replica's own loop thread — no extra threads).
  bool telemetry = false;
  /// Fixed telemetry ports: replica i listens on telemetry_base_port + i.
  /// 0 = ephemeral ports (read them back via telemetry_port(i)).
  std::uint16_t telemetry_base_port = 0;
};

class RealCluster : public runtime::ClusterMetrology {
 public:
  explicit RealCluster(runtime::ClusterConfig config,
                       RealClusterOptions options = {});
  ~RealCluster();

  RealCluster(const RealCluster&) = delete;
  RealCluster& operator=(const RealCluster&) = delete;

  /// Construction result (listener binds, store opens). Do not start() a
  /// cluster whose ok() failed.
  Status ok() const { return init_status_; }

  std::uint32_t n() const { return 3 * config_.f + 1; }
  std::uint32_t f() const { return config_.f; }
  std::uint32_t client_count() const { return config_.clients.count; }
  const runtime::ClusterConfig& config() const { return config_; }

  /// Spawns every node thread, starts replicas, then staggered clients.
  void start();
  /// Drains egress, stops loops, joins threads. Idempotent.
  void stop();
  bool running() const { return running_; }

  // -- crash faults ----------------------------------------------------------
  /// Hard-stops replica i: its loop halts, every socket closes (peers see
  /// resets). With a data_dir, the store survives for relaunch.
  void kill_replica(ReplicaId i);
  /// Rebuilds replica i over its surviving data dir (restore-from-disk) on
  /// the same port and rejoins it to the cluster (peers redial lazily).
  Status relaunch_replica(ReplicaId i);
  bool replica_alive(ReplicaId i) const;
  /// A killed replica leaves the metrology until a relaunch succeeds; its
  /// final state stays readable through replica().
  bool counted(ReplicaId i) const override {
    return !nodes_[i].killed && replica_hosts_[i] != nullptr;
  }

  // -- metrology (stopped cluster only, unless noted) ------------------------
  RealReplica& replica(ReplicaId i) { return *nodes_[i].replica; }
  runtime::ClientProcess& client(ClientId i) {
    return *nodes_[n() + i].client;
  }
  /// Wire stats for node id (replicas then clients) — safe after stop().
  const net::NodeNetStats& node_stats(std::uint32_t id) const;
  /// Node id's transport (drain/shutdown assertions) — safe after stop().
  TcpTransport& transport(std::uint32_t id) { return *nodes_[id].transport; }

  /// Every node's trace ring, by node id; empty when options.trace is off.
  std::vector<const obs::TraceSink*> trace_sinks() const;
  /// obs::merge_traces over trace_sinks(), keeping each node's own seq:
  /// perfbench finds a wrapped ring by a first seq above 0. Empty when
  /// tracing is off.
  std::vector<obs::TraceEvent> merged_trace_events() const;

  // -- live telemetry --------------------------------------------------------
  /// Replica i's telemetry port (0 when options.telemetry is off). Valid
  /// after construction; stable across relaunch. A killed replica keeps
  /// its port number but stops answering until relaunched.
  std::uint16_t telemetry_port(ReplicaId i) const {
    return nodes_[i].telemetry_port;
  }

  /// Live cluster-wide metrics snapshot, safe WHILE RUNNING: posts a copy
  /// task onto every live node's loop and merges the results exactly like
  /// runtime::Cluster::export_metrics (counters add, gauges re-exported
  /// per-replica, client latency pooled) so sim and realnet series share a
  /// schema. Replicas that fail to respond within `patience` (wedged loop)
  /// are skipped. Also callable on a stopped cluster (reads directly).
  obs::MetricsRegistry sample_metrics(
      Duration patience = Duration::seconds(1));

 private:
  struct Node {
    std::unique_ptr<EventLoop> loop;
    std::unique_ptr<TcpTransport> transport;
    std::unique_ptr<obs::TraceSink> trace;
    std::unique_ptr<RealReplica> replica;  // replicas only
    std::unique_ptr<runtime::ClientProcess> client;  // clients only
    // Declared after the hosts it reads from: destroyed first, while the
    // loop (declared first) is still alive for del_fd calls.
    std::unique_ptr<obs::TelemetryServer> telemetry;  // replicas only
    std::thread thread;
    std::uint16_t port = 0;
    std::uint16_t telemetry_port = 0;  // kept across relaunch
    int pending_listen_fd = -1;  // bound, not yet adopted by a transport
    bool alive = false;   // thread running (stop() clears it for all)
    bool killed = false;  // kill_replica'd, not relaunched since
  };

  Status bind_listener(Node& node);
  Status build_node(std::uint32_t id);
  void start_node(std::uint32_t id);
  void begin_stop(std::uint32_t id, bool drain);
  void join_node(std::uint32_t id);

  runtime::ClusterConfig config_;
  /// Shared by every replica thread (suites are immutable); declared
  /// before nodes_ so it outlives them.
  std::unique_ptr<crypto::SignatureSuite> suite_;
  RealClusterOptions options_;
  Status init_status_ = Status::ok();
  std::vector<Node> nodes_;
  std::vector<Endpoint> endpoints_;
  bool running_ = false;
};

}  // namespace marlin::realnet
