// Simulated point-to-point network. Reproduces the paper's testbed model:
// a 40 ms injected one-way delay, 200 Mbps provisioned per link, and a
// 1 Gbps NIC per server whose egress serializes (this is what makes the
// leader the bandwidth bottleneck at large n). Supports crash faults,
// message drops, arbitrary directional filters (partitions), and a GST
// switch for partial synchrony: before GST messages suffer unbounded extra
// delay / loss, after GST delivery is bounded.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/scheduler.h"
#include "common/net_stats.h"
#include "common/payload.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simnet/simulator.h"

namespace marlin::sim {

using NodeId = std::uint32_t;

struct NetConfig {
  Duration one_way_delay = Duration::millis(40);
  Duration jitter = Duration::micros(500);  // uniform [0, jitter)
  double link_bandwidth_bps = 200e6;        // per ordered (src,dst) pair
  double nic_bandwidth_bps = 1e9;           // per-source egress
  double drop_probability = 0.0;            // after GST

  // Pre-GST behaviour (partial synchrony): extra delay uniform in
  // [0, pre_gst_extra_delay_max) and an extra drop probability.
  Duration pre_gst_extra_delay_max = Duration::zero();
  double pre_gst_drop_probability = 0.0;
};

/// Shared with the real transport (common/net_stats.h): both backends fill
/// the same wire-level counters, so traffic analysis works on either.
using NodeNetStats = net::NodeNetStats;

/// Receiver interface; implemented by replica/client runtimes. The payload
/// is refcounted and may be shared with other receivers of the same
/// broadcast — treat the bytes as immutable.
class NetworkNode {
 public:
  virtual ~NetworkNode() = default;
  virtual void on_message(NodeId from, Payload payload) = 0;
};

class Network {
 public:
  /// Backend-neutral construction: the scheduler drives deliveries, the rng
  /// feeds drop/jitter draws. Callers own the fork order of `rng` (it is
  /// part of the determinism contract).
  Network(marlin::Scheduler& sched, NetConfig config, Rng rng)
      : sched_(sched), config_(config), rng_(std::move(rng)) {}

  /// Legacy convenience: fork the network's rng stream from the simulator,
  /// exactly as every seeded run has always done (byte-identity contract).
  Network(Simulator& sim, NetConfig config)
      : Network(static_cast<marlin::Scheduler&>(sim), config,
                sim.rng().fork()) {}

  /// Registers a handler (non-owning; must outlive the network). `sched`
  /// optionally binds the node to its own scheduler (its shard's clock on
  /// the partitioned engine); defaults to the network-wide one. Deliveries
  /// to the node are posted on its scheduler, and sends from it read its
  /// clock — on a single-queue engine both are the global clock, so
  /// behaviour is unchanged.
  NodeId add_node(NetworkNode* handler, marlin::Scheduler* sched = nullptr);

  std::size_t node_count() const { return nodes_.size(); }

  /// Queues `payload` from → to through the NIC + link + propagation model.
  /// Self-sends deliver after a minimal local hop. The payload is
  /// refcounted: broadcasting the same Payload to n destinations shares one
  /// buffer across all n in-flight copies (implicit conversion from Bytes
  /// keeps single-destination call sites unchanged).
  void send(NodeId from, NodeId to, Payload payload);

  /// Before GST, pre-GST delay/drop applies; at/after it, bounds hold.
  /// Default GST = origin, i.e. the network starts synchronous.
  void set_gst(TimePoint gst) { gst_ = gst; }

  /// Reconfigures the pre-GST chaos parameters after construction (fault
  /// plans carry them per run; see faults::FaultKind::kGst).
  void set_pre_gst(Duration extra_delay_max, double drop_probability) {
    config_.pre_gst_extra_delay_max = extra_delay_max;
    config_.pre_gst_drop_probability = drop_probability;
  }

  /// Injected fault windows: additional loss probability / one-way delay on
  /// every link while set (drop reason kDropFault). Zero disables; a fault
  /// that was never injected consumes no rng draws, so fault-free runs stay
  /// bit-identical to runs on networks without these hooks.
  void set_extra_drop(double probability) { extra_drop_ = probability; }
  void set_extra_delay(Duration delay) { extra_delay_ = delay; }

  /// A down node neither sends nor receives (crash fault).
  void set_node_down(NodeId node, bool down);
  bool is_down(NodeId node) const;

  /// Directional reachability filter; return false to drop (partitions,
  /// targeted message suppression). Cleared with nullptr.
  void set_filter(std::function<bool(NodeId from, NodeId to)> filter) {
    filter_ = std::move(filter);
  }

  const NodeNetStats& stats(NodeId node) const;
  NodeNetStats total_stats() const;
  void reset_stats();

  /// Records kMsgDropped events for filtered / randomly lost sends
  /// (node = sender, a = destination, b = obs::kDropFilter / kDropRandom)
  /// and kMsgDelivered events at dequeue time (node = receiver, a = sender,
  /// b = NIC/link queueing ns, c = total send-to-arrival transit ns).
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

  /// Per-node sink override (sharded runs: each node records into its home
  /// shard's sink, so recording stays single-writer). Falls back to the
  /// global sink when unset. Call after add_node(node).
  void set_node_trace(NodeId node, obs::TraceSink* sink) {
    node_trace_[node] = sink;
  }

  /// Splits drop/jitter randomness into one stream per sender, forked from
  /// the network's stream in node-id order. Required on the partitioned
  /// engine, where senders draw concurrently and a shared stream would make
  /// the draw sequence depend on shard interleaving. Call once, after all
  /// add_node calls. (Legacy single-queue runs keep the shared stream:
  /// its draw order is pinned by the golden traces.)
  void split_rng_per_sender();

  /// Test-only hook: called on every delivery, just before the receiver's
  /// on_message, with the exact Payload instance being handed over. Lets
  /// tests assert buffer identity across receivers (zero-copy broadcast)
  /// without changing delivery behaviour. Cleared with nullptr.
  void set_delivery_probe(
      std::function<void(NodeId from, NodeId to, const Payload&)> probe) {
    delivery_probe_ = std::move(probe);
  }

  /// Exports per-node and per-kind traffic series into `reg`:
  ///   net.messages_sent{node=N}, net.bytes_sent{node=N}, ...
  ///   net.messages_sent{kind=vote}, net.bytes_sent{kind=vote}, ...
  void export_metrics(obs::MetricsRegistry& reg) const;

 private:
  obs::TraceSink* sink_for(NodeId node) const {
    obs::TraceSink* s = node_trace_[node];
    return s != nullptr ? s : trace_;
  }
  Rng& rng_for(NodeId from) {
    return sender_rng_.empty() ? rng_ : sender_rng_[from];
  }

  marlin::Scheduler& sched_;
  NetConfig config_;
  Rng rng_;
  std::vector<Rng> sender_rng_;  // empty = shared stream (legacy)
  TimePoint gst_;  // origin: synchronous from the start
  double extra_drop_ = 0.0;             // injected loss window (faults)
  Duration extra_delay_ = Duration::zero();  // injected slow-link window
  std::vector<NetworkNode*> nodes_;
  std::vector<marlin::Scheduler*> scheds_;  // per-node clock/queue binding
  std::vector<bool> down_;
  std::vector<NodeNetStats> stats_;
  std::vector<TimePoint> nic_free_;
  // Keyed per sender so concurrent shards never touch each other's
  // entries; a sender's sends are serialized on its home scheduler.
  std::vector<std::unordered_map<NodeId, TimePoint>> link_free_;
  std::function<bool(NodeId, NodeId)> filter_;
  std::function<void(NodeId, NodeId, const Payload&)> delivery_probe_;
  obs::TraceSink* trace_ = nullptr;
  std::vector<obs::TraceSink*> node_trace_;  // per-node overrides
};

}  // namespace marlin::sim
