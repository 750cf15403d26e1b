// The simulator backend of the shared hosts: binds a runtime::ReplicaHost
// or runtime::ClientProcess to one simnet node. It supplies only what
// differs from metal — simnet links, the simulator's clock, and (for
// replicas) a single-threaded virtual CPU that charges the crypto/storage
// cost models, so signature checks and store writes cost throughput.
#pragma once

#include <utility>
#include <vector>

#include "crypto/cost_model.h"
#include "runtime/client_process.h"
#include "runtime/replica_host.h"
#include "simnet/network.h"
#include "simnet/processor.h"
#include "storage/cost_model.h"

namespace marlin::runtime {

class SimReplica final : public ReplicaHost, public sim::NetworkNode {
 public:
  /// `sched` is the replica's home scheduler: the shared simulator on the
  /// single-queue engine, its shard's clock on the partitioned one. The
  /// store is in memory.
  SimReplica(marlin::Scheduler& sched, sim::Network& net,
             const crypto::SignatureSuite& suite, ReplicaHostConfig config,
             const crypto::CostModel& crypto_costs,
             const storage::CostModel& storage_costs);

  /// Registers with the network; must be called for all replicas (ids in
  /// order) before start().
  void attach();

  /// Ingress: each frame is one task of the virtual CPU, its decode charged.
  void on_message(sim::NodeId from, Payload payload) override;

  TimePoint now() const override { return sched_.now(); }
  Duration cpu_busy() const { return cpu_.total_busy(); }

 protected:
  void transmit(std::uint32_t to, Payload wire) override;
  marlin::Scheduler& timers() override { return sched_; }
  Duration spend(consensus::Cost cost, std::uint64_t count) override;
  void run_step(std::function<void()> step) override;

 private:
  marlin::Scheduler& sched_;
  sim::Network& net_;
  crypto::CostModel crypto_costs_;
  storage::CostModel storage_costs_;
  sim::SequentialProcessor cpu_;

  // The task currently executing: its accumulated charge and the frames it
  // sent, which leave the node when the charged CPU time has elapsed.
  Duration pending_charge_;
  std::vector<std::pair<sim::NodeId, Payload>> outbox_;
  bool in_task_ = false;
};

class SimClient final : public ClientProcess, public sim::NetworkNode {
 public:
  /// `sched` is the client's home scheduler; `rng` feeds request payloads.
  /// The caller owns the rng fork order — Cluster forks client streams in
  /// id order, which the golden traces pin.
  SimClient(marlin::Scheduler& sched, sim::Network& net,
            ClientProcessConfig config, Rng rng)
      : ClientProcess(config, std::move(rng)), sched_(sched), net_(net) {}

  /// Registers with the network, after every replica and every client with
  /// a lower id.
  void attach();

  void on_message(sim::NodeId from, Payload payload) override {
    handle_message(from, std::move(payload));
  }

 protected:
  TimePoint now() const override { return sched_.now(); }
  marlin::Scheduler& timers() override { return sched_; }
  void transmit(std::uint32_t to, Payload wire) override {
    net_.send(node_id(), to, std::move(wire));
  }

 private:
  marlin::Scheduler& sched_;
  sim::Network& net_;
};

}  // namespace marlin::runtime
