#include "runtime/sim_host.h"

#include <cassert>

namespace marlin::runtime {

using consensus::Cost;

SimReplica::SimReplica(marlin::Scheduler& sched, sim::Network& net,
                       const crypto::SignatureSuite& suite,
                       ReplicaHostConfig config,
                       const crypto::CostModel& crypto_costs,
                       const storage::CostModel& storage_costs)
    : ReplicaHost(suite, std::move(config), storage::make_mem_env()),
      sched_(sched),
      net_(net),
      crypto_costs_(crypto_costs),
      storage_costs_(storage_costs),
      cpu_(sched) {
  [[maybe_unused]] const Status opened = open();
  assert(opened.is_ok());
}

void SimReplica::attach() {
  [[maybe_unused]] const sim::NodeId id = net_.add_node(this, &sched_);
  assert(id == config().replica.id && "replicas must occupy node ids [0, n)");
}

void SimReplica::run_step(std::function<void()> step) {
  cpu_.post([this, step = std::move(step)]() -> Duration {
    assert(!in_task_);
    in_task_ = true;
    pending_charge_ = Duration::zero();
    outbox_.clear();
    step();
    const Duration cost = pending_charge_;
    // Outputs leave the node when the CPU work completes.
    if (!outbox_.empty()) {
      sched_.post_at(sched_.now() + cost,
                     [this, pending = std::move(outbox_)]() mutable {
                       for (auto& [to, wire] : pending) {
                         net_.send(config().replica.id, to, std::move(wire));
                       }
                     });
      outbox_.clear();
    }
    in_task_ = false;
    return cost;
  });
}

void SimReplica::on_message(sim::NodeId from, Payload payload) {
  // Decoding happens inside the task so its cost is charged.
  run_step([this, from, payload = std::move(payload)]() mutable {
    handle_message(from, std::move(payload));
  });
}

void SimReplica::transmit(std::uint32_t to, Payload wire) {
  if (in_task_) {
    outbox_.emplace_back(to, std::move(wire));
  } else {
    net_.send(config().replica.id, to, std::move(wire));
  }
}

Duration SimReplica::spend(Cost cost, std::uint64_t count) {
  const auto k = static_cast<std::int64_t>(count);
  Duration d;
  switch (cost) {
    case Cost::kSign: d = crypto_costs_.sign * k; break;
    case Cost::kVerify: d = crypto_costs_.verify * k; break;
    case Cost::kHashBytes: d = crypto_costs_.hash_cost(count); break;
    case Cost::kPairing: d = crypto_costs_.pairing * k; break;
    case Cost::kThresholdSign:
      d = crypto_costs_.threshold_sign_share * k;
      break;
    case Cost::kCombineShare:
      d = crypto_costs_.threshold_combine_per_share * k;
      break;
    case Cost::kSerializeBytes: d = crypto_costs_.serialize_cost(count); break;
    case Cost::kExecuteOps: d = crypto_costs_.execute_op * k; break;
    case Cost::kStorageWrite: d = storage_costs_.write_cost(count); break;
    case Cost::kStorageReads: d = storage_costs_.read_base * k; break;
    case Cost::kCheckpoint: d = storage_costs_.checkpoint_cost(count); break;
  }
  pending_charge_ += d;
  return d;
}

void SimClient::attach() {
  [[maybe_unused]] const sim::NodeId id = net_.add_node(this, &sched_);
  assert(id == node_id() && "clients must occupy node ids n.. in id order");
}

}  // namespace marlin::runtime
