#include "runtime/cluster.h"

#include <algorithm>
#include <cassert>
#include <string>

namespace marlin::runtime {

ReplicaHostConfig replica_host_config(const ClusterConfig& config,
                                      ReplicaId id) {
  const ConsensusConfig& cons = config.consensus;
  ReplicaHostConfig rc;
  rc.replica.id = id;
  rc.replica.quorum = QuorumParams::for_f(config.f);
  rc.replica.max_batch_ops = cons.max_batch_ops;
  rc.replica.pipelined = cons.pipelined;
  rc.replica.allow_empty_blocks = cons.allow_empty_blocks;
  rc.replica.disable_happy_path = cons.disable_happy_path;
  rc.replica.use_threshold_sigs = cons.use_threshold_sigs;
  rc.protocol = cons.protocol;
  rc.pacemaker = cons.pacemaker;
  rc.checkpoint_interval = cons.checkpoint_interval;
  rc.reply_size = cons.reply_size;
  rc.client_base = rc.replica.quorum.n;
  rc.disable_persistence = cons.disable_persistence;
  return rc;
}

ClientProcessConfig client_process_config(const ClusterConfig& config,
                                          ClientId id) {
  ClientProcessConfig cc;
  cc.id = id;
  cc.quorum = QuorumParams::for_f(config.f);
  cc.window = config.clients.window;
  cc.payload_size = config.clients.payload_size;
  cc.retransmit_timeout = config.clients.retransmit_timeout;
  cc.max_requests = config.clients.max_requests;
  return cc;
}

std::unique_ptr<crypto::SignatureSuite> make_suite(
    const ClusterConfig& config) {
  Bytes seed_bytes(8);
  for (int i = 0; i < 8; ++i) {
    seed_bytes[i] = static_cast<std::uint8_t>(config.seed >> (8 * i));
  }
  return crypto::make_fast_suite(3 * config.f + 1, seed_bytes);
}

Duration client_start_delay(ClientId c) {
  return Duration::millis(5) +
         Duration::millis(41) * static_cast<std::int64_t>(c);
}

void merge_replica_metrics(obs::MetricsRegistry& out,
                           const obs::MetricsRegistry& replica, ReplicaId id) {
  out.merge_from(replica);
  const std::string label = "replica=" + std::to_string(id);
  for (const auto& [key, value] : replica.gauges()) {
    out.gauge(key.name, label) = value;
  }
}

void ClusterMetrology::set_measurement_window(TimePoint start,
                                              TimePoint end) {
  for (ClientProcess* c : client_hosts_) c->completed().set_window(start, end);
  for (ReplicaHost* r : replica_hosts_) {
    if (r != nullptr) r->committed_ops().set_window(start, end);
  }
}

double ClusterMetrology::client_throughput() const {
  double total = 0;
  for (ClientProcess* c : client_hosts_) {
    total += c->completed().rate_per_second();
  }
  return total;
}

LatencyHistogram ClusterMetrology::pooled_latency() const {
  LatencyHistogram merged;
  for (ClientProcess* c : client_hosts_) merged.merge_from(c->latency());
  return merged;
}

double ClusterMetrology::latency_ms(double percentile) const {
  return pooled_latency().percentile(percentile).as_millis_f();
}

double ClusterMetrology::mean_latency_ms() const {
  return pooled_latency().mean().as_millis_f();
}

std::uint64_t ClusterMetrology::total_completed() const {
  std::uint64_t total = 0;
  for (ClientProcess* c : client_hosts_) total += c->completed().in_window();
  return total;
}

bool ClusterMetrology::any_safety_violation() const {
  for (const ReplicaHost* r : replica_hosts_) {
    if (r != nullptr && r->protocol().safety_violated()) return true;
  }
  return false;
}

bool ClusterMetrology::committed_heights_consistent() const {
  std::vector<const consensus::ReplicaBase*> live;
  for (ReplicaId i = 0; i < replica_hosts_.size(); ++i) {
    if (counted(i)) live.push_back(&replica_hosts_[i]->protocol());
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    for (std::size_t j = i + 1; j < live.size(); ++j) {
      const auto& a = *live[i];
      const auto& b = *live[j];
      const auto& lo = a.committed_height() <= b.committed_height() ? a : b;
      const auto& hi = a.committed_height() <= b.committed_height() ? b : a;
      if (lo.committed_height() == 0) continue;
      if (!hi.store().extends(hi.committed_hash(), lo.committed_hash())) {
        return false;
      }
    }
  }
  return true;
}

Height ClusterMetrology::min_committed_height() const {
  Height min = 0;
  bool first = true;
  for (ReplicaId i = 0; i < replica_hosts_.size(); ++i) {
    if (!counted(i)) continue;
    const Height h = replica_hosts_[i]->protocol().committed_height();
    min = first ? h : std::min(min, h);
    first = false;
  }
  return min;
}

ViewNumber ClusterMetrology::max_view() const {
  ViewNumber v = 0;
  for (ReplicaId i = 0; i < replica_hosts_.size(); ++i) {
    if (counted(i)) v = std::max(v, replica_hosts_[i]->current_view());
  }
  return v;
}

std::vector<ReplicaId> ClusterMetrology::correct_replicas() const {
  std::vector<ReplicaId> out;
  for (ReplicaId i = 0; i < replica_hosts_.size(); ++i) {
    if (counted(i) && replica_hosts_[i]->byzantine_mode() ==
                          faults::ByzantineMode::kHonest) {
      out.push_back(i);
    }
  }
  return out;
}

Cluster::Cluster(sim::Simulator& sim, ClusterConfig config)
    : config_(std::move(config)) {
  EngineBinding engine;
  engine.control = &sim;
  engine.node_sched = [&sim](sim::NodeId) { return &sim; };
  engine.setup_rng = &sim.rng();
  // Same fanout heuristic as the sharded root, on the single global queue
  // (capacity only; pop order and goldens are unaffected).
  const std::size_t nodes = 3 * config_.f + 1 + config_.clients.count;
  sim.reserve(nodes * 64 + 256, nodes * 4 + 64);
  build(engine);
}

Cluster::Cluster(sim::ShardedSimulator& engine, ClusterConfig config)
    : config_(std::move(config)) {
  // Conservative-window safety: no message may arrive sooner than one
  // lookahead after it was sent.
  assert(engine.lookahead() <= config_.net.one_way_delay);
  EngineBinding binding;
  binding.control = &engine.control();
  binding.node_sched = [&engine](sim::NodeId id) {
    return engine.node_scheduler(id);
  };
  binding.setup_rng = &engine.rng();
  if (engine.tracing()) {
    binding.node_trace = [&engine](sim::NodeId id) {
      return engine.node_trace(id);
    };
    // Control-lane records (fault injections) go to the engine's own
    // barrier-phase sink unless the caller supplied one.
    if (config_.trace == nullptr) config_.trace = engine.control_trace();
  }
  binding.per_sender_net_rng = true;
  // Pre-size shard heaps/slabs from the cluster's fanout: a leader
  // broadcast plus replies keeps O(n) messages in flight per protocol
  // phase, and clients add a window each. 64 events/node absorbs several
  // overlapping phases plus CPU/storage charging events.
  const std::uint32_t n = 3 * config_.f + 1;
  const std::size_t nodes = n + config_.clients.count;
  engine.reserve(/*events_per_shard=*/nodes * 64 / engine.shards() + 256,
                 /*timers_per_shard=*/nodes * 4 / engine.shards() + 64);
  build(binding);
}

void Cluster::build(const EngineBinding& engine) {
  control_ = engine.control;
  sched_of_ = engine.node_sched;
  const std::uint32_t n = 3 * config_.f + 1;
  // Fork order (network stream first, client streams later, in id order)
  // is part of the determinism contract the golden traces pin.
  net_ = std::make_unique<sim::Network>(*control_, config_.net,
                                        engine.setup_rng->fork());
  if (config_.trace) {
    config_.trace->set_clock(
        [sched = control_] { return sched->now(); });
    net_->set_trace(config_.trace);
  }

  suite_ = make_suite(config_);
  for (ReplicaId r = 0; r < n; ++r) {
    ReplicaHostConfig rc = replica_host_config(config_, r);
    rc.trace = engine.node_trace ? engine.node_trace(r) : config_.trace;
    replicas_.push_back(std::make_unique<SimReplica>(
        *sched_of_(r), *net_, *suite_, rc, config_.crypto_costs,
        config_.storage_costs));
    replicas_.back()->set_count_authenticators(config_.count_authenticators);
    replicas_.back()->attach();
    replica_hosts_.push_back(replicas_.back().get());
    if (engine.node_trace) net_->set_node_trace(r, engine.node_trace(r));
  }

  for (ClientId c = 0; c < config_.clients.count; ++c) {
    ClientProcessConfig cc = client_process_config(config_, c);
    const sim::NodeId node = n + c;
    cc.trace = engine.node_trace ? engine.node_trace(node) : config_.trace;
    clients_.push_back(std::make_unique<SimClient>(
        *sched_of_(node), *net_, cc, engine.setup_rng->fork()));
    clients_.back()->attach();
    client_hosts_.push_back(clients_.back().get());
    if (engine.node_trace) net_->set_node_trace(node, engine.node_trace(node));
  }

  if (engine.per_sender_net_rng) net_->split_rng_per_sender();

  faults::FaultHooks hooks;
  hooks.current_leader = [this] { return current_leader(); };
  hooks.max_view = [this] { return max_view(); };
  hooks.set_byzantine = [this](ReplicaId r, faults::ByzantineMode m) {
    set_byzantine(r, m);
  };
  hooks.restart_replica = [this](ReplicaId r, bool wipe) {
    return restart_replica(r, wipe);
  };
  faults_ = std::make_unique<faults::FaultController>(
      *control_, *net_, config_.faults, std::move(hooks), n, config_.trace);
}

void Cluster::start() {
  faults_->arm();
  for (auto& r : replicas_) r->start();
  // Each client start is posted on the client's home scheduler so it runs
  // on the client's shard (the global queue, when there is only one).
  for (ClientId c = 0; c < clients_.size(); ++c) {
    SimClient* client = clients_[c].get();
    sched_of_(n() + c)->post(client_start_delay(c),
                             [client] { client->start(); });
  }
}

Status Cluster::restart_replica(ReplicaId i, bool wipe) {
  Status s = replicas_[i]->restart(wipe);
  // Reconnect only on success: a replica that cannot recover its store
  // stays crash-stopped instead of rejoining with partial state.
  if (s.is_ok()) net_->set_node_down(i, false);
  return s;
}

ReplicaId Cluster::current_leader() const {
  return static_cast<ReplicaId>(max_view() % n());
}

void Cluster::export_metrics(obs::MetricsRegistry& out) const {
  for (ReplicaId r = 0; r < replicas_.size(); ++r) {
    merge_replica_metrics(out, replicas_[r]->metrics(), r);
    out.counter("replica.authenticators_sent",
                "replica=" + std::to_string(r)) =
        replicas_[r]->traffic().authenticators_sent;
  }
  for (const auto& c : clients_) {
    out.latency("client.latency").merge_from(c->latency());
  }
  net_->export_metrics(out);
}

}  // namespace marlin::runtime
