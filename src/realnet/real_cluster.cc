#include "realnet/real_cluster.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>

#include "obs/telemetry.h"

namespace marlin::realnet {

namespace {

/// Patience for egress drain during stop().
constexpr Duration kDrainTimeout = Duration::seconds(2);

/// The metal backend of the shared closed-loop client: the node's
/// TcpTransport, its loop's timers and the monotonic clock.
class RealClient final : public runtime::ClientProcess {
 public:
  RealClient(EventLoop& loop, TcpTransport& transport,
             runtime::ClientProcessConfig config, Rng rng)
      : ClientProcess(config, std::move(rng)),
        loop_(loop),
        transport_(transport) {}

 protected:
  TimePoint now() const override { return mono_now(); }
  marlin::Scheduler& timers() override { return loop_.scheduler(); }
  void transmit(std::uint32_t to, Payload wire) override {
    transport_.send(to, std::move(wire));
  }

 private:
  EventLoop& loop_;
  TcpTransport& transport_;
};

}  // namespace

RealCluster::RealCluster(runtime::ClusterConfig config,
                         RealClusterOptions options)
    : config_(std::move(config)),
      suite_(runtime::make_suite(config_)),
      options_(std::move(options)) {
  const std::uint32_t total = n() + config_.clients.count;
  nodes_.resize(total);
  endpoints_.resize(total);
  replica_hosts_.assign(n(), nullptr);

  // Phase 1: bind every listener on the construction thread so the full
  // endpoint table exists before any node (or its peers) can dial.
  for (std::uint32_t id = 0; id < total; ++id) {
    if (Status s = bind_listener(nodes_[id]); !s.is_ok()) {
      init_status_ = s;
      return;
    }
    endpoints_[id] = Endpoint{"127.0.0.1", nodes_[id].port};
  }

  // Phase 2: construct loops, transports, and hosts (still this thread;
  // loops are not running yet, so no synchronization is needed).
  for (std::uint32_t id = 0; id < total; ++id) {
    if (Status s = build_node(id); !s.is_ok()) {
      init_status_ = s;
      return;
    }
  }
}

RealCluster::~RealCluster() { stop(); }

Status RealCluster::bind_listener(Node& node) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return error(ErrorCode::kIoError,
                 "socket: " + std::string(strerror(errno)));
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(node.port);  // 0 first time; fixed port on relaunch
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      listen(fd, 64) != 0) {
    const std::string msg = strerror(errno);
    close(fd);
    return error(ErrorCode::kIoError, "bind/listen: " + msg);
  }
  socklen_t len = sizeof addr;
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  node.port = ntohs(addr.sin_port);
  node.pending_listen_fd = fd;
  return Status::ok();
}

Status RealCluster::build_node(std::uint32_t id) {
  Node& node = nodes_[id];
  node.loop = std::make_unique<EventLoop>();
  node.transport =
      std::make_unique<TcpTransport>(*node.loop, id, TransportConfig{});
  node.transport->adopt_listener(node.pending_listen_fd);
  node.pending_listen_fd = -1;
  for (std::uint32_t peer = 0; peer < endpoints_.size(); ++peer) {
    if (peer != id) node.transport->set_peer(peer, endpoints_[peer]);
  }
  if (options_.trace) {
    node.trace = std::make_unique<obs::TraceSink>(options_.trace_capacity);
    node.trace->set_clock([] { return mono_now(); });
    node.transport->set_trace(node.trace.get());
  }

  if (id < n()) {
    runtime::ReplicaHostConfig rc = runtime::replica_host_config(config_, id);
    rc.sync_writes = options_.sync_writes;
    rc.trace = node.trace.get();
    std::unique_ptr<storage::Env> env = storage::make_mem_env();
    if (!options_.data_dir.empty()) {
      auto posix = storage::make_posix_env(options_.data_dir + "/r" +
                                           std::to_string(id));
      if (!posix.is_ok()) return posix.status();
      env = std::move(posix).take();
    }
    node.replica = std::make_unique<RealReplica>(
        *node.loop, *node.transport, *suite_, rc, std::move(env));
    replica_hosts_[id] = node.replica.get();
    if (!node.replica->ok().is_ok()) return node.replica->ok();
    RealReplica* host = node.replica.get();
    node.transport->set_handler([host](std::uint32_t from, Payload p) {
      host->handle_message(from, std::move(p));
    });
    if (options_.telemetry) {
      obs::TelemetryHandlers th;
      th.metrics = [host] {
        return obs::metrics_to_prometheus(host->snapshot_metrics());
      };
      th.status = [host] { return host->status_json(); };
      th.healthy = [host] { return host->healthy(); };
      node.telemetry =
          std::make_unique<obs::TelemetryServer>(*node.loop, std::move(th));
      std::uint16_t want = node.telemetry_port;  // relaunch: same port
      if (want == 0 && options_.telemetry_base_port != 0) {
        want = static_cast<std::uint16_t>(options_.telemetry_base_port + id);
      }
      auto port = node.telemetry->listen(want);
      if (!port.is_ok() && node.telemetry_port != 0) {
        // Relaunch with the old ephemeral port stolen meanwhile: any port
        // beats no telemetry.
        port = node.telemetry->listen(0);
      }
      if (!port.is_ok()) return port.status();
      node.telemetry_port = port.value();
    }
  } else {
    runtime::ClientProcessConfig cc =
        runtime::client_process_config(config_, id - n());
    cc.trace = node.trace.get();
    // Payload entropy: cluster seed + node id keeps runs repeatable.
    Rng rng(config_.seed * 0x9e3779b97f4a7c15ull + id);
    node.client = std::make_unique<RealClient>(*node.loop, *node.transport,
                                               cc, std::move(rng));
    client_hosts_.push_back(node.client.get());
    runtime::ClientProcess* host = node.client.get();
    node.transport->set_handler([host](std::uint32_t from, Payload p) {
      host->handle_message(from, std::move(p));
    });
  }
  return Status::ok();
}

void RealCluster::start_node(std::uint32_t id) {
  Node& node = nodes_[id];
  EventLoop* loop = node.loop.get();
  node.thread = std::thread([loop] { loop->run(); });
  node.alive = true;
  if (node.replica) {
    RealReplica* host = node.replica.get();
    loop->post([host] { host->start(); });
  } else {
    runtime::ClientProcess* host = node.client.get();
    loop->post([loop, host, delay = runtime::client_start_delay(id - n())] {
      loop->scheduler().post(delay, [host] { host->start(); });
    });
  }
}

void RealCluster::start() {
  if (running_ || !init_status_.is_ok()) return;
  for (std::uint32_t id = 0; id < nodes_.size(); ++id) start_node(id);
  running_ = true;
}

void RealCluster::begin_stop(std::uint32_t id, bool drain) {
  Node& node = nodes_[id];
  if (!node.alive) return;
  EventLoop* loop = node.loop.get();
  TcpTransport* transport = node.transport.get();
  obs::TelemetryServer* telemetry = node.telemetry.get();

  // Clean shutdown drains in-flight sends: poll the egress queues on the
  // loop thread until empty (or patience runs out), then close everything
  // and stop the loop. The polling closure reschedules itself, so it must
  // live on the heap until the final round.
  const TimePoint deadline =
      mono_now() + (drain ? kDrainTimeout : Duration::zero());
  // The closure holds only a weak self-reference; each rescheduled task
  // carries the strong one. A strong capture here would be a
  // shared_ptr cycle (the function owning itself) and leak every stop.
  auto step = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak = step;
  *step = [loop, transport, telemetry, deadline, weak] {
    if (transport->pending_egress_bytes() > 0 && mono_now() < deadline) {
      if (auto self = weak.lock()) {
        loop->scheduler().post(Duration::millis(1), [self] { (*self)(); });
      }
      return;
    }
    if (telemetry != nullptr) telemetry->shutdown();
    transport->shutdown();
    loop->stop();
  };
  loop->post([step] { (*step)(); });
}

void RealCluster::join_node(std::uint32_t id) {
  Node& node = nodes_[id];
  if (!node.alive) return;
  node.thread.join();
  node.alive = false;
}

void RealCluster::stop() {
  if (!running_) return;
  // 1. Quiesce clients: stop issuing, keep the loops alive so replies and
  //    replica drains still land somewhere.
  for (std::uint32_t id = n(); id < nodes_.size(); ++id) {
    if (!nodes_[id].alive) continue;
    runtime::ClientProcess* host = nodes_[id].client.get();
    nodes_[id].loop->post([host] { host->quiesce(); });
  }
  // 2. Drain and stop every replica concurrently (while all are live their
  //    mutual egress flushes; serial stops would strand frames addressed
  //    to already-stopped peers until the drain deadline).
  for (std::uint32_t id = 0; id < n(); ++id) begin_stop(id, /*drain=*/true);
  for (std::uint32_t id = 0; id < n(); ++id) join_node(id);
  // 3. Stop the clients.
  for (std::uint32_t id = n(); id < nodes_.size(); ++id) {
    begin_stop(id, /*drain=*/false);
  }
  for (std::uint32_t id = n(); id < nodes_.size(); ++id) join_node(id);
  running_ = false;
}

void RealCluster::kill_replica(ReplicaId i) {
  begin_stop(i, /*drain=*/false);
  join_node(i);
  nodes_[i].killed = true;
}

bool RealCluster::replica_alive(ReplicaId i) const {
  return nodes_[i].alive;
}

Status RealCluster::relaunch_replica(ReplicaId i) {
  Node& node = nodes_[i];
  if (node.alive) return Status::ok();
  // Tear down the dead incarnation (its data dir survives), rebind the
  // same port, rebuild, rejoin. Peers redial lazily via backoff.
  node.telemetry.reset();  // before the loop it registered with
  replica_hosts_[i] = nullptr;
  node.replica.reset();
  node.transport.reset();
  node.loop.reset();
  node.trace.reset();
  if (Status s = bind_listener(node); !s.is_ok()) return s;
  if (Status s = build_node(i); !s.is_ok()) return s;
  start_node(i);
  node.killed = false;
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Metrology
// ---------------------------------------------------------------------------

const net::NodeNetStats& RealCluster::node_stats(std::uint32_t id) const {
  return nodes_[id].transport->stats();
}

obs::MetricsRegistry RealCluster::sample_metrics(Duration patience) {
  // Per-node snapshots are taken on each node's own loop thread (host
  // state has no locks); this thread merges them. A killed node is read
  // directly — its loop is joined, so this thread owns its state.
  struct Sample {
    std::uint32_t id;
    obs::MetricsRegistry registry;
    LatencyHistogram client_latency;
    bool is_replica;
  };
  // Shared-ownership state: every posted closure keeps it alive, so a task
  // that runs after the patience deadline (or is dropped with a stopping
  // loop) appends into — or releases — heap state, never this stack frame.
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Sample> samples;
    std::size_t outstanding = 0;
  };
  auto shared = std::make_shared<Shared>();

  for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
    Node& node = nodes_[id];
    const bool is_replica = node.replica != nullptr;
    if (!is_replica && node.client == nullptr) continue;
    if (!node.alive) {
      // Joined node: this thread owns its state, read directly.
      Sample s{id, {}, {}, is_replica};
      if (is_replica) {
        s.registry = node.replica->snapshot_metrics();
      } else {
        s.client_latency = node.client->latency();
      }
      std::lock_guard<std::mutex> lock(shared->mu);
      shared->samples.push_back(std::move(s));
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(shared->mu);
      ++shared->outstanding;
    }
    RealReplica* replica = node.replica.get();
    runtime::ClientProcess* client = node.client.get();
    node.loop->post([shared, id, is_replica, replica, client] {
      Sample s{id, {}, {}, is_replica};
      if (is_replica) {
        s.registry = replica->snapshot_metrics();
      } else {
        s.client_latency = client->latency();
      }
      std::lock_guard<std::mutex> lock(shared->mu);
      shared->samples.push_back(std::move(s));
      --shared->outstanding;
      shared->cv.notify_all();
    });
  }

  std::vector<Sample> samples;
  {
    std::unique_lock<std::mutex> lock(shared->mu);
    shared->cv.wait_for(lock, std::chrono::nanoseconds(patience.as_nanos()),
                        [&shared] { return shared->outstanding == 0; });
    samples = std::move(shared->samples);  // late arrivals are skipped
  }

  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.id < b.id; });

  obs::MetricsRegistry out;
  for (const Sample& s : samples) {
    if (s.is_replica) {
      runtime::merge_replica_metrics(out, s.registry, s.id);
    } else {
      out.latency("client.latency").merge_from(s.client_latency);
    }
  }
  return out;
}

std::vector<const obs::TraceSink*> RealCluster::trace_sinks() const {
  std::vector<const obs::TraceSink*> sinks;
  for (const auto& node : nodes_) {
    if (node.trace) sinks.push_back(node.trace.get());
  }
  return sinks;
}

std::vector<obs::TraceEvent> RealCluster::merged_trace_events() const {
  return obs::merge_traces(trace_sinks(), obs::MergedSeq::kPerSink);
}

}  // namespace marlin::realnet
