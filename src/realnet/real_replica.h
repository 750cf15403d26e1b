// The metal backend of runtime::ReplicaHost: binds the shared host to one
// node's EventLoop (timers, monotonic clock) and TcpTransport, and
// serves the node's live telemetry. Everything else — protocol
// construction, restore-from-disk on relaunch, block records, checkpoints,
// replies, write-ahead voting, the view timer — is the shared host.
//
// What metal supplies differently from the simulator:
//  * no CPU cost model: wall time is real, so the cost sink charges nothing
//    (the host's counters still count);
//  * no step staging: a step runs inline and each send goes straight to
//    the transport. persist_state() completes synchronously (the store
//    write returns before the protocol resumes), so every vote is durable
//    before its frame reaches the transport.
//
// Threading: everything runs on the owning EventLoop's thread, except the
// SignatureSuite, which is immutable and shared by the cluster's replicas.
#pragma once

#include <memory>
#include <string>

#include "realnet/clock.h"
#include "realnet/tcp_transport.h"
#include "runtime/replica_host.h"

namespace marlin::realnet {

class RealReplica final : public runtime::ReplicaHost {
 public:
  /// Opens (or reopens) the store in `env`; when it holds a persisted
  /// consensus state the protocol is restored from it (relaunch path).
  /// Check ok() before start(). `suite` must outlive the replica.
  RealReplica(EventLoop& loop, TcpTransport& transport,
              const crypto::SignatureSuite& suite,
              runtime::ReplicaHostConfig config,
              std::unique_ptr<storage::Env> env);

  Status ok() const { return init_status_; }

  TimePoint now() const override { return mono_now(); }

  // -- telemetry (loop thread only) ------------------------------------------
  /// Liveness: true while the host shows recent activity (view timer
  /// firing, commits, view entries) and has not fail-stopped. The window
  /// adapts to the pacemaker's current backoff so a cluster grinding
  /// through view changes is not misreported as stalled. Backs GET
  /// /healthz.
  bool healthy() const;

  /// JSON body for GET /status: node id, protocol, view, committed height,
  /// tx-pool depth, recovery flags, heights skipped by snapshot
  /// fast-forward, and per-peer connection state.
  std::string status_json();

  /// Self-contained metrics snapshot for /metrics and the series sampler:
  /// a copy of the registry plus the transport health series, the wire
  /// NodeNetStats (same names the simulated network exports), and event
  /// loop counters.
  obs::MetricsRegistry snapshot_metrics() const;

 protected:
  void transmit(std::uint32_t to, Payload wire) override {
    transport_.send(to, std::move(wire));
  }
  marlin::Scheduler& timers() override { return loop_.scheduler(); }
  Duration spend(consensus::Cost, std::uint64_t) override {
    return Duration::zero();
  }
  void run_step(std::function<void()> step) override { step(); }

 private:
  EventLoop& loop_;
  TcpTransport& transport_;
  Status init_status_ = Status::ok();
};

}  // namespace marlin::realnet
