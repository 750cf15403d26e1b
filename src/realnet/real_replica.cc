#include "realnet/real_replica.h"

#include <algorithm>

#include "obs/telemetry.h"

namespace marlin::realnet {

RealReplica::RealReplica(EventLoop& loop, TcpTransport& transport,
                         const crypto::SignatureSuite& suite,
                         runtime::ReplicaHostConfig config,
                         std::unique_ptr<storage::Env> env)
    : ReplicaHost(suite, std::move(config), std::move(env)),
      loop_(loop),
      transport_(transport) {
  // Loop/timer health histograms live in this replica's registry (std::map
  // nodes are reference-stable); the loop records into them from its own
  // thread, the same thread that serves /metrics.
  loop_.set_iteration_histogram(&metrics().latency("loop.iteration"));
  loop_.set_wake_histogram(&metrics().latency("loop.wake_delay"));
  loop_.set_timer_drift_histogram(&metrics().latency("timer.fire_drift"));
  init_status_ = open();
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

bool RealReplica::healthy() const {
  // Three missed view timers (at the current backoff) or 5 s, whichever is
  // longer: tolerant of view-change grind, still sharp on a wedged loop.
  const Duration window =
      std::max(Duration::seconds(5), view_timeout() * 3);
  return !stopped() && mono_now() - last_activity() <= window;
}

std::string RealReplica::status_json() {
  std::string out = "{";
  out += "\"node\":" + std::to_string(config().replica.id);
  out += ",\"protocol\":\"";
  out += config().protocol == runtime::ProtocolKind::kMarlin ? "marlin"
                                                            : "hotstuff";
  out += "\"";
  out += ",\"view\":" + std::to_string(protocol().current_view());
  out += ",\"committed_height\":" +
         std::to_string(static_cast<std::uint64_t>(
             metrics().gauge_value("replica.committed_height")));
  out += ",\"committed_ops\":" + std::to_string(committed_ops().total());
  out += ",\"txpool\":" + std::to_string(protocol().pool().pending());
  out += std::string(",\"recovered\":") + (recovered() ? "true" : "false");
  out += std::string(",\"recovering\":") +
         (protocol().recovering() ? "true" : "false");
  out += std::string(",\"healthy\":") + (healthy() ? "true" : "false");
  out += ",\"skipped_heights\":" +
         std::to_string(
             metrics().counter_value("state_transfer.skipped_heights"));
  out += ",\"queued_bytes\":" + std::to_string(transport_.queued_bytes());
  out += ",\"peers\":[";
  bool first = true;
  for (const TcpTransport::PeerStatus& p : transport_.peer_statuses()) {
    if (!first) out += ",";
    first = false;
    out += "{\"id\":" + std::to_string(p.id);
    out += std::string(",\"connected\":") + (p.connected ? "true" : "false");
    out += std::string(",\"connecting\":") +
           (p.connecting ? "true" : "false");
    out += ",\"queued_bytes\":" + std::to_string(p.queued_bytes);
    out += ",\"high_water_bytes\":" + std::to_string(p.high_water_bytes);
    out += ",\"backoff_ms\":" + std::to_string(p.backoff_ms);
    out += "}";
  }
  out += "]}";
  return out;
}

obs::MetricsRegistry RealReplica::snapshot_metrics() const {
  obs::MetricsRegistry snap = metrics();
  transport_.export_metrics(snap);
  // The writer sim::Network::export_metrics uses, so a merged realnet
  // series is key-compatible with a sim series.
  obs::net_stats_to_metrics(transport_.stats(), snap,
                            "node=" + std::to_string(config().replica.id));
  snap.counter("loop.iterations") += loop_.iterations();
  snap.counter("loop.posted_tasks") += loop_.posted_tasks_run();
  snap.counter("loop.timers_fired") += loop_.timers_fired();
  return snap;
}

}  // namespace marlin::realnet
