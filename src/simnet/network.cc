#include "simnet/network.h"

#include <cassert>
#include <string>

#include "common/wire_codec.h"
#include "obs/telemetry.h"

namespace marlin::sim {

namespace {
std::size_t kind_slot(const Payload& payload) {
  // Classification is the shared codec's: one table for both transports.
  return wire::kind_slot(payload.view());
}
}  // namespace

NodeId Network::add_node(NetworkNode* handler, marlin::Scheduler* sched) {
  assert(handler != nullptr);
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(handler);
  scheds_.push_back(sched != nullptr ? sched : &sched_);
  down_.push_back(false);
  stats_.emplace_back();
  nic_free_.push_back(TimePoint::origin());
  link_free_.emplace_back();
  node_trace_.push_back(nullptr);
  return id;
}

void Network::split_rng_per_sender() {
  assert(sender_rng_.empty() && "split_rng_per_sender is one-shot");
  sender_rng_.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    sender_rng_.push_back(rng_.fork());
  }
}

void Network::set_node_down(NodeId node, bool down) {
  assert(node < nodes_.size());
  down_[node] = down;
}

bool Network::is_down(NodeId node) const {
  assert(node < nodes_.size());
  return down_[node];
}

const NodeNetStats& Network::stats(NodeId node) const {
  assert(node < stats_.size());
  return stats_[node];
}

NodeNetStats Network::total_stats() const {
  NodeNetStats total;
  for (const auto& s : stats_) total += s;
  return total;
}

void Network::export_metrics(obs::MetricsRegistry& reg) const {
  // Counters add, so the per-kind series sum over nodes.
  for (NodeId node = 0; node < stats_.size(); ++node) {
    obs::net_stats_to_metrics(stats_[node], reg,
                              "node=" + std::to_string(node));
  }
}

void Network::reset_stats() {
  for (auto& s : stats_) s = NodeNetStats{};
}

void Network::send(NodeId from, NodeId to, Payload payload) {
  assert(from < nodes_.size() && to < nodes_.size());
  const std::size_t size = payload.size();
  const std::size_t kind = kind_slot(payload);
  auto& sender_stats = stats_[from];
  obs::TraceSink* sender_sink = sink_for(from);

  if (down_[from]) return;  // a crashed node emits nothing

  if (filter_ && !filter_(from, to)) {
    ++sender_stats.messages_dropped;
    if (sender_sink) {
      sender_sink->record({.node = from,
                           .type = obs::EventType::kMsgDropped,
                           .kind = static_cast<std::uint8_t>(kind),
                           .a = to,
                           .b = obs::kDropFilter});
    }
    return;
  }

  // Sends are attributed to the sender's clock: the global clock on the
  // single-queue engine, its home shard's on the partitioned one.
  const TimePoint now = scheds_[from]->now();
  const bool before_gst = now < gst_;
  Rng& rng = rng_for(from);

  double drop_p = config_.drop_probability;
  if (before_gst) drop_p += config_.pre_gst_drop_probability;
  if (drop_p > 0 && rng.next_bool(drop_p)) {
    ++sender_stats.messages_dropped;
    if (sender_sink) {
      sender_sink->record({.node = from,
                           .type = obs::EventType::kMsgDropped,
                           .kind = static_cast<std::uint8_t>(kind),
                           .a = to,
                           .b = obs::kDropRandom});
    }
    return;
  }

  // Injected drop-burst windows draw separately (and only while active) so
  // fault-free runs keep the exact rng stream they had before faults existed.
  if (extra_drop_ > 0 && rng.next_bool(extra_drop_)) {
    ++sender_stats.messages_dropped;
    if (sender_sink) {
      sender_sink->record({.node = from,
                           .type = obs::EventType::kMsgDropped,
                           .kind = static_cast<std::uint8_t>(kind),
                           .a = to,
                           .b = obs::kDropFault});
    }
    return;
  }

  ++sender_stats.messages_sent;
  sender_stats.bytes_sent += size;
  ++sender_stats.msgs_sent_by_kind[kind];
  sender_stats.bytes_sent_by_kind[kind] += size;

  if (from == to) {
    // Loopback: skip NIC/link, deliver after a tiny local hop.
    constexpr Duration kLocalHop = Duration::micros(5);
    const auto hop_ns = static_cast<std::uint64_t>(kLocalHop.as_nanos());
    scheds_[to]->post(kLocalHop, [this, from, to, kind, hop_ns,
                                  p = std::move(payload)]() mutable {
      if (down_[to]) return;
      auto& rs = stats_[to];
      ++rs.messages_delivered;
      rs.bytes_delivered += p.size();
      ++rs.msgs_delivered_by_kind[kind];
      rs.bytes_delivered_by_kind[kind] += p.size();
      if (obs::TraceSink* sink = sink_for(to)) {
        sink->record({.node = to,
                      .type = obs::EventType::kMsgDelivered,
                      .kind = static_cast<std::uint8_t>(kind),
                      .a = from,
                      .b = 0,
                      .c = hop_ns});
      }
      if (delivery_probe_) delivery_probe_(from, to, p);
      nodes_[to]->on_message(from, std::move(p));
    });
    return;
  }

  const double bits = static_cast<double>(size) * 8.0;

  // Stage 1: serialize through the sender's NIC (shared across links).
  const TimePoint nic_start = std::max(now, nic_free_[from]);
  const Duration nic_tx =
      Duration::from_seconds_f(bits / config_.nic_bandwidth_bps);
  const TimePoint nic_end = nic_start + nic_tx;
  nic_free_[from] = nic_end;

  // Stage 2: serialize through the provisioned link (per ordered pair;
  // the table is keyed by sender, so only from's scheduler touches it).
  auto [it, inserted] = link_free_[from].try_emplace(to, TimePoint::origin());
  const TimePoint link_start = std::max(nic_end, it->second);
  const Duration link_tx =
      Duration::from_seconds_f(bits / config_.link_bandwidth_bps);
  const TimePoint link_end = link_start + link_tx;
  it->second = link_end;

  // Stage 3: propagation delay (+ jitter, + pre-GST chaos).
  Duration extra = Duration::zero();
  if (config_.jitter > Duration::zero()) {
    extra += Duration::nanos(static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(config_.jitter.as_nanos()))));
  }
  if (before_gst && config_.pre_gst_extra_delay_max > Duration::zero()) {
    extra += Duration::nanos(static_cast<std::int64_t>(rng.next_below(
        static_cast<std::uint64_t>(config_.pre_gst_extra_delay_max.as_nanos()))));
  }
  extra += extra_delay_;  // injected slow-link window (no rng draw)
  const TimePoint arrival = link_end + config_.one_way_delay + extra;

  // Queueing vs transit split for the dequeue-side attribution event:
  // waiting for a busy NIC or link is queueing; serialization + propagation
  // (+ jitter / pre-GST chaos) is wire transit.
  const Duration queue_delay = (nic_start - now) + (link_start - nic_end);
  const Duration transit = arrival - now;

  scheds_[to]->post_at(arrival, [this, from, to, kind, queue_delay, transit,
                                 p = std::move(payload)]() mutable {
    if (down_[to]) return;
    auto& rs = stats_[to];
    ++rs.messages_delivered;
    rs.bytes_delivered += p.size();
    ++rs.msgs_delivered_by_kind[kind];
    rs.bytes_delivered_by_kind[kind] += p.size();
    if (obs::TraceSink* sink = sink_for(to)) {
      sink->record({.node = to,
                    .type = obs::EventType::kMsgDelivered,
                    .kind = static_cast<std::uint8_t>(kind),
                    .a = from,
                    .b = static_cast<std::uint64_t>(queue_delay.as_nanos()),
                    .c = static_cast<std::uint64_t>(transit.as_nanos())});
    }
    if (delivery_probe_) delivery_probe_(from, to, p);
    nodes_[to]->on_message(from, std::move(p));
  });
}

}  // namespace marlin::sim
