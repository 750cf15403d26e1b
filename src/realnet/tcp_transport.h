// Real TCP transport for one node, driven by that node's EventLoop. The
// contract mirrors sim::Network from a single node's perspective: send a
// refcounted Payload to a node id, receive (from, Payload) callbacks, and
// fill the same wire-level NodeNetStats the simulator fills — so traffic
// analysis, per-kind accounting, and trace tooling work on either backend.
//
// Connection model (simplex): a connection is used in one direction only —
// the dialer sends, the acceptor receives. Every node runs a listener, and
// node A's frames to node B always travel on the A→B dialed connection.
// This avoids duplex tie-breaking entirely: start order does not matter,
// and a crashed peer is re-reached by the dialer's backoff loop alone.
// A dialed connection opens with a hello frame ([kHelloKind][u32 LE node
// id]) so the acceptor learns who is talking.
//
// Egress queues live on the *peer*. Frames queued while the first dial to
// a peer is in flight ride that dial. When a dial fails or an established
// connection is lost, the peer's queue is dropped, and so is every frame
// sent before a redial connects; redials run only on the backoff
// schedule. A dead peer therefore costs no buffered backlog, and its next
// incarnation gets no stale replay. Queue overflow past max_queue_bytes
// drops the newest frame. Every drop is counted and traced, like a
// simulator drop — consensus tolerates loss by design, so backpressure
// and link loss convert to the fault model the protocol already handles.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/net_stats.h"
#include "common/payload.h"
#include "common/status.h"
#include "common/wire_codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "realnet/event_loop.h"

namespace marlin::realnet {

struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct TransportConfig {
  Duration reconnect_min = Duration::millis(20);
  Duration reconnect_max = Duration::seconds(1);
  /// Per-peer egress cap; beyond it the newest frame is dropped (counted
  /// in stats.messages_dropped, traced as kMsgDropped/kDropBackpressure).
  std::size_t max_queue_bytes = 64u << 20;
  /// Ingress batching: per-epoll-wake budget on bytes read from one
  /// connection. A connection with more pending data than this resumes on
  /// the next wake (level-triggered re-arm), so one hot peer cannot
  /// monopolize an iteration.
  std::size_t ingress_budget_bytes = 1u << 20;
  /// Per-wake budget on frames delivered from one connection (checked
  /// between read chunks; a single chunk's decoded frames always deliver
  /// whole, so the cutoff is approximate by up to one chunk).
  std::size_t ingress_budget_frames = 4096;
};

class TcpTransport final : public FdHandler {
 public:
  /// `node_id` is this node's global id (replicas 0..n-1, then clients).
  TcpTransport(EventLoop& loop, std::uint32_t node_id,
               TransportConfig config = {});
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Binds + listens on 127.0.0.1:`port` (0 = ephemeral) and registers
  /// with the loop. Returns the bound port.
  Result<std::uint16_t> listen(std::uint16_t port = 0);

  /// Adopts an already-listening socket (the cluster pre-binds every
  /// node's listener on the main thread so the full endpoint table exists
  /// before any node thread starts). Must be non-blocking.
  void adopt_listener(int fd);

  /// Declares where `id` can be dialed. Connections are opened lazily on
  /// first send. Loop thread only (or before the loop starts).
  void set_peer(std::uint32_t id, Endpoint ep);

  /// Ingress callback: a complete consensus frame from `from`.
  void set_handler(std::function<void(std::uint32_t, Payload)> handler) {
    handler_ = std::move(handler);
  }

  /// Optional event trace (kMsgDelivered / kMsgDropped, same schema as the
  /// simulated network). The sink's clock should be mono_now.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

  /// Queues `payload` to `to`. Loop thread only. Self-sends deliver via a
  /// posted callback (the local hop, like the simulator's loopback path).
  /// The frame reaches the kernel at the end of the current loop
  /// iteration (or sooner, once the peer's backlog passes 256 KiB).
  void send(std::uint32_t to, Payload payload);

  /// End-of-iteration hook (registered with the loop at construction):
  /// flushes all peers send() marked dirty this iteration.
  void on_loop_tick();

  /// Bytes queued but not yet handed to the kernel, across all peers.
  /// Clean shutdown drains this to zero before closing sockets.
  std::size_t pending_egress_bytes() const;

  /// Closes every socket and cancels reconnect timers. Loop thread only.
  /// The transport stays constructed (stats readable) but inert.
  void shutdown();

  const net::NodeNetStats& stats() const { return stats_; }
  std::uint32_t node_id() const { return node_id_; }

  // -- health instrumentation (loop thread only) -----------------------------
  /// Current egress backlog across all peers (alias of
  /// pending_egress_bytes, named for the telemetry plane).
  std::size_t queued_bytes() const { return pending_egress_bytes(); }
  /// Largest per-peer egress backlog ever observed (bytes).
  std::size_t egress_high_water_bytes() const;
  /// connect() attempts (first dials and re-dials alike).
  std::uint64_t dials() const { return dials_; }
  /// Dials that completed the TCP handshake.
  std::uint64_t connects_ok() const { return connects_ok_; }
  /// Dials that failed before becoming writable.
  std::uint64_t connect_failures() const { return connect_failures_; }
  /// Established connections lost mid-stream (reset, EPIPE, HUP).
  std::uint64_t connections_lost() const { return connections_lost_; }
  /// Backoff timers armed by the reconnect loop.
  std::uint64_t redials_scheduled() const { return redials_scheduled_; }
  /// Frames dropped because a peer's queue exceeded max_queue_bytes.
  std::uint64_t frames_dropped_backpressure() const {
    return frames_dropped_backpressure_;
  }
  /// Frames dropped because the destination id has no endpoint.
  std::uint64_t frames_dropped_no_peer() const {
    return frames_dropped_no_peer_;
  }
  /// Frames dropped because the link to the peer was down: its queue when
  /// a dial failed or the connection was lost, and sends before the
  /// redial connected.
  std::uint64_t frames_dropped_peer_down() const {
    return frames_dropped_peer_down_;
  }
  /// Inbound connections torn down on FrameDecoder errors (oversize or
  /// corrupt framing).
  std::uint64_t decode_errors() const { return decode_errors_; }
  /// sendmsg calls that handed ≥1 byte to the kernel (the syscalls the
  /// coalescing tick exists to minimize).
  std::uint64_t flushes() const { return flushes_; }
  /// Epoll wakes that delivered ≥1 ingress frame.
  std::uint64_t ingress_wakes() const { return ingress_wakes_; }

  /// Point-in-time view of one outbound peer link, for /status.
  struct PeerStatus {
    std::uint32_t id = 0;
    bool connected = false;   // dialed socket established
    bool connecting = false;  // connect() in flight
    std::size_t queued_bytes = 0;
    std::size_t high_water_bytes = 0;
    std::int64_t backoff_ms = 0;  // current reconnect backoff (0 = healthy)
  };
  /// All known peers, ascending id order.
  std::vector<PeerStatus> peer_statuses() const;

  /// Writes transport health series (transport.dials, transport.decode_
  /// errors, transport.egress_queued_bytes, ...) into `reg`. Counters add:
  /// pass a fresh snapshot registry.
  void export_metrics(obs::MetricsRegistry& reg) const;

  // -- FdHandler ------------------------------------------------------------
  void on_fd_event(int fd, std::uint32_t events) override;

 private:
  struct EgressFrame {
    std::array<std::uint8_t, wire::kHeaderSize> header;
    Payload payload;  // refcounted: broadcasts share one buffer n ways
  };

  /// Outbound state for a peer this node sends to.
  struct Peer {
    Endpoint ep;
    int fd = -1;             // dialed socket, -1 while disconnected
    bool connecting = false; // connect() in flight (await EPOLLOUT)
    bool want_write = false; // EPOLLOUT currently registered
    bool dirty = false;      // queued frames awaiting the tick flush
    bool down = false;       // link lost or dial failed; sends drop until
                             // a redial connects
    std::deque<EgressFrame> queue;
    std::size_t queue_bytes = 0;   // header+payload bytes still unflushed
    std::size_t high_water = 0;    // max queue_bytes ever reached
    std::size_t front_offset = 0;  // bytes of queue.front() already written
    Duration backoff = Duration::zero();
    TimerHandle reconnect;
  };

  /// Inbound state for an accepted connection.
  struct Ingress {
    wire::FrameDecoder decoder;
    std::uint32_t peer = kUnknownPeer;  // set by the hello frame
  };

  static constexpr std::uint32_t kUnknownPeer = 0xffffffffu;

  void dial(std::uint32_t id);
  void schedule_redial(std::uint32_t id);
  void on_dial_writable(std::uint32_t id);
  void flush_peer(std::uint32_t id);
  void mark_dirty(std::uint32_t id, Peer& peer);
  void close_peer_conn(std::uint32_t id);
  void link_down(std::uint32_t id, Peer& peer);
  void accept_ready();
  void ingress_readable(int fd);
  void close_ingress(int fd);
  void record_drop(const Payload& payload, std::uint32_t to,
                   std::uint64_t reason);
  void deliver_local(std::uint32_t from, Payload payload);

  EventLoop& loop_;
  std::uint32_t node_id_;
  TransportConfig config_;
  int listen_fd_ = -1;
  bool shut_down_ = false;

  std::unordered_map<std::uint32_t, Peer> peers_;
  std::unordered_map<int, std::uint32_t> fd_to_peer_;  // dialed fds
  std::unordered_map<int, Ingress> ingress_;           // accepted fds
  std::vector<std::uint32_t> dirty_;        // peers awaiting the tick flush
  std::vector<std::uint32_t> dirty_scratch_;  // swap target during the tick
  /// Decoded (from, frame) pairs of the current ingress wake; member so
  /// the hot path reuses its capacity instead of reallocating per wake.
  std::vector<std::pair<std::uint32_t, Payload>> ingress_batch_;

  std::function<void(std::uint32_t, Payload)> handler_;
  obs::TraceSink* trace_ = nullptr;
  net::NodeNetStats stats_;

  // Health counters (see the accessors above for semantics).
  std::uint64_t dials_ = 0;
  std::uint64_t connects_ok_ = 0;
  std::uint64_t connect_failures_ = 0;
  std::uint64_t connections_lost_ = 0;
  std::uint64_t redials_scheduled_ = 0;
  std::uint64_t frames_dropped_backpressure_ = 0;
  std::uint64_t frames_dropped_no_peer_ = 0;
  std::uint64_t frames_dropped_peer_down_ = 0;
  std::uint64_t decode_errors_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t ingress_wakes_ = 0;
  // Hot-path shape histograms, decimated 1-in-8 (sample vectors; same
  // policy as the loop's iteration histogram).
  obs::ValueHistogram frames_per_flush_;
  obs::ValueHistogram frames_per_wake_;
};

}  // namespace marlin::realnet
