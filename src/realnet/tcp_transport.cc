#include "realnet/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <vector>

namespace marlin::realnet {

namespace {

constexpr std::size_t kReadChunk = 64u << 10;
// Egress coalescing: send() marks the peer dirty and all dirty peers flush
// once at the end of the loop iteration (on_loop_tick), so a broadcast plus
// pipelined votes/replies to the same peer share one scatter-gather
// sendmsg. Max-defer bound: a peer whose unflushed backlog reaches this many
// bytes flushes immediately instead of waiting for the tick.
constexpr std::size_t kMaxDeferBytes = 256u << 10;
constexpr int kListenBacklog = 64;

int make_nonblocking_socket() {
  return socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
}

sockaddr_in make_addr(const Endpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr);
  return addr;
}

void set_nodelay(int fd) {
  // Consensus frames are small and latency-bound; never batch them behind
  // Nagle. Sub-MTU writev batches do the coalescing explicitly instead.
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

TcpTransport::TcpTransport(EventLoop& loop, std::uint32_t node_id,
                           TransportConfig config)
    : loop_(loop), node_id_(node_id), config_(config) {
  // One transport per loop: the end-of-iteration tick is where every frame
  // queued during the iteration reaches the kernel.
  loop_.set_tick_handler([this] { on_loop_tick(); });
}

TcpTransport::~TcpTransport() {
  if (!shut_down_) shutdown();
  loop_.set_tick_handler(nullptr);
}

Result<std::uint16_t> TcpTransport::listen(std::uint16_t port) {
  const int fd = make_nonblocking_socket();
  if (fd < 0) return error(ErrorCode::kIoError, "socket: " + std::string(strerror(errno)));
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = make_addr(Endpoint{"127.0.0.1", port});
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string msg = strerror(errno);
    close(fd);
    return error(ErrorCode::kIoError, "bind: " + msg);
  }
  if (::listen(fd, kListenBacklog) != 0) {
    const std::string msg = strerror(errno);
    close(fd);
    return error(ErrorCode::kIoError, "listen: " + msg);
  }
  socklen_t len = sizeof addr;
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  adopt_listener(fd);
  return static_cast<std::uint16_t>(ntohs(addr.sin_port));
}

void TcpTransport::adopt_listener(int fd) {
  assert(listen_fd_ < 0);
  listen_fd_ = fd;
  loop_.add_fd(listen_fd_, EPOLLIN, this);
}

void TcpTransport::set_peer(std::uint32_t id, Endpoint ep) {
  peers_[id].ep = std::move(ep);
}

void TcpTransport::send(std::uint32_t to, Payload payload) {
  if (shut_down_) return;
  const std::size_t size = payload.size();
  const std::size_t kind = wire::kind_slot(payload.view());

  if (to == node_id_) {
    // Loopback: skip the kernel entirely, deliver on a fresh loop
    // iteration (mirrors the simulator's minimal local hop).
    ++stats_.messages_sent;
    stats_.bytes_sent += size;
    ++stats_.msgs_sent_by_kind[kind];
    stats_.bytes_sent_by_kind[kind] += size;
    loop_.post([this, p = std::move(payload)]() mutable {
      deliver_local(node_id_, std::move(p));
    });
    return;
  }

  auto it = peers_.find(to);
  if (it == peers_.end()) {
    // No endpoint for this id (e.g. a replica set smaller than the
    // destination table) — indistinguishable from a dead link.
    ++stats_.messages_dropped;
    ++frames_dropped_no_peer_;
    record_drop(payload, to, obs::kDropBackpressure);
    return;
  }
  Peer& peer = it->second;
  if (peer.down) {
    // The link is down and its redial has not connected yet. Queueing
    // would hoard a backlog for a dead peer and replay it, stale, into
    // its next incarnation; consensus tolerates the loss instead.
    ++stats_.messages_dropped;
    ++frames_dropped_peer_down_;
    record_drop(payload, to, obs::kDropPeerDown);
    return;
  }
  const std::size_t framed = wire::kHeaderSize + size;
  if (peer.queue_bytes + framed > config_.max_queue_bytes) {
    ++stats_.messages_dropped;
    ++frames_dropped_backpressure_;
    record_drop(payload, to, obs::kDropBackpressure);
    return;
  }

  ++stats_.messages_sent;
  stats_.bytes_sent += size;
  ++stats_.msgs_sent_by_kind[kind];
  stats_.bytes_sent_by_kind[kind] += size;

  peer.queue.push_back(EgressFrame{
      wire::encode_header(static_cast<std::uint32_t>(size)),
      std::move(payload)});
  peer.queue_bytes += framed;
  peer.high_water = std::max(peer.high_water, peer.queue_bytes);

  if (peer.fd < 0) {
    dial(to);  // first contact: frames queued meanwhile ride this dial
  } else if (!peer.connecting) {
    // Coalesce: defer the sendmsg to the end of this loop iteration so
    // every frame queued to this peer meanwhile shares it. The max-defer
    // bound keeps a bulk burst (state transfer, catch-up batches) from
    // sitting in user space a whole iteration.
    if (peer.queue_bytes >= kMaxDeferBytes) {
      flush_peer(to);
    } else {
      mark_dirty(to, peer);
    }
  }
}

void TcpTransport::mark_dirty(std::uint32_t id, Peer& peer) {
  if (peer.dirty) return;
  peer.dirty = true;
  dirty_.push_back(id);
}

void TcpTransport::on_loop_tick() {
  // Swap to scratch: flush_peer may re-dirty (it never does today — a
  // partial write arms EPOLLOUT instead — but the swap keeps the loop safe
  // against any future re-marking).
  while (!dirty_.empty()) {
    dirty_scratch_.clear();
    dirty_scratch_.swap(dirty_);
    for (std::uint32_t id : dirty_scratch_) {
      auto it = peers_.find(id);
      if (it == peers_.end() || !it->second.dirty) continue;
      flush_peer(id);
    }
  }
}

std::size_t TcpTransport::pending_egress_bytes() const {
  std::size_t total = 0;
  for (const auto& [id, peer] : peers_) total += peer.queue_bytes;
  return total;
}

std::size_t TcpTransport::egress_high_water_bytes() const {
  std::size_t hw = 0;
  for (const auto& [id, peer] : peers_) hw = std::max(hw, peer.high_water);
  return hw;
}

std::vector<TcpTransport::PeerStatus> TcpTransport::peer_statuses() const {
  std::vector<PeerStatus> out;
  out.reserve(peers_.size());
  for (const auto& [id, peer] : peers_) {
    out.push_back(PeerStatus{id, peer.fd >= 0 && !peer.connecting,
                             peer.connecting, peer.queue_bytes,
                             peer.high_water,
                             peer.backoff.as_nanos() / 1'000'000});
  }
  std::sort(out.begin(), out.end(),
            [](const PeerStatus& a, const PeerStatus& b) {
              return a.id < b.id;
            });
  return out;
}

void TcpTransport::export_metrics(obs::MetricsRegistry& reg) const {
  reg.counter("transport.dials") += dials_;
  reg.counter("transport.connects_ok") += connects_ok_;
  reg.counter("transport.connect_failures") += connect_failures_;
  reg.counter("transport.connections_lost") += connections_lost_;
  reg.counter("transport.redials_scheduled") += redials_scheduled_;
  reg.counter("transport.frames_dropped", "reason=backpressure") +=
      frames_dropped_backpressure_;
  reg.counter("transport.frames_dropped", "reason=no_peer") +=
      frames_dropped_no_peer_;
  reg.counter("transport.frames_dropped", "reason=peer_down") +=
      frames_dropped_peer_down_;
  reg.counter("transport.decode_errors") += decode_errors_;
  reg.counter("transport.flushes") += flushes_;
  reg.counter("transport.ingress_wakes") += ingress_wakes_;
  reg.sizes("transport.frames_per_flush").merge_from(frames_per_flush_);
  // Loop-facing name (the wake is the loop's unit of work) for the
  // per-epoll-wake ingress batch size.
  reg.sizes("loop.frames_per_wake").merge_from(frames_per_wake_);
  reg.gauge("transport.egress_queued_bytes") =
      static_cast<double>(queued_bytes());
  reg.gauge("transport.egress_high_water_bytes") =
      static_cast<double>(egress_high_water_bytes());
  std::size_t connected = 0;
  for (const auto& [id, peer] : peers_) {
    if (peer.fd >= 0 && !peer.connecting) ++connected;
  }
  reg.gauge("transport.peers_connected") = static_cast<double>(connected);
  reg.gauge("transport.ingress_connections") =
      static_cast<double>(ingress_.size());
}

void TcpTransport::record_drop(const Payload& payload, std::uint32_t to,
                               std::uint64_t reason) {
  if (!trace_) return;
  trace_->record({.node = node_id_,
                  .type = obs::EventType::kMsgDropped,
                  .kind = static_cast<std::uint8_t>(
                      wire::kind_slot(payload.view())),
                  .a = to,
                  .b = reason});
}

void TcpTransport::deliver_local(std::uint32_t from, Payload payload) {
  if (shut_down_) return;
  const std::size_t size = payload.size();
  const std::size_t kind = wire::kind_slot(payload.view());
  ++stats_.messages_delivered;
  stats_.bytes_delivered += size;
  ++stats_.msgs_delivered_by_kind[kind];
  stats_.bytes_delivered_by_kind[kind] += size;
  if (trace_) {
    trace_->record({.node = node_id_,
                    .type = obs::EventType::kMsgDelivered,
                    .kind = static_cast<std::uint8_t>(kind),
                    .a = from});
  }
  if (handler_) handler_(from, std::move(payload));
}

// -- dialing ----------------------------------------------------------------

void TcpTransport::dial(std::uint32_t id) {
  Peer& peer = peers_[id];
  assert(peer.fd < 0);
  ++dials_;
  const int fd = make_nonblocking_socket();
  if (fd < 0) {
    ++connect_failures_;
    link_down(id, peer);
    return;
  }
  set_nodelay(fd);
  sockaddr_in addr = make_addr(peer.ep);
  const int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) {
    close(fd);
    ++connect_failures_;
    link_down(id, peer);
    return;
  }
  peer.fd = fd;
  peer.connecting = true;
  peer.want_write = true;
  fd_to_peer_[fd] = id;
  loop_.add_fd(fd, EPOLLOUT, this);
}

void TcpTransport::schedule_redial(std::uint32_t id) {
  Peer& peer = peers_[id];
  peer.backoff = peer.backoff == Duration::zero()
                     ? config_.reconnect_min
                     : std::min(peer.backoff * 2, config_.reconnect_max);
  ++redials_scheduled_;
  peer.reconnect = loop_.scheduler().schedule(peer.backoff, [this, id] {
    auto it = peers_.find(id);
    if (it == peers_.end() || shut_down_) return;
    if (it->second.fd < 0) dial(id);
  });
}

void TcpTransport::on_dial_writable(std::uint32_t id) {
  Peer& peer = peers_[id];
  if (peer.connecting) {
    int err = 0;
    socklen_t len = sizeof err;
    getsockopt(peer.fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      close_peer_conn(id);
      return;
    }
    peer.connecting = false;
    peer.down = false;
    peer.backoff = Duration::zero();
    ++connects_ok_;
    // Identify ourselves before any consensus frame. The hello rides the
    // same queue (front) so ordering is inherent. Hello bytes are not
    // consensus traffic: excluded from stats, included in queue_bytes.
    const Bytes hello = wire::hello_payload(node_id_);
    peer.queue.push_front(EgressFrame{
        wire::encode_header(static_cast<std::uint32_t>(hello.size())),
        Payload(hello)});
    peer.queue_bytes += wire::kHeaderSize + hello.size();
    peer.high_water = std::max(peer.high_water, peer.queue_bytes);
    assert(peer.front_offset == 0);
  }
  flush_peer(id);
}

void TcpTransport::flush_peer(std::uint32_t id) {
  Peer& peer = peers_[id];
  peer.dirty = false;  // everything queued so far is handled right here
  if (peer.fd < 0 || peer.connecting) return;

  while (!peer.queue.empty()) {
    // Scatter-gather egress: up to 16 frames per writev, header and
    // refcounted payload gathered without copying either.
    iovec iov[32];
    int iovcnt = 0;
    std::size_t first_skip = peer.front_offset;
    for (const EgressFrame& f : peer.queue) {
      if (iovcnt + 2 > 32) break;
      const std::uint8_t* hdr = f.header.data();
      std::size_t hdr_len = f.header.size();
      const std::uint8_t* body = f.payload.data();
      std::size_t body_len = f.payload.size();
      if (first_skip > 0) {  // only the front frame is partially written
        const std::size_t skip_hdr = std::min(first_skip, hdr_len);
        hdr += skip_hdr;
        hdr_len -= skip_hdr;
        first_skip -= skip_hdr;
        body += first_skip;
        body_len -= first_skip;
        first_skip = 0;
      }
      if (hdr_len > 0) {
        iov[iovcnt++] = {const_cast<std::uint8_t*>(hdr), hdr_len};
      }
      if (body_len > 0) {
        iov[iovcnt++] = {const_cast<std::uint8_t*>(body), body_len};
      }
    }
    if (iovcnt == 0) {
      // Front frame fully skipped (empty payload edge case): retire it.
      peer.queue.pop_front();
      peer.front_offset = 0;
      continue;
    }
    // sendmsg, not writev: MSG_NOSIGNAL turns a write to a peer that died
    // mid-flight into an EPIPE (handled below) instead of a process-fatal
    // SIGPIPE.
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t n = sendmsg(peer.fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_peer_conn(id);
      return;
    }
    peer.queue_bytes -= static_cast<std::size_t>(n);
    std::size_t written = static_cast<std::size_t>(n) + peer.front_offset;
    std::uint64_t retired = 0;
    while (!peer.queue.empty()) {
      const std::size_t frame_size =
          wire::kHeaderSize + peer.queue.front().payload.size();
      if (written < frame_size) break;
      written -= frame_size;
      peer.queue.pop_front();
      ++retired;
    }
    peer.front_offset = written;
    ++flushes_;
    if ((flushes_ & 7) == 0) frames_per_flush_.record(retired);
  }

  const bool need_write = !peer.queue.empty();
  if (need_write != peer.want_write) {
    peer.want_write = need_write;
    loop_.mod_fd(peer.fd, need_write ? static_cast<std::uint32_t>(EPOLLOUT)
                                     : 0u);
  }
}

void TcpTransport::close_peer_conn(std::uint32_t id) {
  Peer& peer = peers_[id];
  if (peer.fd < 0) return;
  if (peer.connecting) {
    ++connect_failures_;  // dial never became writable
  } else {
    ++connections_lost_;  // established stream reset under us
  }
  loop_.del_fd(peer.fd);
  fd_to_peer_.erase(peer.fd);
  close(peer.fd);
  peer.fd = -1;
  peer.connecting = false;
  peer.want_write = false;
  link_down(id, peer);
}

void TcpTransport::link_down(std::uint32_t id, Peer& peer) {
  // Drop the backlog rather than carry it to the next connection: by then
  // it is stale, and for a crashed peer it would grow to max_queue_bytes
  // and replay into the relaunched incarnation.
  for (const EgressFrame& f : peer.queue) {
    std::uint32_t hello_id = 0;
    if (wire::parse_hello(f.payload.view(), &hello_id)) continue;
    ++stats_.messages_dropped;
    ++frames_dropped_peer_down_;
    record_drop(f.payload, id, obs::kDropPeerDown);
  }
  peer.queue.clear();
  peer.queue_bytes = 0;
  peer.front_offset = 0;
  peer.down = true;
  if (!shut_down_) schedule_redial(id);
}

// -- ingress ----------------------------------------------------------------

void TcpTransport::accept_ready() {
  while (true) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: wait for next EPOLLIN
    set_nodelay(fd);
    ingress_.emplace(fd, Ingress{wire::FrameDecoder(), kUnknownPeer});
    loop_.add_fd(fd, EPOLLIN, this);
  }
}

void TcpTransport::ingress_readable(int fd) {
  auto it = ingress_.find(fd);
  if (it == ingress_.end()) return;
  // Batch decode: drain the socket under the per-wake budget, decode every
  // complete frame, then deliver the whole batch — per-frame epoll wakeups
  // collapse into one wake per burst. Past the budget the connection is
  // simply left readable; level-triggered epoll re-fires on the next
  // iteration and decoding resumes where it stopped.
  std::uint8_t buf[kReadChunk];
  std::size_t bytes_read = 0;
  bool close_after = false;
  ingress_batch_.clear();
  while (bytes_read < config_.ingress_budget_bytes &&
         ingress_batch_.size() < config_.ingress_budget_frames) {
    // Cap the read at the remaining byte budget so the budget binds even
    // when one kernel buffer holds the whole burst. The decoder is still
    // fully drained after every chunk — only partial-frame bytes carry
    // over — so a budget cutoff never strands complete frames (the socket
    // stays readable and level-triggered epoll re-fires next iteration).
    const std::size_t want = std::min(
        sizeof buf, config_.ingress_budget_bytes - bytes_read);
    const ssize_t n = recv(fd, buf, want, 0);
    if (n < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK) close_after = true;
      break;
    }
    if (n == 0) {  // peer closed (crash or clean shutdown)
      close_after = true;
      break;
    }
    bytes_read += static_cast<std::size_t>(n);
    Ingress& in = it->second;
    if (!in.decoder.feed(BytesView(buf, static_cast<std::size_t>(n)))
             .is_ok()) {
      ++decode_errors_;  // oversize/corrupt stream: drop the connection
      close_after = true;
      break;
    }
    Bytes frame;
    while (in.decoder.next(frame)) {
      std::uint32_t hello_id = 0;
      if (wire::parse_hello(BytesView(frame.data(), frame.size()),
                            &hello_id)) {
        in.peer = hello_id;
        continue;
      }
      if (in.peer == kUnknownPeer) {
        close_after = true;  // consensus frame before hello: protocol error
        break;
      }
      ingress_batch_.emplace_back(in.peer, Payload(std::move(frame)));
      frame = Bytes{};
    }
    if (close_after) break;
  }

  if (!ingress_batch_.empty()) {
    ++ingress_wakes_;
    if ((ingress_wakes_ & 7) == 0) {
      frames_per_wake_.record(ingress_batch_.size());
    }
    for (auto& [from, payload] : ingress_batch_) {
      deliver_local(from, std::move(payload));
      // The handler may have shut the transport down (test teardown).
      if (shut_down_) {
        ingress_batch_.clear();
        return;
      }
    }
    ingress_batch_.clear();
  }
  if (close_after && ingress_.count(fd) > 0) close_ingress(fd);
}

void TcpTransport::close_ingress(int fd) {
  loop_.del_fd(fd);
  close(fd);
  ingress_.erase(fd);
}

// -- events -----------------------------------------------------------------

void TcpTransport::on_fd_event(int fd, std::uint32_t events) {
  if (fd == listen_fd_) {
    accept_ready();
    return;
  }
  if (auto it = fd_to_peer_.find(fd); it != fd_to_peer_.end()) {
    const std::uint32_t id = it->second;
    if (events & (EPOLLERR | EPOLLHUP)) {
      close_peer_conn(id);
      return;
    }
    if (events & EPOLLOUT) on_dial_writable(id);
    return;
  }
  if (ingress_.count(fd)) {
    if (events & (EPOLLIN | EPOLLERR | EPOLLHUP)) ingress_readable(fd);
  }
}

void TcpTransport::shutdown() {
  shut_down_ = true;
  dirty_.clear();
  for (auto& [id, peer] : peers_) {
    peer.dirty = false;
    peer.reconnect.cancel();
    if (peer.fd >= 0) {
      loop_.del_fd(peer.fd);
      close(peer.fd);
      peer.fd = -1;
    }
    peer.queue.clear();
    peer.queue_bytes = 0;
    peer.front_offset = 0;
  }
  fd_to_peer_.clear();
  std::vector<int> ingress_fds;
  for (const auto& [fd, in] : ingress_) ingress_fds.push_back(fd);
  for (int fd : ingress_fds) close_ingress(fd);
  if (listen_fd_ >= 0) {
    loop_.del_fd(listen_fd_);
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace marlin::realnet
