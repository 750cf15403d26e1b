#include "runtime/client_process.h"

#include <algorithm>

namespace marlin::runtime {

void ClientProcess::start() {
  for (std::uint32_t i = 0; i < config_.window; ++i) issue_next();
  flush_burst();
}

void ClientProcess::quiesce() {
  quiesced_ = true;
  for (auto& [id, p] : pending_) p.retransmit.cancel();
}

void ClientProcess::issue_next() {
  if (quiesced_) return;
  if (config_.max_requests != 0 && next_request_ > config_.max_requests) {
    return;
  }
  const RequestId id = next_request_++;
  const Bytes payload = rng_.next_bytes(config_.payload_size);
  payloads_[id] = payload;
  Pending& p = pending_[id];
  p.first_sent = now();
  burst_.push_back(types::Operation{config_.id, id, payload});
  if (config_.trace) {
    // First issue only; retransmissions reuse the original submit time.
    config_.trace->record({.node = node_id(),
                           .type = obs::EventType::kClientSubmit,
                           .a = id,
                           .b = config_.id});
  }
  arm_retransmit(id);
}

void ClientProcess::arm_retransmit(RequestId id) {
  if (quiesced_) return;
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  it->second.retransmit.cancel();
  it->second.retransmit = timers().schedule_at(
      now() + config_.retransmit_timeout, [this, id] {
        auto pit = pending_.find(id);
        if (pit == pending_.end()) return;
        ++retransmissions_;
        burst_.push_back(types::Operation{config_.id, id, payloads_[id]});
        flush_burst();
        arm_retransmit(id);
      });
}

/// Sends every buffered request (issued within the current event) as one
/// frame to each replica.
void ClientProcess::flush_burst() {
  if (burst_.empty()) return;
  types::ClientRequestMsg msg;
  msg.ops = std::move(burst_);
  burst_.clear();
  // Serialize once; every replica's copy shares the same buffer.
  const Payload wire(
      types::make_envelope(types::MsgKind::kClientRequest, msg).serialize());
  for (ReplicaId r = 0; r < config_.quorum.n; ++r) transmit(r, wire);
}

void ClientProcess::handle_message(std::uint32_t from, Payload payload) {
  auto env = types::Envelope::parse(payload.view());
  if (!env.is_ok() || env.value().kind != types::MsgKind::kClientReply) return;
  auto reply = types::open_envelope<types::ClientReplyMsg>(env.value());
  if (!reply.is_ok()) return;
  const types::ClientReplyMsg& m = reply.value();
  if (m.client != config_.id) return;
  // Acks are keyed by the authenticated sender, never by the self-declared
  // replica field: one node claiming f+1 identities must not complete a
  // request on its own.
  if (from >= config_.quorum.n || m.replica != from) return;

  for (RequestId id : m.requests) {
    auto it = pending_.find(id);
    if (it == pending_.end()) continue;
    auto& acks = it->second.acks_by_result[m.result];
    acks.insert(from);
    if (acks.size() < config_.quorum.reply_quorum()) continue;

    latency_.record(now() - it->second.first_sent);
    completed_.record(now());
    if (config_.trace) {
      // The reply result carries the committing block's leading 8 hash
      // bytes — the same compact id replicas stamp on their trace events.
      std::uint64_t block_id = 0;
      const std::size_t n = std::min<std::size_t>(m.result.size(), 8);
      for (std::size_t i = 0; i < n; ++i) {
        block_id = (block_id << 8) | m.result[i];
      }
      config_.trace->record({.node = node_id(),
                             .type = obs::EventType::kReplyAccepted,
                             .view = m.view,
                             .height = m.height,
                             .block = block_id,
                             .a = id,
                             .b = config_.id});
    }
    it->second.retransmit.cancel();
    pending_.erase(it);
    payloads_.erase(id);
    issue_next();
  }
  flush_burst();
}

}  // namespace marlin::runtime
