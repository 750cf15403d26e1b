// Deterministic in-process harness for protocol state machines: n replica
// instances wired through a FIFO message bus with injectable faults. No
// simulator, no timing — tests control exactly which messages flow, in
// which order, and when view timers "fire". This is what lets unit tests
// force the paper's view-change cases (V1/V2/V3, R1/R2/R3) precisely.
//
// Byzantine senders use the same ByzantineBox the runtime installs
// (faults/byzantine.h): set_byzantine(r, mode) reshapes replica r's
// outgoing envelopes at the bus boundary, so tests exercise the exact
// wire-level misbehaviour the chaos harness injects.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "consensus/block_frames.h"
#include "consensus/hotstuff.h"
#include "consensus/marlin.h"
#include "faults/byzantine.h"

namespace marlin::consensus::testing {

struct BusMessage {
  ReplicaId from;
  ReplicaId to;
  types::Envelope envelope;
  /// Set by post_bypassing: skips crash/drop filtering (test injections
  /// that impersonate a muted replica — the Byzantine case).
  bool bypass = false;
};

class ProtocolHarness;

/// Environment adapter: routes protocol output onto the harness bus.
class BusEnv final : public ProtocolEnv {
 public:
  BusEnv(ProtocolHarness& harness, ReplicaId id)
      : harness_(harness), id_(id) {}

  void send(ReplicaId to, const types::Envelope& env) override;
  void broadcast(const types::Envelope& env) override;
  void deliver(
      const types::Block& block,
      const std::vector<const types::Operation*>& executable) override {
    // Record the block with its *executed* ops (exactly-once view).
    types::Block copy = block;
    copy.ops.clear();
    for (const types::Operation* op : executable) copy.ops.push_back(*op);
    delivered.push_back(std::move(copy));
  }
  void entered_view(ViewNumber v) override { views_entered.push_back(v); }
  void progressed() override { ++progress_events; }
  void charge(Cost cost, std::uint64_t count) override {
    if (cost == Cost::kSign) signs += count;
    if (cost == Cost::kVerify) verifies += count;
    if (cost == Cost::kHashBytes) hash_bytes += count;
  }

  std::vector<types::Block> delivered;
  std::vector<ViewNumber> views_entered;
  std::uint64_t progress_events = 0;
  std::uint64_t signs = 0;
  std::uint64_t verifies = 0;
  std::uint64_t hash_bytes = 0;

 private:
  ProtocolHarness& harness_;
  ReplicaId id_;
};

enum class Kind { kMarlin, kHotStuff };

class ProtocolHarness {
 public:
  explicit ProtocolHarness(Kind kind, std::uint32_t f = 1,
                           ReplicaConfig overrides = {}) {
    const std::uint32_t n = 3 * f + 1;
    suite_ = crypto::make_fast_suite(n, to_bytes("harness-seed"));
    for (ReplicaId r = 0; r < n; ++r) {
      envs_.push_back(std::make_unique<BusEnv>(*this, r));
      ReplicaConfig cfg = overrides;
      cfg.id = r;
      cfg.quorum = QuorumParams::for_f(f);
      if (kind == Kind::kMarlin) {
        replicas_.push_back(
            std::make_unique<MarlinReplica>(cfg, *suite_, *envs_.back()));
      } else {
        replicas_.push_back(
            std::make_unique<HotStuffReplica>(cfg, *suite_, *envs_.back()));
      }
    }
    crashed_.assign(n, false);
    byzantine_.resize(n);
  }

  std::uint32_t n() const { return static_cast<std::uint32_t>(replicas_.size()); }

  ReplicaBase& replica(ReplicaId i) { return *replicas_[i]; }
  MarlinReplica& marlin(ReplicaId i) {
    return *static_cast<MarlinReplica*>(replicas_[i].get());
  }
  HotStuffReplica& hotstuff(ReplicaId i) {
    return *static_cast<HotStuffReplica*>(replicas_[i].get());
  }
  BusEnv& env(ReplicaId i) { return *envs_[i]; }
  const crypto::SignatureSuite& suite() const { return *suite_; }

  void start_all() {
    for (auto& r : replicas_) r->start();
  }

  /// Push a message onto the bus (tests can forge anything). A sender with
  /// an active ByzantineBox has its envelope transformed — possibly into
  /// nothing — exactly as runtime::ReplicaHost::send would.
  void post(ReplicaId from, ReplicaId to, types::Envelope env) {
    if (from < byzantine_.size() && byzantine_[from].active()) {
      auto out = byzantine_[from].transform(env, from, to);
      if (!out) return;
      env = std::move(*out);
    }
    queue_.push_back(BusMessage{from, to, std::move(env), false});
  }

  /// Forged injection that ignores crash/drop filters (Byzantine sender).
  void post_bypassing(ReplicaId from, ReplicaId to, types::Envelope env) {
    queue_.push_back(BusMessage{from, to, std::move(env), true});
  }

  /// Drop predicate: return true to drop (applied at delivery time).
  void set_drop(std::function<bool(const BusMessage&)> drop) {
    drop_ = std::move(drop);
  }

  void crash(ReplicaId r) { crashed_[r] = true; }

  /// Installs wire-level Byzantine behaviour on replica r's outgoing
  /// messages (kHonest reverts it).
  void set_byzantine(ReplicaId r, faults::ByzantineMode mode) {
    byzantine_[r].set_mode(mode);
  }
  faults::ByzantineBox& byzantine(ReplicaId r) { return byzantine_[r]; }

  /// Delivers one queued message; returns false when the bus is idle.
  bool step() {
    while (!queue_.empty()) {
      BusMessage m = std::move(queue_.front());
      queue_.pop_front();
      if (!m.bypass) {
        if (crashed_[m.from] || crashed_[m.to]) continue;
        if (drop_ && drop_(m)) continue;
      }
      if (crashed_[m.to]) continue;
      replicas_[m.to]->handle_message(m.from, m.envelope);
      return true;
    }
    return false;
  }

  /// Pumps the bus dry (bounded).
  std::size_t deliver_all(std::size_t max_steps = 100000) {
    std::size_t steps = 0;
    while (steps < max_steps && step()) ++steps;
    return steps;
  }

  void submit_to_all(const types::Operation& op) {
    for (std::uint32_t r = 0; r < n(); ++r) {
      if (!crashed_[r]) replicas_[r]->submit(op);
    }
  }

  void timeout(ReplicaId r) {
    if (!crashed_[r]) replicas_[r]->on_view_timeout();
  }

  void timeout_all() {
    for (std::uint32_t r = 0; r < n(); ++r) timeout(r);
    // View advancement is quorum-gated on TimeoutNotice broadcasts (see
    // ReplicaBase::on_view_timeout). Deliver the notices ahead of older
    // queued traffic so "everyone timed out" resolves into "everyone
    // advanced" immediately — the semantics these unit tests drive —
    // instead of letting still-queued old-view messages commit first.
    for (std::size_t i = 0; i < queue_.size();) {
      if (queue_[i].envelope.kind() == MsgKind::kTimeoutNotice) {
        BusMessage m = std::move(queue_[i]);
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
        if (!m.bypass) {
          if (crashed_[m.from] || crashed_[m.to]) continue;
          if (drop_ && drop_(m)) continue;
        }
        if (!crashed_[m.to]) replicas_[m.to]->handle_message(m.from, m.envelope);
      } else {
        ++i;
      }
    }
  }

  /// Total blocks delivered at replica r.
  const std::vector<types::Block>& delivered(ReplicaId r) {
    return envs_[r]->delivered;
  }

  bool all_consistent() {
    for (std::uint32_t i = 0; i < n(); ++i) {
      if (replicas_[i]->safety_violated()) return false;
      for (std::uint32_t j = i + 1; j < n(); ++j) {
        const auto& a = *replicas_[i];
        const auto& b = *replicas_[j];
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

  std::size_t queued() const { return queue_.size(); }
  std::deque<BusMessage>& queue() { return queue_; }

 private:
  std::unique_ptr<crypto::SignatureSuite> suite_;
  std::vector<std::unique_ptr<BusEnv>> envs_;
  std::vector<std::unique_ptr<ReplicaBase>> replicas_;
  std::deque<BusMessage> queue_;
  std::vector<bool> crashed_;
  std::vector<faults::ByzantineBox> byzantine_;
  std::function<bool(const BusMessage&)> drop_;
};

inline void BusEnv::send(ReplicaId to, const types::Envelope& env) {
  harness_.post(id_, to, env);
}

inline void BusEnv::broadcast(const types::Envelope& env) {
  for (ReplicaId r = 0; r < harness_.n(); ++r) harness_.post(id_, r, env);
}

/// Convenience: make a small operation.
inline types::Operation op_of(ClientId c, RequestId r, std::size_t size = 16) {
  return types::Operation{c, r, Bytes(size, static_cast<std::uint8_t>(r))};
}

/// Decodes a bus message body if it matches the kind; nullopt otherwise.
template <typename M>
std::optional<M> peek(const BusMessage& m, types::MsgKind kind) {
  if (m.envelope.kind() != kind) return std::nullopt;
  auto r = types::open_envelope<M>(m.envelope);
  if (!r.is_ok()) return std::nullopt;
  return std::move(r).take();
}

/// Blocks a frame carries, opened the way a receiver opens them (digests
/// pinned from the frame's slot); empty for other kinds.
inline std::vector<types::Block> framed_blocks(const types::Envelope& env) {
  switch (env.kind()) {
    case MsgKind::kProposal: {
      std::vector<types::Block> out;
      if (auto m = open_framed<types::ProposalMsg>(env); m.is_ok()) {
        for (auto& e : m.value().entries) out.push_back(std::move(e.block));
      }
      return out;
    }
    case MsgKind::kFetchResponse: {
      if (auto m = open_framed<types::FetchResponseMsg>(env); m.is_ok()) {
        return {std::move(m.value().block)};
      }
      return {};
    }
    case MsgKind::kSnapshotResponse: {
      if (auto m = open_framed<types::SnapshotResponseMsg>(env); m.is_ok()) {
        return std::move(m.value().suffix);
      }
      return {};
    }
    default:
      return {};
  }
}

}  // namespace marlin::consensus::testing
