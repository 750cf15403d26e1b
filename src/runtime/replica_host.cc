#include "runtime/replica_host.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "common/serialize.h"

namespace marlin::runtime {

using consensus::Cost;
using types::Envelope;
using types::MsgKind;

namespace {
// Durable consensus state (PersistentState) lives under a fixed key; the
// write-ahead-voting hook overwrites it in place on every vote/lock change.
constexpr const char* kPStateKey = "meta/pstate";

/// The message-level justify of each entry of a proposal body, read past
/// the blocks' op batches without decoding (or copying) them.
Result<std::vector<types::Justify>> proposal_justifies(BytesView body) {
  Reader r(body);
  if (Status s = r.skip(1 + 8); !s.is_ok()) return s;  // phase, view
  std::uint64_t count = 0;
  if (Status s = r.varint(count); !s.is_ok()) return s;
  if (count == 0 || count > 2) {
    return error(ErrorCode::kCorruption, "bad proposal entry count");
  }
  std::vector<types::Justify> out;
  for (std::uint64_t i = 0; i < count; ++i) {
    // Shadow flag, then the block header: parent link, parent view, view,
    // height, virtual flag.
    if (Status s = r.skip(1 + crypto::kHashSize + 8 + 8 + 8 + 1);
        !s.is_ok()) {
      return s;
    }
    std::uint64_t ops = 0;
    if (Status s = r.varint(ops); !s.is_ok()) return s;
    for (std::uint64_t k = 0; k < ops; ++k) {
      std::uint64_t len = 0;
      if (Status s = r.skip(4 + 8); !s.is_ok()) return s;  // client, request
      if (Status s = r.varint(len); !s.is_ok()) return s;
      if (Status s = r.skip(len); !s.is_ok()) return s;
    }
    // The block's own justify, then the entry's.
    if (Result<types::Justify> j = types::Justify::decode(r); !j.is_ok()) {
      return j.status();
    }
    Result<types::Justify> j = types::Justify::decode(r);
    if (!j.is_ok()) return j.status();
    out.push_back(std::move(j).take());
  }
  return out;
}
}  // namespace

ReplicaHost::ReplicaHost(const crypto::SignatureSuite& suite,
                         ReplicaHostConfig config,
                         std::unique_ptr<storage::Env> env)
    : suite_(suite),
      config_(std::move(config)),
      db_env_(std::move(env)),
      pacemaker_(config_.pacemaker.scaled_for(config_.replica.quorum.n)) {}

Status ReplicaHost::open() {
  last_activity_ = now();
  storage::KVStoreOptions db_options;
  db_options.sync_writes = config_.sync_writes;
  db_options.trace = config_.trace;
  db_options.trace_node = config_.replica.id;
  auto db = storage::KVStore::open(*db_env_, db_options);
  // Unrecoverable store (e.g. mid-file WAL corruption): surface the error
  // and leave the replica dead rather than rejoin with bad state.
  if (!db.is_ok()) return recovery_failed(db.status());
  db_ = std::move(db).take();

  // Write-ahead voting makes the persisted state the record of every vote
  // an earlier incarnation cast. One that is present but unreadable must
  // not pass for a fresh start: voting again from genesis state could
  // double-vote.
  consensus::PersistentState ps;
  recovered_ = false;
  if (auto rec = db_->get(kPStateKey); rec.is_ok()) {
    Reader r(rec.value());
    auto decoded = consensus::PersistentState::decode(r);
    if (!decoded.is_ok() || !r.expect_exhausted().is_ok()) {
      return recovery_failed(error(ErrorCode::kCorruption,
                                   "undecodable persisted consensus state"));
    }
    ps = std::move(decoded).take();
    recovered_ = true;
  }
  make_protocol();
  if (recovered_) protocol_->restore(ps);
  restored_height_ = ps.committed_height;
  recovering_start_ = recovered_;
  return Status::ok();
}

void ReplicaHost::make_protocol() {
  if (config_.protocol == ProtocolKind::kMarlin) {
    protocol_ = std::make_unique<consensus::MarlinReplica>(config_.replica,
                                                           suite_, *this);
  } else {
    protocol_ = std::make_unique<consensus::HotStuffReplica>(config_.replica,
                                                             suite_, *this);
  }
}

void ReplicaHost::start() {
  last_activity_ = now();
  const bool recovering = std::exchange(recovering_start_, false);
  const bool wiped = std::exchange(wiped_, false);
  run_step([this, recovering, wiped] {
    if (stopped_) return;
    if (recovering) {
      // Model recovery I/O: one state read plus one read per replayed WAL
      // record. The resulting charge is the modeled recovery duration.
      const std::uint64_t replayed = db_->wal_records_replayed();
      const Duration recovery = spend(Cost::kStorageReads, 1 + replayed);
      metrics_.counter("recovery.restarts") += 1;
      metrics_.counter("recovery.wal_records_replayed") += replayed;
      metrics_.gauge("recovery.duration_ms") = recovery.as_seconds_f() * 1e3;
      trace({.type = obs::EventType::kReplicaRestart,
             .view = protocol_->current_view(),
             .height = restored_height_,
             .a = wiped ? 1u : 0u,
             .b = replayed});
      // An amnesia restart enters recovery BEFORE start(): with no durable
      // record of past votes, starting normally could re-propose or re-vote
      // in a view the pre-wipe self already signed in (equivocation). The
      // recovery gate holds until peers re-anchor the frontier.
      if (wiped) protocol_->begin_recovery();
    }
    protocol_->start();
  });
}

Status ReplicaHost::restart(bool wipe) {
  // Everything volatile dies with the process: the protocol instance
  // (replaced once the store has reopened), the armed view timer, and the
  // pacemaker's backoff ladder. Only the store survives — unless this is an
  // amnesia restart.
  view_timer_.cancel();
  pacemaker_ =
      Pacemaker(config_.pacemaker.scaled_for(config_.replica.quorum.n));
  blocks_since_checkpoint_ = 0;
  commit_seen_in_view_ = false;
  stopped_ = false;

  db_.reset();
  if (wipe) {
    for (const std::string& name : db_env_->list_files()) {
      Status s = db_env_->remove_file(name);
      if (!s.is_ok()) return recovery_failed(std::move(s));
    }
  }
  if (Status s = open(); !s.is_ok()) return s;
  ++restarts_;
  recovering_start_ = true;
  wiped_ = wipe;
  start();
  return Status::ok();
}

Status ReplicaHost::recovery_failed(Status s) {
  metrics_.counter("recovery.failures") += 1;
  stopped_ = true;
  return s;
}

void ReplicaHost::stop() {
  stopped_ = true;
  view_timer_.cancel();
}

consensus::MarlinReplica* ReplicaHost::marlin() {
  return dynamic_cast<consensus::MarlinReplica*>(protocol_.get());
}

void ReplicaHost::handle_message(std::uint32_t from, Payload payload) {
  if (stopped_) return;
  const std::size_t size = payload.size();
  spend(Cost::kSerializeBytes, size);
  // The envelope takes the frame itself: the protocol decodes straight out
  // of the buffer the transport received into.
  auto env = Envelope::parse(std::move(payload));
  if (!env.is_ok()) return;
  if (env.value().kind() == MsgKind::kSnapshotResponse) {
    metrics_.counter("state_transfer.bytes") += size;
  }
  const std::uint64_t skipped = protocol_->skipped_heights();
  protocol_->handle_message(static_cast<ReplicaId>(from), env.value());
  if (protocol_->skipped_heights() != skipped) {
    metrics_.counter("state_transfer.skipped_heights") +=
        protocol_->skipped_heights() - skipped;
  }
}

// ---------------------------------------------------------------------------
// ProtocolEnv
// ---------------------------------------------------------------------------

std::uint32_t ReplicaHost::count_authenticators(
    const types::Envelope& env) const {
  // An authenticator is a signature, partial signature, or threshold
  // signature (paper §III). SigGroup QCs count each contained signature,
  // matching the paper's accounting for the signature instantiation.
  auto justify_count = [](const types::Justify& j) {
    std::uint32_t c = 0;
    if (j.qc) c += std::max<std::size_t>(1, j.qc->sigs.parts.size());
    if (j.vc) c += std::max<std::size_t>(1, j.vc->sigs.parts.size());
    return c;
  };
  switch (env.kind()) {
    case MsgKind::kVote: {
      auto m = types::open_envelope<types::VoteMsg>(env);
      if (!m.is_ok()) return 0;
      std::uint32_t c = 1;
      if (m.value().locked_qc) {
        c += std::max<std::size_t>(1, m.value().locked_qc->sigs.parts.size());
      }
      return c;
    }
    case MsgKind::kProposal: {
      // Certificates only: the blocks' op batches are skipped, not decoded.
      auto justifies = proposal_justifies(env.body());
      if (!justifies.is_ok()) return 0;
      std::uint32_t c = 0;
      for (const types::Justify& j : justifies.value()) c += justify_count(j);
      return c;
    }
    case MsgKind::kQcNotice: {
      auto m = types::open_envelope<types::QcNoticeMsg>(env);
      if (!m.is_ok()) return 0;
      std::uint32_t c = std::max<std::size_t>(1, m.value().qc.sigs.parts.size());
      if (m.value().aux) {
        c += std::max<std::size_t>(1, m.value().aux->sigs.parts.size());
      }
      return c;
    }
    case MsgKind::kViewChange: {
      auto m = types::open_envelope<types::ViewChangeMsg>(env);
      if (!m.is_ok()) return 0;
      return 1 + justify_count(m.value().high_qc);
    }
    default:
      return 0;
  }
}

void ReplicaHost::send(ReplicaId to, const Envelope& env) {
  if (stopped_) return;
  if (byzantine_.active()) {
    // The box may mutate (equivocation, corrupted sigs), replace (stale
    // replay), or suppress (silence) the envelope, per destination.
    auto out = byzantine_.transform(env, config_.replica.id, to);
    if (!out) return;
    send_wire(to, *out, authenticators_in(*out));
    return;
  }
  send_wire(to, env, authenticators_in(env));
}

std::uint32_t ReplicaHost::authenticators_in(const Envelope& env) const {
  return count_authenticators_ ? count_authenticators(env) : 0;
}

void ReplicaHost::send_wire(ReplicaId to, const Envelope& env,
                            std::uint32_t authenticators) {
  Payload wire = env.serialize();
  spend(Cost::kSerializeBytes, wire.size());
  traffic_.authenticators_sent += authenticators;
  // kMsgSent is recorded here, not in the transport, because only the
  // protocol host knows the current view — what per-view leader-egress
  // analysis (trace_inspect) attributes bytes by.
  trace({.type = obs::EventType::kMsgSent,
         .kind = static_cast<std::uint8_t>(env.kind()),
         .view = protocol_ ? protocol_->current_view() : 0,
         .a = wire.size(),
         .b = authenticators});
  transmit(to, std::move(wire));
}

void ReplicaHost::broadcast(const Envelope& env) {
  if (stopped_) return;
  const std::uint32_t n = config_.replica.quorum.n;
  // The envelope already is the serialized frame: every destination (the
  // loopback self-send included) shares its refcounted buffer, and its
  // authenticators are counted once. The serialize charge and kMsgSent
  // trace stay per destination. A Byzantine box gets first refusal per
  // destination; only destinations whose frame it actually tampers with
  // get a private frame (copy-on-write), counted on its own.
  const std::uint32_t authenticators = authenticators_in(env);
  for (ReplicaId r = 0; r < n; ++r) {
    if (byzantine_.active()) {
      auto fx = byzantine_.transform_wire(env, config_.replica.id, r);
      if (!fx.out) continue;  // suppressed for this destination
      if (fx.mutated) {
        send_wire(r, *fx.out, authenticators_in(*fx.out));
        continue;
      }
    }
    send_wire(r, env, authenticators);
  }
}

void ReplicaHost::deliver(
    const types::Block& block,
    const std::vector<const types::Operation*>& executable) {
  if (stopped_) return;
  const TimePoint at = now();
  last_activity_ = at;
  if (!commit_seen_in_view_) {
    first_commit_in_view_ = at;
    commit_seen_in_view_ = true;
  }

  // Execute: application cost per op, one store write for the block.
  spend(Cost::kExecuteOps, executable.size());
  std::size_t op_bytes = 0;
  for (const types::Operation* op : executable) {
    op_bytes += types::op_wire_size(*op);
  }
  spend(Cost::kStorageWrite, op_bytes + 160);

  // Persist a compact block record.
  char key[32];
  std::snprintf(key, sizeof key, "blk/%012llu",
                static_cast<unsigned long long>(block.height));
  Writer rec;
  rec.u64(block.view);
  rec.u64(block.height);
  rec.varint(executable.size());
  rec.raw(block.hash().view());
  (void)db_->put(key, rec.buffer());

  // Periodic checkpoint (the paper's GC every 5000 blocks).
  if (++blocks_since_checkpoint_ >= config_.checkpoint_interval) {
    spend(Cost::kCheckpoint, blocks_since_checkpoint_);
    (void)db_->checkpoint();
    blocks_since_checkpoint_ = 0;
    ++checkpoints_run_;
    metrics_.counter("storage.checkpoints") += 1;
  }

  // Reply to clients: one batched message per client, padded so wire bytes
  // equal |requests| × reply_size.
  std::map<ClientId, std::vector<RequestId>> by_client;
  for (const types::Operation* op : executable) {
    by_client[op->client].push_back(op->request);
  }
  const types::Hash256 block_hash = block.hash();
  for (auto& [client, requests] : by_client) {
    types::ClientReplyMsg reply;
    reply.client = client;
    reply.replica = config_.replica.id;
    reply.view = block.view;
    reply.height = block.height;
    reply.result.assign(block_hash.data.begin(), block_hash.data.begin() + 8);
    const std::size_t body_overhead = 45 + 8 * requests.size();
    const std::size_t target = config_.reply_size * requests.size();
    if (target > body_overhead) {
      reply.padding.assign(target - body_overhead, 0xcd);
    }
    reply.requests = std::move(requests);
    Payload wire =
        types::make_envelope(MsgKind::kClientReply, reply).serialize();
    spend(Cost::kSerializeBytes, wire.size());
    trace({.type = obs::EventType::kMsgSent,
           .kind = static_cast<std::uint8_t>(MsgKind::kClientReply),
           .view = block.view,
           .height = block.height,
           .a = wire.size()});
    transmit(config_.client_base + client, std::move(wire));
  }

  committed_ops_.record(at, executable.size());
  metrics_.counter("replica.committed_blocks") += 1;
  metrics_.counter("replica.committed_ops") += executable.size();
  metrics_.gauge("replica.committed_height") =
      static_cast<double>(block.height);
  metrics_.sizes("replica.block_ops").record(executable.size());
}

void ReplicaHost::entered_view(ViewNumber v) {
  trace({.type = obs::EventType::kViewEntered, .view = v});
  metrics_.gauge("replica.view") = static_cast<double>(v);
  last_view_entry_ = now();
  last_activity_ = last_view_entry_;
  commit_seen_in_view_ = false;
  pacemaker_.on_view_entered();
  arm_view_timer();
}

void ReplicaHost::progressed() { pacemaker_.on_progress(); }

void ReplicaHost::persist_state(const consensus::PersistentState& state) {
  if (config_.disable_persistence) return;  // TEST ONLY (see config comment)
  if (stopped_) return;
  // Write-ahead voting: the protocol calls this before the dependent
  // vote/new-view message is sent. The put returns before the protocol
  // resumes, and on the simulator the step's sends additionally wait for
  // its full charge (this write included) — so the vote is durable before
  // it is visible on the wire.
  Writer w;
  state.encode(w);
  spend(Cost::kStorageWrite, w.size());
  if (!db_->put(kPStateKey, w.buffer()).is_ok()) {
    // The vote about to follow would not be durable: fail-stop instead.
    metrics_.counter("storage.pstate_write_failures") += 1;
    stop();
    return;
  }
  metrics_.counter("storage.pstate_writes") += 1;
}

void ReplicaHost::charge(Cost cost, std::uint64_t count) {
  const Duration spent = spend(cost, count);
  switch (cost) {
    case Cost::kSign:
      metrics_.counter("crypto.signs") += count;
      break;
    case Cost::kVerify:
    case Cost::kPairing:
      metrics_.counter(cost == Cost::kVerify ? "crypto.verifies"
                                             : "crypto.pairings") += count;
      trace({.type = obs::EventType::kSigVerify,
             .view = protocol_ ? protocol_->current_view() : 0,
             .a = count,
             .b = cost == Cost::kPairing ? 1u : 0u,
             .c = static_cast<std::uint64_t>(spent.as_nanos())});
      break;
    case Cost::kHashBytes:
      metrics_.counter("crypto.hash_bytes") += count;
      break;
    case Cost::kThresholdSign:
      metrics_.counter("crypto.threshold_signs") += count;
      break;
    case Cost::kCombineShare:
      metrics_.counter("crypto.combine_shares") += count;
      break;
    default:  // host work is accounted where the host does it
      break;
  }
}

void ReplicaHost::arm_view_timer() {
  view_timer_.cancel();
  if (stopped_) return;
  const Duration timeout =
      pacemaker_.view_timeout(config_.replica.id, protocol_->current_view());
  view_timer_ = timers().schedule_at(now() + timeout, [this] {
    // The timer firing at all proves the host is turning; liveness
    // freshness rides on it even across idle views.
    last_activity_ = now();
    // While amnesia recovery is in progress, the timer retransmits the
    // recovery snapshot request instead of churning views — the replica
    // is not allowed to participate in view changes yet anyway.
    if (protocol_->recovering()) {
      run_step([this] {
        if (!stopped_) protocol_->recovery_tick();
      });
      arm_view_timer();
      return;
    }
    // A quiet view with no pending work is healthy, not stuck: don't churn
    // views while idle (rotating mode still rotates unconditionally). The
    // advance is quorum-gated (see ReplicaBase::on_view_timeout): the fire
    // may only broadcast a timeout notice. The timer stays armed either
    // way — if the view does move, entered_view() re-arms it.
    const bool idle =
        !config_.pacemaker.rotate_on_timer && protocol_->pool().empty();
    if (!idle && pacemaker_.should_advance_on_fire()) {
      run_step([this] {
        if (!stopped_) protocol_->on_view_timeout();
      });
    }
    arm_view_timer();
  });
}

}  // namespace marlin::runtime
