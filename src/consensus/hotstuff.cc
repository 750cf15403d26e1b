#include "consensus/hotstuff.h"

namespace marlin::consensus {

namespace {
constexpr const char* kDomain = "hotstuff";

QcType qc_type_of(Phase phase) {
  switch (phase) {
    case Phase::kPrepare: return QcType::kPrepare;
    case Phase::kPreCommit: return QcType::kPreCommit;
    case Phase::kCommit: return QcType::kCommit;
    default: return QcType::kCommit;
  }
}

/// prepareQC ordering for NEW-VIEW selection: view first, then height.
bool qc_higher(const QuorumCert& a, const QuorumCert& b) {
  if (a.view != b.view) return a.view > b.view;
  return a.height > b.height;
}
}  // namespace

HotStuffReplica::HotStuffReplica(ReplicaConfig config,
                                 const crypto::SignatureSuite& suite,
                                 ProtocolEnv& env)
    : ReplicaBase(config, suite, env, kDomain),
      votes_(config.quorum.quorum()) {
  prepare_qc_high_ = QuorumCert::genesis(store_.genesis_hash());
  locked_qc_ = prepare_qc_high_;
  locked_qc_.type = QcType::kPreCommit;
}

void HotStuffReplica::start() {
  ReplicaBase::start();
  if (is_leader()) {
    propose_ready_ = true;
    maybe_propose();
  }
}

PersistentState HotStuffReplica::persistent_state() const {
  PersistentState ps = base_persistent_state(PersistedProtocol::kHotStuff);
  // HotStuff's voted watermark is a (view, height) pair, not a block ref;
  // store it in the ref's ordering fields with a zero hash.
  ps.last_voted.view = lb_view_;
  ps.last_voted.height = lb_height_;
  ps.locked_qc = locked_qc_;
  ps.high_qc = Justify{prepare_qc_high_, {}};
  return ps;
}

void HotStuffReplica::restore(const PersistentState& ps) {
  lb_view_ = ps.last_voted.view;
  lb_height_ = ps.last_voted.height;
  locked_qc_ = ps.locked_qc;
  if (ps.high_qc.qc) prepare_qc_high_ = *ps.high_qc.qc;
  ReplicaBase::restore(ps);
}

Hash256 HotStuffReplica::digest_for(QcType type, const Hash256& h,
                                    ViewNumber bview, Height height,
                                    ViewNumber pview) const {
  return types::vote_digest(kDomain, type, cview_, h, bview, height, pview,
                            /*virtual_block=*/false);
}

// ---------------------------------------------------------------------------
// Leader: proposing
// ---------------------------------------------------------------------------

void HotStuffReplica::maybe_propose() {
  if (recovering() || propose_held()) return;
  if (cview_ == 0 || !is_leader() || !propose_ready_) return;
  if (pool_.empty() && !config_.allow_empty_blocks) return;
  propose(false);
}

void HotStuffReplica::adopt_recovery_tip(const Block& tip) {
  // Re-anchor an amnesiac on the snapshot tip: its justify certifies the
  // tip's (committed) parent, so after verification it is the freshest QC
  // a replica with no durable state can trust. Raising the voted
  // watermark to the tip and jumping to its view means we never vote
  // again at a (view, height) our forgotten pre-wipe self may have signed.
  if (!tip.justify.qc || !verify_qc(*tip.justify.qc)) return;
  const QuorumCert& qc = *tip.justify.qc;
  if (qc_higher(qc, prepare_qc_high_)) prepare_qc_high_ = qc;
  if (qc_higher(qc, locked_qc_)) {
    locked_qc_ = qc;
    locked_qc_.type = QcType::kPreCommit;
  }
  lb_view_ = std::max(lb_view_, std::max(tip.view, qc.view));
  lb_height_ = std::max(lb_height_, tip.height);
  enter_view(std::max(tip.view, qc.view), /*send_new_view=*/false);
  persist();
}

void HotStuffReplica::propose(bool force) {
  std::vector<types::Operation> batch = make_batch(force);
  if (batch.empty() && !force && !config_.allow_empty_blocks) return;

  const QuorumCert& qc = prepare_qc_high_;
  Block b;
  b.parent_link = qc.block_hash;
  b.parent_view = qc.block_view;
  b.view = cview_;
  b.height = qc.height + 1;
  b.ops = std::move(batch);
  b.justify = Justify{qc, {}};

  env_.charge(Cost::kHashBytes, types::ops_wire_size(b.ops) + 128);
  const Height proposed_height = b.height;
  const std::size_t proposed_ops = b.ops.size();

  types::ProposalMsg msg;
  msg.phase = Phase::kPrepare;
  msg.view = cview_;
  msg.entries.push_back(types::ProposalEntry{std::move(b), Justify{qc, {}}});
  propose_ready_ = false;
  const Hash256 proposed_hash = broadcast_proposal(msg)[0];
  if (proposed_ops > 0) {
    trace({.type = obs::EventType::kBatchDequeued,
           .height = proposed_height,
           .block = trace_block_id(proposed_hash),
           .a = proposed_ops,
           .b = static_cast<std::uint64_t>(last_batch_wait_.as_nanos())});
  }
  trace({.type = obs::EventType::kProposalSent,
         .phase = static_cast<std::uint8_t>(Phase::kPrepare),
         .height = proposed_height,
         .block = trace_block_id(proposed_hash),
         .a = proposed_ops});
}

// ---------------------------------------------------------------------------
// Replica: proposals (PREPARE phase)
// ---------------------------------------------------------------------------

void HotStuffReplica::on_proposal(ReplicaId from, types::ProposalMsg msg) {
  if (msg.view < cview_ || msg.entries.size() != 1) return;
  if (from != leader_of(msg.view)) return;
  if (msg.phase != Phase::kPrepare) return;
  const Justify& j = msg.entries[0].justify;
  if (!j.qc || j.vc || j.qc->type != QcType::kPrepare) return;
  if (msg.view > cview_) {
    if (!verify_qc(*j.qc)) return;
    enter_view(msg.view, /*send_new_view=*/false);
  }

  const Block& b = msg.entries[0].proposed();
  const QuorumCert& qc = *j.qc;
  if (b.view != cview_ || b.virtual_block) return;
  if (b.parent_link != qc.block_hash || b.height != qc.height + 1 ||
      b.parent_view != qc.block_view) {
    return;
  }
  if (b.justify.qc != j.qc) return;
  if (!verify_qc(qc)) return;

  // safeNode: the branch extends the locked block, or the justify ranks
  // above the lock (liveness rule). Rank is (view, height), not view
  // alone: many blocks certify per view here, and same-view prepareQCs
  // form a single chain (honest replicas vote once per (view, height) and
  // quorums intersect in an honest replica), so a same-view justify above
  // the lock's height extends it even when this replica is missing the
  // intermediate bodies and extends() cannot walk the branch.
  const bool live_rule = qc_higher(qc, locked_qc_);
  const bool safe_rule =
      store_.extends(qc.block_hash, locked_qc_.block_hash);
  if (!live_rule && !safe_rule) return;

  // Vote at most once per (view, height), monotonically.
  if (b.view < lb_view_ ||
      (b.view == lb_view_ && b.height <= lb_height_)) {
    return;
  }

  env_.charge(Cost::kHashBytes, types::ops_wire_size(b.ops) + 128);
  const Hash256 h = b.hash();
  // The message owns the block: move it (and its pinned identity) into
  // the store. `stored` replaces `b` from here on.
  const Block& stored = store_proposed(msg.entries[0]);
  trace({.type = obs::EventType::kProposalReceived,
         .phase = static_cast<std::uint8_t>(Phase::kPrepare),
         .height = stored.height,
         .block = trace_block_id(h),
         .a = from});

  types::VoteMsg vote;
  vote.phase = Phase::kPrepare;
  vote.view = cview_;
  vote.block_hash = h;
  vote.parsig = sign_digest(digest_for(QcType::kPrepare, h, stored.view,
                                       stored.height, stored.parent_view));

  // Write-ahead voting: advance the voted watermark durably before the
  // vote leaves, or a crash+restart could vote again at this (view,
  // height) for a conflicting block.
  lb_view_ = stored.view;
  lb_height_ = stored.height;
  if (qc_higher(qc, prepare_qc_high_)) prepare_qc_high_ = qc;
  persist();

  send_to(from, types::make_envelope(MsgKind::kVote, vote));
  trace({.type = obs::EventType::kVoteSent,
         .phase = static_cast<std::uint8_t>(Phase::kPrepare),
         .height = stored.height,
         .block = trace_block_id(h),
         .a = from});
}

// ---------------------------------------------------------------------------
// Leader: vote collection
// ---------------------------------------------------------------------------

void HotStuffReplica::on_vote(ReplicaId from, types::VoteMsg msg) {
  if (msg.view != cview_ || leader_of(msg.view) != config_.id) return;
  const Block* b = store_.get(msg.block_hash);
  if (!b) return;

  const QcType type = qc_type_of(msg.phase);
  const Hash256 digest = digest_for(type, msg.block_hash, b->view, b->height,
                                    b->parent_view);
  if (!verify_partial(msg.parsig, digest)) return;
  trace({.type = obs::EventType::kVoteReceived,
         .phase = static_cast<std::uint8_t>(msg.phase),
         .height = b->height,
         .block = trace_block_id(msg.block_hash),
         .a = from,
         .b = votes_.count(msg.phase, msg.block_hash) + 1});

  auto group = votes_.add(msg.phase, msg.block_hash, msg.parsig);
  if (!group) return;

  QuorumCert qc;
  qc.type = type;
  qc.view = cview_;
  qc.block_hash = msg.block_hash;
  qc.block_view = b->view;
  qc.height = b->height;
  qc.pview = b->parent_view;
  qc.sigs = std::move(*group);
  finalize_qc(qc);
  trace({.type = obs::EventType::kQcFormed,
         .phase = static_cast<std::uint8_t>(msg.phase),
         .height = b->height,
         .block = trace_block_id(msg.block_hash)});

  switch (msg.phase) {
    case Phase::kPrepare: {
      if (qc_higher(qc, prepare_qc_high_)) prepare_qc_high_ = qc;
      persist();  // durable before the PRE-COMMIT notice leaves
      types::QcNoticeMsg notice{Phase::kPreCommit, cview_, std::move(qc), {}};
      broadcast(types::make_envelope(MsgKind::kQcNotice, notice));
      trace({.type = obs::EventType::kPhaseTransition,
             .phase = static_cast<std::uint8_t>(Phase::kPreCommit),
             .height = b->height,
             .block = trace_block_id(msg.block_hash)});
      if (config_.pipelined) {
        propose_ready_ = true;
        maybe_propose();
      }
      return;
    }
    case Phase::kPreCommit: {
      types::QcNoticeMsg notice{Phase::kCommit, cview_, std::move(qc), {}};
      broadcast(types::make_envelope(MsgKind::kQcNotice, notice));
      trace({.type = obs::EventType::kPhaseTransition,
             .phase = static_cast<std::uint8_t>(Phase::kCommit),
             .height = b->height,
             .block = trace_block_id(msg.block_hash)});
      return;
    }
    case Phase::kCommit: {
      types::QcNoticeMsg notice{Phase::kDecide, cview_, std::move(qc), {}};
      broadcast(types::make_envelope(MsgKind::kQcNotice, notice));
      trace({.type = obs::EventType::kPhaseTransition,
             .phase = static_cast<std::uint8_t>(Phase::kDecide),
             .height = b->height,
             .block = trace_block_id(msg.block_hash)});
      if (!config_.pipelined) {
        propose_ready_ = true;
        maybe_propose();
      }
      return;
    }
    default:
      return;
  }
}

// ---------------------------------------------------------------------------
// Replica: QC notices (PRE-COMMIT / COMMIT / DECIDE)
// ---------------------------------------------------------------------------

void HotStuffReplica::on_qc_notice(ReplicaId from, types::QcNoticeMsg msg) {
  if (msg.aux) return;
  if (msg.view < cview_) {
    if (msg.phase == Phase::kDecide && msg.qc.type == QcType::kCommit &&
        verify_qc(msg.qc)) {
      commit_to(msg.qc.block_hash, from);
    }
    return;
  }
  if (from != leader_of(msg.view)) return;
  if (msg.view > cview_) {
    if (!verify_qc(msg.qc)) return;
    enter_view(msg.view, /*send_new_view=*/false);
  }

  const QuorumCert& qc = msg.qc;
  switch (msg.phase) {
    case Phase::kPreCommit: {
      if (qc.type != QcType::kPrepare || qc.view != cview_) return;
      if (!verify_qc(qc)) return;
      if (qc_higher(qc, prepare_qc_high_)) prepare_qc_high_ = qc;
      persist();  // write-ahead voting: durable before the vote leaves
      types::VoteMsg vote;
      vote.phase = Phase::kPreCommit;
      vote.view = cview_;
      vote.block_hash = qc.block_hash;
      vote.parsig = sign_digest(digest_for(QcType::kPreCommit, qc.block_hash,
                                           qc.block_view, qc.height,
                                           qc.pview));
      send_to(from, types::make_envelope(MsgKind::kVote, vote));
      trace({.type = obs::EventType::kVoteSent,
             .phase = static_cast<std::uint8_t>(Phase::kPreCommit),
             .height = qc.height,
             .block = trace_block_id(qc.block_hash),
             .a = from});
      return;
    }
    case Phase::kCommit: {
      if (qc.type != QcType::kPreCommit || qc.view != cview_) return;
      if (!verify_qc(qc)) return;
      if (qc_higher(qc, locked_qc_)) locked_qc_ = qc;  // become locked
      persist();  // write-ahead voting: the lock is durable before the vote
      types::VoteMsg vote;
      vote.phase = Phase::kCommit;
      vote.view = cview_;
      vote.block_hash = qc.block_hash;
      vote.parsig = sign_digest(digest_for(QcType::kCommit, qc.block_hash,
                                           qc.block_view, qc.height,
                                           qc.pview));
      send_to(from, types::make_envelope(MsgKind::kVote, vote));
      trace({.type = obs::EventType::kVoteSent,
             .phase = static_cast<std::uint8_t>(Phase::kCommit),
             .height = qc.height,
             .block = trace_block_id(qc.block_hash),
             .a = from});
      return;
    }
    case Phase::kDecide: {
      if (qc.type != QcType::kCommit) return;
      if (!verify_qc(qc)) return;
      commit_to(qc.block_hash, from);
      return;
    }
    default:
      return;
  }
}

// ---------------------------------------------------------------------------
// View change (NEW-VIEW)
// ---------------------------------------------------------------------------

void HotStuffReplica::advance_to_view(ViewNumber v) {
  enter_view(v, /*send_new_view=*/true);
}

void HotStuffReplica::enter_view(ViewNumber v, bool send_new_view) {
  if (v <= cview_) return;
  cview_ = v;
  propose_ready_ = false;
  votes_.clear();
  while (!new_views_.empty() && new_views_.begin()->first < v) {
    new_views_.erase(new_views_.begin());
  }
  // The entered view is durable: a restart must never rewind cview_ and
  // re-vote in a view it already left.
  persist();
  env_.entered_view(v);

  if (send_new_view && nv_sent_.insert(v).second) {
    trace({.type = obs::EventType::kViewChangeStart});
    types::ViewChangeMsg m;
    m.view = v;
    m.last_voted = BlockRef{prepare_qc_high_.block_hash,
                            prepare_qc_high_.block_view,
                            prepare_qc_high_.height, prepare_qc_high_.pview,
                            false};
    m.high_qc = Justify{prepare_qc_high_, {}};
    m.parsig = sign_digest(types::vote_digest(
        kDomain, QcType::kPrepare, v, m.last_voted.hash, m.last_voted.view,
        m.last_voted.height, m.last_voted.pview, false));
    send_to(leader_of(v), types::make_envelope(MsgKind::kViewChange, m));
  }
  if (is_leader()) leader_check_new_view_quorum();
}

void HotStuffReplica::on_view_change(ReplicaId from,
                                     types::ViewChangeMsg msg) {
  if (msg.view < cview_) return;
  const BlockRef& lb = msg.last_voted;
  const Hash256 digest =
      types::vote_digest(kDomain, QcType::kPrepare, msg.view, lb.hash,
                         lb.view, lb.height, lb.pview, false);
  if (msg.parsig.signer != from) return;
  if (!verify_partial(msg.parsig, digest)) return;
  if (!msg.high_qc.qc || msg.high_qc.vc) return;
  if (msg.high_qc.qc->type != QcType::kPrepare) return;
  if (!verify_qc(*msg.high_qc.qc)) return;

  NewViewState& st = new_views_[msg.view];
  st.msgs.emplace(from, std::move(msg));
  const ViewNumber view = st.msgs.begin()->second.view;

  if (view > cview_ && st.msgs.size() >= config_.quorum.f + 1 &&
      nv_sent_.count(view) == 0) {
    enter_view(view, /*send_new_view=*/true);
    return;
  }
  if (view == cview_ && leader_of(view) == config_.id) {
    leader_check_new_view_quorum();
  }
}

void HotStuffReplica::leader_check_new_view_quorum() {
  auto it = new_views_.find(cview_);
  if (it == new_views_.end()) return;
  NewViewState& st = it->second;
  if (st.acted || st.msgs.size() < quorum()) return;
  st.acted = true;
  ++vcs_led_;

  for (const auto& [sender, m] : st.msgs) {
    if (qc_higher(*m.high_qc.qc, prepare_qc_high_)) {
      prepare_qc_high_ = *m.high_qc.qc;
    }
  }
  persist();  // durable before the NEW-VIEW re-proposal leaves
  // HotStuff's NEW-VIEW resolution always re-proposes from highQC —
  // there is no happy/unhappy split, so the `a` operand is always 0.
  trace({.type = obs::EventType::kViewChangeEnd,
         .height = prepare_qc_high_.height,
         .block = trace_block_id(prepare_qc_high_.block_hash),
         .a = 0});
  propose_ready_ = true;
  propose(/*force=*/true);
}

}  // namespace marlin::consensus
