#include "consensus/marlin.h"

#include <algorithm>

namespace marlin::consensus {

namespace {
constexpr const char* kDomain = "marlin";

QcType qc_type_of(Phase phase) {
  switch (phase) {
    case Phase::kPrePrepare: return QcType::kPrePrepare;
    case Phase::kPrepare: return QcType::kPrepare;
    case Phase::kCommit: return QcType::kCommit;
    default: return QcType::kCommit;
  }
}
}  // namespace

MarlinReplica::MarlinReplica(ReplicaConfig config,
                             const crypto::SignatureSuite& suite,
                             ProtocolEnv& env)
    : ReplicaBase(config, suite, env, kDomain),
      votes_(config.quorum.quorum()) {
  locked_qc_ = QuorumCert::genesis(store_.genesis_hash());
  high_qc_.qc = locked_qc_;
  lb_ = BlockRef{store_.genesis_hash(), 0, 0, 0, false};
}

void MarlinReplica::start() {
  ReplicaBase::start();
  if (is_leader()) {
    propose_ready_ = true;
    maybe_propose();
  }
}

PersistentState MarlinReplica::persistent_state() const {
  PersistentState ps = base_persistent_state(PersistedProtocol::kMarlin);
  ps.last_voted = lb_;
  ps.locked_qc = locked_qc_;
  ps.high_qc = high_qc_;
  return ps;
}

void MarlinReplica::restore(const PersistentState& ps) {
  lb_ = ps.last_voted;
  locked_qc_ = ps.locked_qc;
  high_qc_ = ps.high_qc;
  ReplicaBase::restore(ps);
}

// ---------------------------------------------------------------------------
// Digest / QC helpers
// ---------------------------------------------------------------------------

Hash256 MarlinReplica::prepare_digest_for_block(const Block& b,
                                                const Hash256& h) const {
  return types::vote_digest(kDomain, QcType::kPrepare, cview_, h, b.view,
                            b.height, b.parent_view, b.virtual_block);
}

Hash256 MarlinReplica::digest_for_qc_fields(QcType type, ViewNumber view,
                                            const QuorumCert& qc) const {
  return types::vote_digest(kDomain, type, view, qc.block_hash, qc.block_view,
                            qc.height, qc.pview, qc.virtual_block);
}

QuorumCert MarlinReplica::qc_from_block(QcType type, ViewNumber view,
                                        const Block& b, const Hash256& h,
                                        crypto::SigGroup sigs) {
  QuorumCert qc;
  qc.type = type;
  qc.view = view;
  qc.block_hash = h;
  qc.block_view = b.view;
  qc.height = b.height;
  qc.pview = b.parent_view;
  qc.virtual_block = b.virtual_block;
  qc.sigs = std::move(sigs);
  return qc;
}

// ---------------------------------------------------------------------------
// State updates
// ---------------------------------------------------------------------------

void MarlinReplica::update_high_qc(const Justify& j) {
  if (!j.qc) return;
  if (!high_qc_.qc || types::rank_greater(*j.qc, *high_qc_.qc)) {
    high_qc_ = j;
  }
}

void MarlinReplica::update_locked(const QuorumCert& qc) {
  if (qc.type != QcType::kPrepare && qc.type != QcType::kCommit) return;
  // A commitQC locks exactly like the prepareQC it supersedes.
  QuorumCert as_lock = qc;
  as_lock.type = QcType::kPrepare;
  if (types::rank_greater(as_lock, locked_qc_)) locked_qc_ = as_lock;
}

bool MarlinReplica::block_ref_rank_greater(ViewNumber bview, Height bheight,
                                           const Justify& bjustify) const {
  // rank(b) > rank(lb): higher view, or same view + higher height +
  // justified by a prepareQC of b's own view (anti-forking clause).
  if (bview != lb_.view) return bview > lb_.view;
  if (bheight <= lb_.height) return false;
  return bjustify.qc && bjustify.qc->type == QcType::kPrepare &&
         bjustify.qc->view == bview;
}

// ---------------------------------------------------------------------------
// Normal case — leader side
// ---------------------------------------------------------------------------

void MarlinReplica::maybe_propose() {
  if (recovering() || propose_held()) return;
  if (cview_ == 0 || !is_leader() || !propose_ready_) return;
  if (pool_.empty() && !config_.allow_empty_blocks) return;
  propose_normal(false);
}

void MarlinReplica::adopt_recovery_tip(const Block& tip) {
  // Re-anchor an amnesiac on the snapshot tip: its justify certifies the
  // tip's (committed) parent, so after verification it is the freshest QC
  // a replica with no durable state can trust. Raising lb_ to the tip and
  // jumping to its view means we never vote again at a (view, height) our
  // forgotten pre-wipe self may have signed.
  if (!tip.justify.qc || !verify_qc(*tip.justify.qc)) return;
  const QuorumCert& qc = *tip.justify.qc;
  update_high_qc(tip.justify);
  update_locked(qc);
  if (tip.view > lb_.view ||
      (tip.view == lb_.view && tip.height > lb_.height)) {
    lb_ = BlockRef{tip.hash(), tip.view, tip.height, tip.parent_view,
                   tip.virtual_block};
  }
  enter_view(std::max(tip.view, qc.view), /*send_vc=*/false);
  persist();
}

void MarlinReplica::propose_normal(bool force) {
  if (!high_qc_.qc || high_qc_.qc->type != QcType::kPrepare) return;
  const QuorumCert& qc = *high_qc_.qc;
  // Case N1 on the replica side requires a justify formed in the current
  // view (genesis excepted), which holds for pipelined successors and
  // happy-path QCs alike.
  if (!(qc.view == cview_ || qc.is_genesis())) return;

  std::vector<types::Operation> batch = make_batch(force);
  if (batch.empty() && !force && !config_.allow_empty_blocks) return;

  Block b;
  b.parent_link = qc.block_hash;
  b.parent_view = qc.block_view;
  b.view = cview_;
  b.height = qc.height + 1;
  b.virtual_block = false;
  b.ops = std::move(batch);
  b.justify = Justify{qc, std::nullopt};

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
// Normal case — replica side
// ---------------------------------------------------------------------------

void MarlinReplica::on_proposal(ReplicaId from, types::ProposalMsg msg) {
  if (msg.view < cview_ || msg.entries.empty()) return;
  if (from != leader_of(msg.view)) return;
  if (msg.view > cview_) {
    // View sync: adopt a higher view when its leader shows a valid QC.
    const Justify& j = msg.entries[0].justify;
    if (!j.qc || !verify_qc(*j.qc)) return;
    enter_view(msg.view, /*send_vc=*/false);
  }
  switch (msg.phase) {
    case Phase::kPrepare:
      handle_prepare_proposal(from, std::move(msg));
      return;
    case Phase::kPrePrepare:
      handle_preprepare_proposal(from, std::move(msg));
      return;
    default:
      return;
  }
}

void MarlinReplica::handle_prepare_proposal(ReplicaId from,
                                            types::ProposalMsg msg) {
  if (msg.entries.size() != 1) return;
  const Block& b = msg.entries[0].proposed();
  const Justify& j = msg.entries[0].justify;

  // Case N1: justify is a prepareQC formed in this view (genesis allowed
  // at bootstrap) and b extends its block.
  if (!j.qc || j.vc || j.qc->type != QcType::kPrepare) return;
  const QuorumCert& qc = *j.qc;
  if (b.view != cview_ || b.virtual_block) return;
  if (!(qc.view == cview_ || qc.is_genesis())) return;
  if (b.parent_link != qc.block_hash || b.height != qc.height + 1 ||
      b.parent_view != qc.block_view) {
    return;
  }
  if (b.justify.qc != j.qc) return;  // block's own justify must match
  if (!verify_qc(qc)) return;
  if (!types::rank_geq(qc, locked_qc_)) return;

  env_.charge(Cost::kHashBytes, types::ops_wire_size(b.ops) + 128);
  const Hash256 h = b.hash();
  if (!block_ref_rank_greater(b.view, b.height, b.justify)) return;

  // The message owns the block: move it (and its pinned identity) into
  // the store. `stored` replaces `b` from here on.
  const Block& stored = store_proposed(msg.entries[0]);
  trace({.type = obs::EventType::kProposalReceived,
         .phase = static_cast<std::uint8_t>(Phase::kPrepare),
         .height = stored.height,
         .block = trace_block_id(h),
         .a = from});
  const Hash256 digest = prepare_digest_for_block(stored, h);
  types::VoteMsg vote;
  vote.phase = Phase::kPrepare;
  vote.view = cview_;
  vote.block_hash = h;
  vote.parsig = sign_digest(digest);

  // Write-ahead voting: the voted/locked state must be durable before the
  // vote leaves this replica, or a crash+restart could vote again at the
  // same (view, height) for a different block.
  lb_ = BlockRef{h, stored.view, stored.height, stored.parent_view, false};
  update_high_qc(j);
  update_locked(qc);
  persist();

  send_to(from, types::make_envelope(MsgKind::kVote, vote));
  trace({.type = obs::EventType::kVoteSent,
         .phase = static_cast<std::uint8_t>(Phase::kPrepare),
         .height = stored.height,
         .block = trace_block_id(h),
         .a = from});
}

void MarlinReplica::on_qc_notice(ReplicaId from, types::QcNoticeMsg msg) {
  if (msg.view < cview_) {
    // Old DECIDEs still carry committable evidence.
    if (msg.phase == Phase::kDecide) handle_decide_notice(from, msg);
    return;
  }
  if (from != leader_of(msg.view)) return;
  if (msg.view > cview_) {
    if (!verify_qc(msg.qc)) return;
    enter_view(msg.view, /*send_vc=*/false);
  }
  switch (msg.phase) {
    case Phase::kPrepare:
      handle_prepare_notice(from, msg);
      return;
    case Phase::kCommit:
      handle_commit_notice(from, msg);
      return;
    case Phase::kDecide:
      handle_decide_notice(from, msg);
      return;
    default:
      return;
  }
}

void MarlinReplica::handle_commit_notice(ReplicaId from,
                                         const types::QcNoticeMsg& msg) {
  const QuorumCert& qc = msg.qc;
  if (qc.type != QcType::kPrepare || qc.view != cview_) return;
  if (!verify_qc(qc)) return;

  const Hash256 digest = digest_for_qc_fields(QcType::kCommit, cview_, qc);
  types::VoteMsg vote;
  vote.phase = Phase::kCommit;
  vote.view = cview_;
  vote.block_hash = qc.block_hash;
  vote.parsig = sign_digest(digest);

  // Write-ahead voting: lock on the prepareQC durably before the COMMIT
  // vote leaves.
  update_high_qc(Justify{qc, {}});
  update_locked(qc);
  persist();

  send_to(from, types::make_envelope(MsgKind::kVote, vote));
  trace({.type = obs::EventType::kVoteSent,
         .phase = static_cast<std::uint8_t>(Phase::kCommit),
         .height = qc.height,
         .block = trace_block_id(qc.block_hash),
         .a = from});
}

void MarlinReplica::handle_decide_notice(ReplicaId from,
                                         const types::QcNoticeMsg& msg) {
  const QuorumCert& qc = msg.qc;
  if (qc.type != QcType::kCommit) return;
  if (!verify_qc(qc)) return;
  update_locked(qc);
  // commit_to persists on delivery, but persist the raised lock even when
  // the commit stalls on a fetch — a restart must not rewind the lock.
  persist();
  commit_to(qc.block_hash, from);
}

// Case N2: the leader re-announces the pre-prepared block via its
// pre-prepareQC; replicas vote PREPARE on it.
void MarlinReplica::handle_prepare_notice(ReplicaId from,
                                          const types::QcNoticeMsg& msg) {
  const QuorumCert& qc = msg.qc;
  if (qc.type != QcType::kPrePrepare || qc.view != cview_) return;
  if (!verify_qc(qc)) return;
  if (!types::rank_geq(qc, locked_qc_)) return;

  if (qc.virtual_block) {
    // Validate the (qc, vc) pair: vc certifies the virtual block's parent.
    if (!msg.aux) return;
    const QuorumCert& vc = *msg.aux;
    if (vc.type != QcType::kPrepare || vc.view != qc.pview ||
        vc.height + 1 != qc.height) {
      return;
    }
    if (!verify_qc(vc)) return;
    store_.set_virtual_parent(qc.block_hash, vc.block_hash);
  } else if (msg.aux) {
    return;
  }

  // Anti-forking block-rank guard: the block was proposed in this view, so
  // it outranks lb only when lb is from an older view (a second Case-N2
  // block in the same view never passes — the justify is not a prepareQC).
  if (!(qc.block_view > lb_.view)) return;

  const Hash256 digest = digest_for_qc_fields(QcType::kPrepare, cview_, qc);
  types::VoteMsg vote;
  vote.phase = Phase::kPrepare;
  vote.view = cview_;
  vote.block_hash = qc.block_hash;
  vote.parsig = sign_digest(digest);

  // Write-ahead voting: record the voted block durably before the vote.
  lb_ = BlockRef{qc.block_hash, qc.block_view, qc.height, qc.pview,
                 qc.virtual_block};
  update_high_qc(Justify{qc, msg.aux});
  persist();

  send_to(from, types::make_envelope(MsgKind::kVote, vote));
  trace({.type = obs::EventType::kVoteSent,
         .phase = static_cast<std::uint8_t>(Phase::kPrepare),
         .height = qc.height,
         .block = trace_block_id(qc.block_hash),
         .a = from});
}

// ---------------------------------------------------------------------------
// Votes — leader side
// ---------------------------------------------------------------------------

void MarlinReplica::on_vote(ReplicaId from, types::VoteMsg msg) {
  if (msg.view != cview_ || leader_of(msg.view) != config_.id) return;

  const Block* b = store_.get(msg.block_hash);
  if (!b) return;  // we only count votes for blocks we proposed/stored

  const QcType type = qc_type_of(msg.phase);
  const Hash256 digest =
      types::vote_digest(kDomain, type, cview_, msg.block_hash, b->view,
                         b->height, b->parent_view, b->virtual_block);
  if (!verify_partial(msg.parsig, digest)) return;
  trace({.type = obs::EventType::kVoteReceived,
         .phase = static_cast<std::uint8_t>(msg.phase),
         .height = b->height,
         .block = trace_block_id(msg.block_hash),
         .a = from,
         .b = votes_.count(msg.phase, msg.block_hash) + 1});

  // R2 votes attach the voter's lockedQC — a candidate `vc`.
  if (msg.phase == Phase::kPrePrepare && msg.locked_qc) {
    const QuorumCert& attached = *msg.locked_qc;
    if (attached.type == QcType::kPrepare && verify_qc(attached)) {
      VcState& st = vc_[cview_];
      if (!st.vc_candidate ||
          types::rank_greater(attached, *st.vc_candidate)) {
        st.vc_candidate = attached;
      }
    }
  }

  auto group = votes_.add(msg.phase, msg.block_hash, msg.parsig);
  if (!group) {
    if (msg.phase == Phase::kPrePrepare) leader_check_preprepare_progress();
    return;
  }

  QuorumCert qc = qc_from_block(type, cview_, *b, msg.block_hash,
                                std::move(*group));
  trace({.type = obs::EventType::kQcFormed,
         .phase = static_cast<std::uint8_t>(msg.phase),
         .height = b->height,
         .block = trace_block_id(msg.block_hash)});

  switch (msg.phase) {
    case Phase::kPrepare: {
      finalize_qc(qc);
      update_high_qc(Justify{qc, {}});
      update_locked(qc);
      persist();  // durable before the COMMIT notice leaves
      types::QcNoticeMsg notice{Phase::kCommit, cview_, qc, {}};
      broadcast(types::make_envelope(MsgKind::kQcNotice, notice));
      trace({.type = obs::EventType::kPhaseTransition,
             .phase = static_cast<std::uint8_t>(Phase::kCommit),
             .height = b->height,
             .block = trace_block_id(msg.block_hash)});
      if (config_.pipelined) {
        propose_ready_ = true;
        maybe_propose();
      }
      return;
    }
    case Phase::kCommit: {
      finalize_qc(qc);
      types::QcNoticeMsg notice{Phase::kDecide, cview_, qc, {}};
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
    case Phase::kPrePrepare: {
      // Stash the raw signature group; the QC is finalized (and, in
      // threshold mode, combined) when the preference decision picks it.
      VcState& st = vc_[cview_];
      st.formed.emplace(msg.block_hash, std::move(qc.sigs));
      leader_check_preprepare_progress();
      return;
    }
    default:
      return;
  }
}

// ---------------------------------------------------------------------------
// View change
// ---------------------------------------------------------------------------

void MarlinReplica::advance_to_view(ViewNumber v) {
  enter_view(v, /*send_vc=*/true);
}

void MarlinReplica::enter_view(ViewNumber v, bool send_vc) {
  if (v <= cview_) return;
  cview_ = v;
  propose_ready_ = false;
  votes_.clear();
  // Garbage-collect stale view-change state.
  while (!vc_.empty() && vc_.begin()->first < v) vc_.erase(vc_.begin());
  // The entered view is durable state: a restart must never rewind cview_
  // and accept (or vote on) traffic from a view it already left.
  persist();
  env_.entered_view(v);

  if (send_vc && vc_sent_.insert(v).second) {
    trace({.type = obs::EventType::kViewChangeStart});
    types::ViewChangeMsg m;
    m.view = v;
    m.last_voted = lb_;
    m.high_qc = high_qc_;
    m.parsig = sign_digest(types::vote_digest(
        kDomain, QcType::kPrepare, v, lb_.hash, lb_.view, lb_.height,
        lb_.pview, lb_.virtual_block));
    send_to(leader_of(v), types::make_envelope(MsgKind::kViewChange, m));
  }
  if (is_leader()) leader_check_vc_quorum();
}

bool MarlinReplica::validate_justify(const Justify& j) {
  if (!j.qc) return false;
  const QuorumCert& qc = *j.qc;
  if (qc.type != QcType::kPrepare && qc.type != QcType::kPrePrepare) {
    return false;
  }
  if (!verify_qc(qc)) return false;
  if (j.vc) {
    if (qc.type != QcType::kPrePrepare || !qc.virtual_block) return false;
    const QuorumCert& vc = *j.vc;
    if (vc.type != QcType::kPrepare || vc.view != qc.pview ||
        vc.height + 1 != qc.height) {
      return false;
    }
    if (!verify_qc(vc)) return false;
  } else if (qc.type == QcType::kPrePrepare && qc.virtual_block) {
    return false;  // a virtual pre-prepareQC is only meaningful with vc
  }
  return true;
}

void MarlinReplica::on_view_change(ReplicaId from, types::ViewChangeMsg msg) {
  if (msg.view < cview_) return;

  // Authenticate: the parsig signs the happy-path digest of lb at view v.
  const BlockRef& lb = msg.last_voted;
  const Hash256 digest =
      types::vote_digest(kDomain, QcType::kPrepare, msg.view, lb.hash,
                         lb.view, lb.height, lb.pview, lb.virtual_block);
  if (msg.parsig.signer != from) return;
  if (!verify_partial(msg.parsig, digest)) return;
  if (!validate_justify(msg.high_qc)) return;

  VcState& st = vc_[msg.view];
  st.msgs.emplace(from, std::move(msg));
  const ViewNumber view = st.msgs.begin()->second.view;

  // f + 1 distinct VIEW-CHANGEs for a higher view: join it.
  if (view > cview_ &&
      st.msgs.size() >= config_.quorum.f + 1 && vc_sent_.count(view) == 0) {
    enter_view(view, /*send_vc=*/true);
    return;
  }
  if (view == cview_ && leader_of(view) == config_.id) {
    leader_check_vc_quorum();
  }
}

void MarlinReplica::leader_check_vc_quorum() {
  auto it = vc_.find(cview_);
  if (it == vc_.end()) return;
  VcState& st = it->second;
  if (st.acted || st.msgs.size() < quorum()) return;
  leader_act_on_snapshot(st);
}

void MarlinReplica::leader_act_on_snapshot(VcState& st) {
  st.acted = true;
  const ViewNumber v = cview_;

  // ---- Happy path: n−f identical lb → combine into a prepareQC. ----------
  if (!config_.disable_happy_path) {
    std::map<Hash256, std::vector<const types::ViewChangeMsg*>> by_lb;
    for (const auto& [sender, m] : st.msgs) {
      by_lb[m.last_voted.hash].push_back(&m);
    }
    for (const auto& [hash, group] : by_lb) {
      if (group.size() < quorum()) continue;
      std::vector<crypto::PartialSig> sigs;
      sigs.reserve(group.size());
      for (const auto* m : group) sigs.push_back(m->parsig);
      auto combined = crypto::SigGroup::combine(std::move(sigs), quorum());
      if (!combined) continue;
      const BlockRef& lb = group.front()->last_voted;
      QuorumCert qc;
      qc.type = QcType::kPrepare;
      qc.view = v;
      qc.block_hash = lb.hash;
      qc.block_view = lb.view;
      qc.height = lb.height;
      qc.pview = lb.pview;
      qc.virtual_block = lb.virtual_block;
      qc.sigs = std::move(*combined);
      finalize_qc(qc);
      ++happy_vcs_;
      st.prepare_started = true;
      trace({.type = obs::EventType::kViewChangeEnd,
             .height = lb.height,
             .block = trace_block_id(lb.hash),
             .a = 1});
      update_high_qc(Justify{qc, {}});
      update_locked(qc);
      persist();  // durable before the happy-path proposal leaves
      propose_ready_ = true;
      propose_normal(/*force=*/true);
      return;
    }
  }

  // ---- Unhappy path: PRE-PREPARE phase. -----------------------------------
  ++unhappy_vcs_;

  // highQCv: the highest-ranked primary QC(s) among the messages.
  std::vector<const Justify*> candidates;
  for (const auto& [sender, m] : st.msgs) {
    if (!m.high_qc.qc) continue;
    if (candidates.empty()) {
      candidates.push_back(&m.high_qc);
      continue;
    }
    const int cmp = types::compare_rank(*m.high_qc.qc, *candidates[0]->qc);
    if (cmp > 0) {
      candidates.clear();
      candidates.push_back(&m.high_qc);
    } else if (cmp == 0) {
      // Same rank: keep distinct blocks only (Lemma 4: at most two).
      bool duplicate = false;
      for (const Justify* c : candidates) {
        if (c->qc->block_hash == m.high_qc.qc->block_hash) duplicate = true;
      }
      if (!duplicate && candidates.size() < 2) {
        candidates.push_back(&m.high_qc);
      }
    }
  }
  if (candidates.empty()) return;  // cannot happen: every msg validated

  // bv: highest (view, height) among reported last-voted blocks.
  const BlockRef* bv = nullptr;
  for (const auto& [sender, m] : st.msgs) {
    const BlockRef& ref = m.last_voted;
    if (!bv || ref.view > bv->view ||
        (ref.view == bv->view && ref.height > bv->height)) {
      bv = &ref;
    }
  }

  std::vector<types::Operation> batch = make_batch(/*force=*/true);
  types::ProposalMsg msg;
  msg.phase = Phase::kPrePrepare;
  msg.view = v;

  auto add_child = [&](const Justify& j) {
    const QuorumCert& qc = *j.qc;
    Block b;
    b.parent_link = qc.block_hash;
    b.parent_view = qc.block_view;
    b.view = v;
    b.height = qc.height + 1;
    b.virtual_block = false;
    b.ops = batch;
    b.justify = j;
    env_.charge(Cost::kHashBytes, types::ops_wire_size(b.ops) + 128);
    msg.entries.push_back(types::ProposalEntry{std::move(b), j});
  };

  const QuorumCert& top = *candidates[0]->qc;
  if (candidates.size() == 1 && top.type == QcType::kPrepare) {
    const bool someone_voted_higher =
        bv && (bv->view > top.block_view ||
               (bv->view == top.block_view && bv->height > top.height));
    add_child(*candidates[0]);  // the normal block b1
    if (someone_voted_higher) {
      // Case V1: add the virtual grandchild b2 (shadow ops).
      Block b2;
      b2.parent_link = Hash256{};
      b2.parent_view = top.view;  // formation view (see header note)
      b2.view = v;
      b2.height = top.height + 2;
      b2.virtual_block = true;
      b2.ops = batch;
      b2.justify = *candidates[0];
      env_.charge(Cost::kHashBytes, 128);  // ops already hashed for b1
      msg.entries.push_back(
          types::ProposalEntry{std::move(b2), *candidates[0]});
    }
    // else: Case V2 — the single child suffices.
  } else {
    // Case V2 (single pre-prepareQC) or V3 (two pre-prepareQCs): one child
    // per candidate, shadow-sharing the batch.
    for (const Justify* j : candidates) add_child(*j);
  }

  for (const Hash256& h : broadcast_proposal(msg)) {
    st.proposed.emplace_back(h, store_.get(h)->virtual_block);
  }
  trace({.type = obs::EventType::kProposalSent,
         .phase = static_cast<std::uint8_t>(Phase::kPrePrepare),
         .a = batch.size(),
         .b = msg.entries.size()});
}

void MarlinReplica::handle_preprepare_proposal(ReplicaId from,
                                               types::ProposalMsg msg) {
  if (msg.entries.empty() || msg.entries.size() > 2) return;

  for (types::ProposalEntry& entry : msg.entries) {
    const Block& b = entry.proposed();
    const Justify& j = entry.justify;
    if (!j.qc) continue;
    const QuorumCert& qc = *j.qc;

    // Justify must be formed before this view, and the block in it.
    if (qc.view >= cview_ || b.view != cview_) continue;
    if (b.justify != j) continue;  // paper: m_i.justify = m_i.block.justify
    if (!validate_justify(j)) continue;

    // Structural validity.
    if (b.virtual_block) {
      if (!b.parent_link.is_zero() || j.vc) continue;
      if (qc.type != QcType::kPrepare) continue;
      if (b.height != qc.height + 2 || b.parent_view != qc.view) continue;
    } else {
      if (b.parent_link != qc.block_hash || b.height != qc.height + 1 ||
          b.parent_view != qc.block_view) {
        continue;
      }
      if (j.vc) {
        // Parent is a virtual block: remember its resolved parent.
        store_.set_virtual_parent(qc.block_hash, j.vc->block_hash);
      }
    }

    // Vote rules R1 / R2 / R3.
    bool vote = false;
    bool attach_locked = false;
    if (types::rank_geq(qc, locked_qc_)) {
      vote = true;  // R1
    } else if (!j.vc && qc.type == QcType::kPrepare &&
               qc.view == locked_qc_.view && b.virtual_block &&
               b.height == locked_qc_.height + 1) {
      vote = true;  // R2
      attach_locked = true;
    } else if (qc.type == QcType::kPrePrepare &&
               qc.block_hash == locked_qc_.block_hash) {
      vote = true;  // R3
    }
    if (!vote) continue;

    env_.charge(Cost::kHashBytes, types::ops_wire_size(b.ops) + 128);
    const Hash256 h = b.hash();
    // The message owns the block: move it into the store.
    const Block& stored = store_proposed(entry);
    trace({.type = obs::EventType::kProposalReceived,
           .phase = static_cast<std::uint8_t>(Phase::kPrePrepare),
           .height = stored.height,
           .block = trace_block_id(h),
           .a = from});

    types::VoteMsg vm;
    vm.phase = Phase::kPrePrepare;
    vm.view = cview_;
    vm.block_hash = h;
    vm.parsig = sign_digest(types::vote_digest(
        kDomain, QcType::kPrePrepare, cview_, h, stored.view, stored.height,
        stored.parent_view, stored.virtual_block));
    if (attach_locked) vm.locked_qc = locked_qc_;
    send_to(from, types::make_envelope(MsgKind::kVote, vm));
    trace({.type = obs::EventType::kVoteSent,
           .phase = static_cast<std::uint8_t>(Phase::kPrePrepare),
           .height = stored.height,
           .block = trace_block_id(h),
           .a = from});
    // Pre-prepare votes update no replica state (lb/highQC/lockedQC).
  }
}

void MarlinReplica::leader_check_preprepare_progress() {
  auto it = vc_.find(cview_);
  if (it == vc_.end()) return;
  VcState& st = it->second;
  if (st.prepare_started || st.formed.empty()) return;

  // Preference: a formed pre-prepareQC for a *normal* block wins; a virtual
  // one needs the validating vc from an R2 attachment.
  const Block* chosen = nullptr;
  Hash256 chosen_hash;
  std::optional<QuorumCert> aux;

  for (const auto& [hash, is_virtual] : st.proposed) {
    auto formed_it = st.formed.find(hash);
    if (formed_it == st.formed.end()) continue;
    if (!is_virtual) {
      chosen = store_.get(hash);
      chosen_hash = hash;
      aux.reset();
      break;
    }
    if (st.vc_candidate) {
      const Block* b = store_.get(hash);
      const QuorumCert& vc = *st.vc_candidate;
      if (b && vc.view == b->parent_view && vc.height + 1 == b->height) {
        chosen = b;
        chosen_hash = hash;
        aux = vc;
        // keep scanning: a normal block formed later still wins
      }
    }
  }
  if (!chosen) return;

  QuorumCert qc = qc_from_block(QcType::kPrePrepare, cview_, *chosen,
                                chosen_hash, st.formed.at(chosen_hash));
  finalize_qc(qc);
  st.prepare_started = true;
  trace({.type = obs::EventType::kViewChangeEnd,
         .height = chosen->height,
         .block = trace_block_id(chosen_hash),
         .a = 0});
  trace({.type = obs::EventType::kPhaseTransition,
         .phase = static_cast<std::uint8_t>(Phase::kPrepare),
         .height = chosen->height,
         .block = trace_block_id(chosen_hash)});
  if (aux) {
    store_.set_virtual_parent(chosen_hash, aux->block_hash);
  }
  update_high_qc(Justify{qc, aux});
  persist();  // durable before the Case-N2 re-announce leaves

  types::QcNoticeMsg notice{Phase::kPrepare, cview_, std::move(qc), aux};
  broadcast(types::make_envelope(MsgKind::kQcNotice, notice));
}

}  // namespace marlin::consensus
