#include "consensus/replica_base.h"

#include <algorithm>
#include <bit>
#include <functional>

#include "consensus/block_frames.h"

namespace marlin::consensus {

std::optional<crypto::SigGroup> VoteCollector::add(
    Phase phase, const Hash256& block, const crypto::PartialSig& sig) {
  Slot& slot = slots_[Key{static_cast<std::uint8_t>(phase), block}];
  if (slot.formed) return std::nullopt;
  if (!slot.signers.insert(sig.signer).second) return std::nullopt;
  slot.sigs.push_back(sig);
  if (slot.sigs.size() < threshold_) return std::nullopt;
  slot.formed = true;
  return crypto::SigGroup::combine(slot.sigs, threshold_);
}

std::uint32_t VoteCollector::count(Phase phase, const Hash256& block) const {
  auto it = slots_.find(Key{static_cast<std::uint8_t>(phase), block});
  return it == slots_.end()
             ? 0
             : static_cast<std::uint32_t>(it->second.signers.size());
}

ReplicaBase::ReplicaBase(ReplicaConfig config,
                         const crypto::SignatureSuite& suite,
                         ProtocolEnv& env, std::string domain)
    : config_(config),
      env_(env),
      domain_(std::move(domain)),
      suite_(suite),
      signer_(suite.signer(config.id)),
      verifier_(suite.verifier()) {
  committed_hash_ = store_.genesis_hash();
  peer_timeout_view_.assign(config_.quorum.n, 0);
}

void ReplicaBase::start() {
  // Fresh replicas begin at view 1; a restored replica re-enters the view
  // it had durably reached (never below 1, never rewinding).
  cview_ = std::max<ViewNumber>(cview_, 1);
  env_.entered_view(cview_);
}

PersistentState ReplicaBase::base_persistent_state(PersistedProtocol p) const {
  PersistentState ps;
  ps.protocol = p;
  ps.view = cview_;
  ps.committed_height = committed_height_;
  ps.committed_hash = committed_hash_;
  return ps;
}

void ReplicaBase::restore(const PersistentState& ps) {
  cview_ = ps.view;
  committed_hash_ = ps.committed_hash;
  committed_height_ = ps.committed_height;
}

void ReplicaBase::handle_message(ReplicaId from, const Envelope& envelope) {
  // An amnesia-recovering replica must not act on protocol traffic: it
  // cannot know what it voted before the disk was lost, so voting (or
  // proposing) again could equivocate. Client ops still pool, and the
  // fetch/snapshot plane stays open — that's how recovery completes.
  if (recovering_) {
    switch (envelope.kind()) {
      case MsgKind::kProposal:
      case MsgKind::kVote:
      case MsgKind::kQcNotice:
      case MsgKind::kViewChange:
      case MsgKind::kTimeoutNotice:
        return;
      default:
        break;
    }
  }
  switch (envelope.kind()) {
    case MsgKind::kClientRequest: {
      auto msg = types::open_envelope<types::ClientRequestMsg>(envelope);
      if (msg.is_ok()) {
        for (types::Operation& op : msg.value().ops) {
          pool_.add(std::move(op), env_.now());
        }
        maybe_propose();
      }
      return;
    }
    case MsgKind::kProposal: {
      if (from == config_.id) {
        if (auto own = own_proposal(envelope)) {
          on_proposal(from, std::move(*own));
          return;
        }
      }
      auto msg = open_framed<types::ProposalMsg>(envelope);
      if (msg.is_ok()) on_proposal(from, std::move(msg).take());
      return;
    }
    case MsgKind::kVote: {
      auto msg = types::open_envelope<types::VoteMsg>(envelope);
      if (msg.is_ok()) on_vote(from, std::move(msg).take());
      return;
    }
    case MsgKind::kQcNotice: {
      auto msg = types::open_envelope<types::QcNoticeMsg>(envelope);
      if (msg.is_ok()) on_qc_notice(from, std::move(msg).take());
      return;
    }
    case MsgKind::kViewChange: {
      auto msg = types::open_envelope<types::ViewChangeMsg>(envelope);
      if (msg.is_ok()) on_view_change(from, std::move(msg).take());
      return;
    }
    case MsgKind::kFetchRequest: {
      auto msg = types::open_envelope<types::FetchRequestMsg>(envelope);
      if (msg.is_ok()) on_fetch_request(from, msg.value());
      return;
    }
    case MsgKind::kFetchResponse: {
      auto msg = open_framed<types::FetchResponseMsg>(envelope);
      if (msg.is_ok()) on_fetch_response(from, std::move(msg).take());
      return;
    }
    case MsgKind::kSnapshotRequest: {
      auto msg = types::open_envelope<types::SnapshotRequestMsg>(envelope);
      if (msg.is_ok()) on_snapshot_request(from, msg.value());
      return;
    }
    case MsgKind::kSnapshotResponse: {
      auto msg = open_framed<types::SnapshotResponseMsg>(envelope);
      if (msg.is_ok()) on_snapshot_response(from, std::move(msg).take());
      return;
    }
    case MsgKind::kTimeoutNotice: {
      auto msg = types::open_envelope<types::TimeoutNoticeMsg>(envelope);
      if (msg.is_ok()) on_timeout_notice(from, msg.value());
      return;
    }
    case MsgKind::kClientReply:
      return;  // replicas never receive replies
  }
}

std::optional<types::ProposalMsg> ReplicaBase::own_proposal(
    const Envelope& env) const {
  const std::vector<Payload::Digest>* digests =
      env.serialize().digests_if_ready();
  if (!digests || digests->empty()) return std::nullopt;
  Reader r(env.body());
  std::uint8_t phase = 0;
  types::ProposalMsg m;
  if (!r.u8(phase).is_ok() || !r.u64(m.view).is_ok() ||
      phase > static_cast<std::uint8_t>(Phase::kDecide)) {
    return std::nullopt;
  }
  m.phase = static_cast<Phase>(phase);
  for (const Payload::Digest& d : *digests) {
    const Hash256 h{d};
    const Block* b = store_.get(h);
    // A released body no longer is the block: decode the frame instead.
    if (!b || store_.ops_released(h)) return std::nullopt;
    types::ProposalEntry e;
    e.justify = b->justify;
    e.stored = b;
    m.entries.push_back(std::move(e));
  }
  return m;
}

std::vector<Hash256> ReplicaBase::broadcast_proposal(types::ProposalMsg& msg) {
  std::vector<types::BlockSlices> slices;
  const Envelope frame = frame_proposal(msg, slices);
  broadcast(frame);
  std::vector<Block*> blocks;
  for (types::ProposalEntry& e : msg.entries) blocks.push_back(&e.block);
  pin_block_digests(frame, slices, blocks);
  std::vector<Hash256> hashes;
  for (types::ProposalEntry& e : msg.entries) {
    hashes.push_back(e.block.hash());
    store_.insert(std::move(e.block));
  }
  return hashes;
}

void ReplicaBase::on_view_timeout() {
  if (cview_ == 0) return;
  trace({.type = obs::EventType::kTimeoutFired});
  // Quorum-gated advance: announce the timeout (rebroadcast on every
  // subsequent fire, so lost notices heal) and advance only once f+1
  // replicas are known to have timed out of this view. The local entry is
  // set directly rather than waiting for the loopback delivery.
  peer_timeout_view_[config_.id] =
      std::max(peer_timeout_view_[config_.id], cview_);
  broadcast(types::make_envelope(MsgKind::kTimeoutNotice,
                                 types::TimeoutNoticeMsg{cview_}));
  check_timeout_quorum();
}

void ReplicaBase::on_timeout_notice(ReplicaId from,
                                    const types::TimeoutNoticeMsg& msg) {
  if (from >= config_.quorum.n) return;
  if (msg.view <= peer_timeout_view_[from]) return;
  peer_timeout_view_[from] = msg.view;
  check_timeout_quorum();
}

void ReplicaBase::check_timeout_quorum() {
  if (cview_ == 0) return;
  // v* = highest view that f+1 distinct replicas have timed out of (the
  // (f+1)-th largest entry). Advancing to v*+1 is justified: at least one
  // correct replica timed out at or above v*, so waiting in any view ≤ v*
  // cannot make progress. Jumps over multiple dead views in one step.
  std::vector<ViewNumber> sorted = peer_timeout_view_;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const ViewNumber vstar = sorted[config_.quorum.f];
  if (vstar >= cview_) advance_to_view(vstar + 1);
}

void ReplicaBase::submit(types::Operation op) {
  pool_.add(std::move(op), env_.now());
  maybe_propose();
}

bool ReplicaBase::verify_qc(const QuorumCert& qc) {
  if (qc.is_genesis()) {
    // Valid by convention iff it names the actual genesis block.
    return qc.block_hash == store_.genesis_hash() && qc.sigs.parts.empty() &&
           !qc.is_threshold_form();
  }
  const Hash256 digest = qc.signed_digest(domain_);
  if (verified_qc_digests_.count(digest) > 0) return true;
  bool ok;
  if (qc.is_threshold_form()) {
    // BLS-class verification: two pairings, size-independent.
    env_.charge(Cost::kPairing, 2);
    ok = suite_.threshold_verify(digest.view(), qc.threshold_sig);
  } else {
    env_.charge(Cost::kVerify, qc.sigs.parts.size());
    ok = qc.sigs.verify(verifier_, digest.view(), quorum());
  }
  if (!ok) {
    MLOG_WARN("replica %u: invalid QC %s", config_.id, qc.to_string().c_str());
    return false;
  }
  verified_qc_digests_.insert(digest);
  return true;
}

void ReplicaBase::finalize_qc(QuorumCert& qc) {
  const Hash256 digest = qc.signed_digest(domain_);
  if (config_.use_threshold_sigs) {
    std::vector<std::pair<ReplicaId, Bytes>> parts;
    parts.reserve(qc.sigs.parts.size());
    for (const auto& p : qc.sigs.parts) parts.emplace_back(p.signer, p.sig);
    env_.charge(Cost::kCombineShare, parts.size());
    auto combined = suite_.threshold_combine(digest.view(), parts, quorum());
    if (combined) {
      qc.threshold_sig = std::move(*combined);
      qc.sigs = crypto::SigGroup{};
    }
  }
  // A locally formed certificate is valid by construction.
  verified_qc_digests_.insert(digest);
}

crypto::PartialSig ReplicaBase::sign_digest(const Hash256& digest) {
  if (config_.use_threshold_sigs) {
    env_.charge(Cost::kThresholdSign, 1);
  } else {
    env_.charge(Cost::kSign, 1);
  }
  return crypto::PartialSig{config_.id, signer_->sign(digest.view())};
}

bool ReplicaBase::verify_partial(const crypto::PartialSig& sig,
                                 const Hash256& digest) {
  if (config_.use_threshold_sigs) {
    env_.charge(Cost::kPairing, 2);  // BLS-class share verification
  } else {
    env_.charge(Cost::kVerify, 1);
  }
  return verifier_.verify(sig.signer, digest.view(), sig.sig);
}

std::vector<types::Operation> ReplicaBase::make_batch(bool force) {
  auto batch = pool_.next_batch(config_.max_batch_ops);
  if (batch.empty()) {
    last_batch_wait_ = Duration::zero();
    if (!force && !config_.allow_empty_blocks) return {};
    return batch;
  }
  last_batch_wait_ = env_.now() - pool_.last_batch_oldest_enqueue();
  return batch;
}

void ReplicaBase::commit_to(const Hash256& target, ReplicaId provider) {
  if (target == committed_hash_) return;
  const Block* tip = store_.get(target);
  if (tip && tip->height <= committed_height_) {
    // Already committed (an old DECIDE re-delivered) — or a conflicting
    // chain, which the chain() walk below would catch; cheap check first.
    if (!store_.extends(committed_hash_, target)) {
      safety_violated_ = true;
      MLOG_ERROR("replica %u: SAFETY VIOLATION: commit target %s conflicts",
                 config_.id, target.short_hex().c_str());
    }
    return;
  }

  std::vector<Hash256> path = store_.chain(target, committed_hash_);
  if (path.empty()) {
    // Bodies on the path are missing. Sanity-check for an actual conflict
    // (walked to the root without meeting the committed head), then issue
    // a batched catch-up fetch for the whole range.
    Hash256 cursor = target;
    while (true) {
      const Block* b = store_.get(cursor);
      if (!b) break;
      if (b->is_genesis()) {
        safety_violated_ = true;
        MLOG_ERROR("replica %u: SAFETY VIOLATION at %s", config_.id,
                   target.short_hex().c_str());
        return;
      }
      const Hash256 parent = store_.parent_of(cursor);
      if (parent.is_zero() || parent == committed_hash_) break;
      cursor = parent;
    }
    // Keep the FIRST unresolved target as the catch-up anchor. Re-pointing
    // at every newer DECIDE moves the goalpost: a laggard whose
    // fetch/snapshot round-trip matches the cluster's commit cadence is
    // then perpetually one body short of the latest target and never
    // completes a path (livelock). The anchor stands still, resolves, and
    // the next DECIDE supplies a fresh (now nearby) target.
    if (!pending_commit_) pending_commit_ = PendingCommit{target, provider};
    const Hash256 anchor = pending_commit_->target;

    // Pick what to request next so successive batches converge: walk down
    // from the anchor — or, when the anchor's own body is still missing,
    // from the oldest block the previous batch delivered — to the deepest
    // known block, and request its (missing) parent's range. When the
    // bottom of the gap is already closed, the remainder is at the top:
    // request the anchor itself.
    Hash256 walk_start = anchor;
    if (!store_.get(anchor) && !last_fetched_.is_zero() &&
        store_.get(last_fetched_)) {
      walk_start = last_fetched_;
    }
    Hash256 request_hash = anchor;
    if (store_.get(walk_start)) {
      Hash256 down = walk_start;
      while (const Block* b = store_.get(down)) {
        if (b->is_genesis()) break;
        const Hash256 parent = store_.parent_of(down);
        if (parent.is_zero() || parent == committed_hash_) break;
        down = parent;
      }
      // When the walk stopped on a hash with no body, that hash is the
      // bottom of the gap: request it so successive batches extend the
      // known range downward. Re-requesting the target instead would chase
      // the advancing tip forever once the gap outgrows one fetch batch.
      if (!store_.get(down)) request_hash = down;
    }

    if (in_fetch_retry_) return;           // a batch is still streaming in
    if (fetch_inflight_ && ++fetch_stall_ < 8) return;  // one at a time
    // Re-issuing an unanswered request rotates the provider: the provider
    // hint comes from whoever sent the DECIDE, which via loopback can be
    // this very replica (a laggard leader), and may also be crashed.
    if (fetch_inflight_) ++fetch_retry_round_;
    fetch_inflight_ = true;
    fetch_stall_ = 0;
    ReplicaId source = static_cast<ReplicaId>(
        (provider + fetch_retry_round_) % config_.quorum.n);
    if (source == config_.id) {
      source = static_cast<ReplicaId>((source + 1) % config_.quorum.n);
    }
    // Far behind (gap wider than one fetch batch): request a snapshot —
    // manifest + chain suffix in ONE exchange — instead of walking
    // O(gap / kFetchBatchLimit) fetch rounds. When the anchor's body is
    // missing the gap is unknown here; the provider upgrades the fetch to
    // a snapshot on its side (see on_fetch_request).
    const Block* anchor_tip = store_.get(anchor);
    if (anchor_tip &&
        anchor_tip->height >
            committed_height_ + types::FetchRequestMsg::kFetchBatchLimit) {
      trace({.type = obs::EventType::kStateTransfer,
             .height = committed_height_,
             .block = trace_block_id(anchor),
             .a = 0});
      send_to(source,
              types::make_envelope(MsgKind::kSnapshotRequest,
                                   types::SnapshotRequestMsg{committed_height_}));
      return;
    }
    send_to(source,
            types::make_envelope(
                MsgKind::kFetchRequest,
                types::FetchRequestMsg{request_hash, committed_height_}));
    return;
  }
  fetch_inflight_ = false;  // progress: the next gap issues a fresh fetch
  fetch_stall_ = 0;
  fetch_retry_round_ = 0;
  last_fetched_ = Hash256{};

  for (const Hash256& h : path) {
    const Block* b = store_.get(h);
    // Points into the stored body: delivery reads the ops, never copies them.
    std::vector<const types::Operation*> executable;
    executable.reserve(b->ops.size());
    for (const types::Operation& op : b->ops) {
      if (pool_.executed(op.client, op.request)) continue;  // duplicate
      pool_.mark_committed(op);
      executable.push_back(&op);
    }
    env_.deliver(*b, executable);
    trace({.type = obs::EventType::kCommit,
           .height = b->height,
           .block = trace_block_id(h),
           .a = executable.size(),
           .b = b->ops.size()});
    committed_hash_ = h;
    committed_height_ = b->height;
    ++committed_blocks_;
    // Release executed payloads once the retained-bytes budget is
    // exceeded (a released body must never be served again — its content
    // no longer matches its hash — so keep a generous catch-up window).
    const std::size_t body_bytes = types::ops_wire_size(b->ops);
    recent_committed_.emplace_back(h, body_bytes);
    retained_bytes_ += body_bytes;
    while (recent_committed_.size() > kRetainMinBlocks &&
           retained_bytes_ > kRetainBudgetBytes) {
      store_.release_ops(recent_committed_.front().first);
      retained_bytes_ -= recent_committed_.front().second;
      recent_committed_.pop_front();
    }
  }
  // The commit frontier advanced: make it durable so a restart resumes
  // from here instead of re-fetching (and so restarted replicas never
  // re-deliver).
  persist();
  env_.progressed();
  maybe_propose();
}

void ReplicaBase::on_fetch_request(ReplicaId from,
                                   const types::FetchRequestMsg& msg) {
  // A requester more than one batch behind gets a snapshot instead: its
  // own request carried `since`, so one response closes the whole gap.
  if (committed_height_ >
      msg.since + types::FetchRequestMsg::kFetchBatchLimit) {
    serve_snapshot(from, msg.since);
    return;
  }
  // Serve the chain from the requested block down to `since`, newest
  // first, capped per request. Stop at any released body (its content no
  // longer matches its hash) — the requester can re-request as it closes
  // the gap from the other side.
  Hash256 cursor = msg.block_hash;
  std::uint32_t sent = 0;
  while (sent < types::FetchRequestMsg::kFetchBatchLimit) {
    const Block* b = store_.get(cursor);
    if (!b || store_.ops_released(cursor)) break;
    if (b->height <= msg.since || b->is_genesis()) break;
    send_to(from, types::make_envelope(MsgKind::kFetchResponse,
                                       types::FetchResponseMsg{*b}));
    ++sent;
    cursor = store_.parent_of(cursor);
    if (cursor.is_zero()) break;
  }
}

void ReplicaBase::on_fetch_response(ReplicaId from,
                                    types::FetchResponseMsg msg) {
  (void)from;
  env_.charge(Cost::kHashBytes, types::ops_wire_size(msg.block.ops) + 128);
  const Hash256 fetched = msg.block.hash();
  // Batches stream the chain newest first, so the previously delivered
  // body is this block's child. A virtual child's parent link lives outside
  // its body (the message-borne vc QC; see BlockStore::set_virtual_parent)
  // and does not survive transfer — rebind it here, checked against the
  // child's own justify, whose qc certifies the grandparent and therefore
  // must match this block's parent_link. Without the rebind, parent_of()
  // on the transferred virtual block stays ⊥ and catch-up wedges forever.
  if (!last_fetched_.is_zero() && !msg.block.virtual_block) {
    const Block* child = store_.get(last_fetched_);
    if (child && child->virtual_block && child->height == msg.block.height + 1 &&
        store_.parent_of(last_fetched_).is_zero() && child->justify.qc &&
        child->justify.qc->block_hash == msg.block.parent_link) {
      store_.set_virtual_parent(last_fetched_, fetched);
    }
  }
  last_fetched_ = fetched;
  store_.insert(std::move(msg.block));
  // Retry after each body, but suppress new fetch requests while the rest
  // of the batch is still streaming in (in_fetch_retry_); the last body of
  // the batch either completes the commit (clearing the inflight flag) or
  // the next DECIDE re-arms the fetch via the stall counter.
  in_fetch_retry_ = true;
  retry_pending_commit();
  in_fetch_retry_ = false;
}

void ReplicaBase::on_snapshot_request(ReplicaId from,
                                      const types::SnapshotRequestMsg& msg) {
  // Recovery requests are broadcast (loopback included) — never answer
  // our own.
  if (from == config_.id) return;
  serve_snapshot(from, msg.since);
}

void ReplicaBase::serve_snapshot(ReplicaId to, Height since) {
  types::SnapshotResponseMsg resp;
  resp.height = committed_height_;
  resp.head = committed_hash_;
  Hash256 cursor = committed_hash_;
  std::size_t suffix_bytes = 0;
  while (resp.suffix.size() < types::SnapshotResponseMsg::kSuffixLimit) {
    const Block* b = store_.get(cursor);
    if (!b || store_.ops_released(cursor)) break;
    if (b->is_genesis() || b->height <= since) break;
    // Past the byte cap the requester fast-forwards over the rest, as it
    // does over released bodies (see on_snapshot_response).
    suffix_bytes += types::ops_wire_size(b->ops) + 128;
    if (!resp.suffix.empty() &&
        suffix_bytes > types::SnapshotResponseMsg::kSuffixBytes) {
      break;
    }
    resp.suffix.push_back(*b);
    cursor = store_.parent_of(cursor);
    if (cursor.is_zero()) break;
  }
  // An empty suffix is still sent: "nothing newer than `since`" is the
  // confirmation an amnesia-recovering requester counts toward its f+1
  // you-are-current quorum. Only actual transfers are traced as served.
  if (!resp.suffix.empty()) {
    trace({.type = obs::EventType::kStateTransfer,
           .height = committed_height_,
           .block = trace_block_id(committed_hash_),
           .a = 1,
           .b = resp.suffix.size()});
  }
  send_to(to, types::make_envelope(MsgKind::kSnapshotResponse, resp));
}

void ReplicaBase::on_snapshot_response(ReplicaId from,
                                       types::SnapshotResponseMsg msg) {
  if (msg.suffix.empty()) {
    // "Nothing newer than your frontier." While recovering, f+1 such
    // confirmations (at least one from a correct replica) mean the lost
    // disk held nothing the cluster moved past — safe to rejoin.
    if (recovering_ && from != config_.id && msg.height <= committed_height_) {
      recovery_ack_mask_ |= 1u << (from % 32u);
      if (static_cast<std::uint32_t>(std::popcount(recovery_ack_mask_)) >=
          config_.quorum.reply_quorum()) {
        finish_recovery();
      }
    }
    return;
  }
  std::size_t body_bytes = 0;
  for (const Block& b : msg.suffix) {
    body_bytes += types::ops_wire_size(b.ops) + 128;
  }
  env_.charge(Cost::kHashBytes, body_bytes);
  // Suffix streams newest first; insert oldest first so parent links
  // resolve as we go. A virtual block's parent link lives outside its body
  // (the message-borne vc QC; see BlockStore::set_virtual_parent) and does
  // not survive transfer — rebind it from stream order: in a contiguous
  // suffix the next-older block is the parent. The binding is checked
  // against the virtual block's own justify, whose qc certifies the
  // grandparent and therefore must match the parent's parent_link.
  const Hash256 oldest_hash = msg.suffix.back().hash();
  const Height oldest_height = msg.suffix.back().height;
  Hash256 below =
      (oldest_height == committed_height_ + 1) ? committed_hash_ : Hash256{};
  for (auto it = msg.suffix.rbegin(); it != msg.suffix.rend(); ++it) {
    const Hash256 h = it->hash();
    const bool rebind = it->virtual_block && store_.parent_of(h).is_zero();
    const Hash256 grand =
        it->justify.qc ? it->justify.qc->block_hash : Hash256{};
    store_.insert(std::move(*it));
    if (rebind && !below.is_zero()) {
      const Block* parent = store_.get(below);
      if (parent && !parent->virtual_block && parent->parent_link == grand) {
        store_.set_virtual_parent(h, below);
      }
    }
    below = h;
  }
  fetch_inflight_ = false;
  fetch_stall_ = 0;
  fetch_retry_round_ = 0;
  last_fetched_ = Hash256{};
  // If the suffix does not link down to our committed head (the provider
  // released the bodies below it), adopt the manifest: fast-forward the
  // frontier to the suffix base, skipping the unfetchable region. The
  // skipped blocks are never delivered locally; the walkable prefix of
  // this replica's chain now starts at the snapshot base.
  Height skipped = 0;
  if (oldest_height > committed_height_ + 1 &&
      !store_.extends(msg.head, committed_hash_)) {
    const Hash256 base_parent = store_.parent_of(oldest_hash);
    if (!base_parent.is_zero()) {
      skipped = oldest_height - 1 - committed_height_;
      skipped_heights_ += skipped;
      committed_hash_ = base_parent;
      committed_height_ = oldest_height - 1;
      // The catch-up anchor may now sit below the skipped region; drop it
      // rather than chase an uncommittable target.
      if (pending_commit_) {
        const Block* a = store_.get(pending_commit_->target);
        if (!a || a->height <= committed_height_) pending_commit_.reset();
      }
    }
  }
  trace({.type = obs::EventType::kStateTransfer,
         .height = msg.height,
         .block = trace_block_id(msg.head),
         .a = 2,
         .b = msg.suffix.size(),
         .c = skipped});
  // A recovering replica re-anchors on the snapshot tip: the protocol
  // adopts its justify QC (verified there — a lying manifest cannot plant
  // state) and recovery completes.
  if (recovering_) {
    if (const Block* tip = store_.get(msg.head)) adopt_recovery_tip(*tip);
    finish_recovery();
  }
  // Commit toward the QC-verified pending target (NOT the provider's
  // claimed head — a lying manifest must not drive commits).
  retry_pending_commit();
}

void ReplicaBase::begin_recovery() {
  recovering_ = true;
  recovery_ack_mask_ = 0;
  send_recovery_request();
}

void ReplicaBase::recovery_tick() {
  if (recovering_) send_recovery_request();
}

void ReplicaBase::send_recovery_request() {
  trace({.type = obs::EventType::kStateTransfer,
         .height = committed_height_,
         .a = 0});
  broadcast(types::make_envelope(
      MsgKind::kSnapshotRequest, types::SnapshotRequestMsg{committed_height_}));
}

void ReplicaBase::finish_recovery() {
  if (!recovering_) return;
  recovering_ = false;
  recovery_ack_mask_ = 0;
  // The replica may have led (and proposed in) this very view before the
  // wipe; proposing in it again would equivocate. Any view advance clears
  // the hold.
  recovery_hold_view_ = cview_;
  trace({.type = obs::EventType::kStateTransfer,
         .height = committed_height_,
         .block = trace_block_id(committed_hash_),
         .a = 3});
  persist();
  maybe_propose();
}

std::uint64_t ReplicaBase::trace_block_id(const Hash256& h) {
  std::uint64_t id = 0;
  for (int i = 0; i < 8; ++i) id = (id << 8) | h.data[i];
  return id;
}

void ReplicaBase::retry_pending_commit() {
  if (!pending_commit_) return;
  const PendingCommit pc = *pending_commit_;
  pending_commit_.reset();
  commit_to(pc.target, pc.provider);
}

}  // namespace marlin::consensus
