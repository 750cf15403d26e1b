// Infrastructure shared by the Marlin and HotStuff replicas: envelope
// dispatch, vote collection, QC verification (with caching and cost
// accounting), block fetching, chain commit, and view bookkeeping.
//
// Threading/timing model: a replica is a deterministic event handler. The
// environment calls handle_message / submit / on_view_timeout; the replica
// never blocks and reports all effects through ProtocolEnv.
//
// Broadcast semantics: ProtocolEnv::broadcast delivers to ALL n replicas
// including the sender (loopback), so a leader's own proposal flows through
// the same code path as everyone else's.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/log.h"
#include "consensus/env.h"
#include "consensus/txpool.h"
#include "crypto/signer.h"
#include "types/block_store.h"
#include "types/messages.h"

namespace marlin::consensus {

using types::Block;
using types::BlockRef;
using types::Envelope;
using types::Hash256;
using types::Justify;
using types::MsgKind;
using types::Phase;
using types::QcType;
using types::QuorumCert;

struct ReplicaConfig {
  ReplicaId id = 0;
  QuorumParams quorum = QuorumParams::for_f(1);
  /// Max client operations per proposed block.
  std::size_t max_batch_ops = 4000;
  /// Pipelined (chained) mode: the leader proposes the next block as soon
  /// as the previous block's prepareQC forms, instead of after commit.
  bool pipelined = true;
  /// Propose empty blocks when the pool is dry (usually off; view-change
  /// re-proposals may always be empty).
  bool allow_empty_blocks = false;
  /// Marlin only: skip the happy-path view change even when eligible
  /// (benchmarks force the unhappy path with this).
  bool disable_happy_path = false;
  /// Quorum-certificate instantiation: false = signature group (the
  /// paper's "most efficient implementation"; default), true = combined
  /// threshold signature (constant-size QCs, pairing-class CPU costs).
  bool use_threshold_sigs = false;
};

/// Collects votes per (phase, block); emits an aggregate exactly once when
/// the threshold is first reached.
class VoteCollector {
 public:
  explicit VoteCollector(std::uint32_t threshold) : threshold_(threshold) {}

  /// Returns the combined signature group when this vote completes the
  /// quorum (first time only); nullopt otherwise. Duplicate signers ignored.
  std::optional<crypto::SigGroup> add(Phase phase, const Hash256& block,
                                      const crypto::PartialSig& sig);

  std::uint32_t count(Phase phase, const Hash256& block) const;
  void clear() { slots_.clear(); }

 private:
  struct Key {
    std::uint8_t phase;
    Hash256 block;
    auto operator<=>(const Key&) const = default;
  };
  struct Slot {
    std::vector<crypto::PartialSig> sigs;
    std::set<ReplicaId> signers;
    bool formed = false;
  };

  std::uint32_t threshold_;
  std::map<Key, Slot> slots_;
};

class ReplicaBase {
 public:
  ReplicaBase(ReplicaConfig config, const crypto::SignatureSuite& suite,
              ProtocolEnv& env, std::string domain);
  virtual ~ReplicaBase() = default;

  /// Enters view 1 (or the restored view after restore()) and, if leader,
  /// becomes ready to propose.
  virtual void start();

  /// Snapshot of the durable consensus state (write-ahead-voting unit).
  /// Protocol subclasses fill their own fields on top of
  /// base_persistent_state().
  virtual PersistentState persistent_state() const = 0;

  /// Rebuilds this replica from a state previously captured by
  /// persistent_state() — the crash-recovery path. Call before start().
  /// Subclasses restore their protocol fields and then call this base,
  /// which restores the view and the commit frontier.
  virtual void restore(const PersistentState& ps);

  /// Entry point for every network payload addressed to this replica.
  void handle_message(ReplicaId from, const Envelope& envelope);

  /// A client operation arrived (runtime decodes ClientRequest envelopes
  /// too, but tests may inject directly).
  void submit(types::Operation op);

  /// The pacemaker's view timer fired. Quorum-gated advance (after
  /// Jolteon-style pacemakers): the fire broadcasts a TimeoutNotice for the
  /// current view but the view only advances once f+1 distinct replicas are
  /// known to have timed out of it (see on_timeout_notice). A lone fast
  /// clock therefore keeps waiting — and voting — in its view instead of
  /// running ahead of the pack, which with exactly a quorum of correct
  /// replicas alive would otherwise strand the cluster one view apart in
  /// lockstep forever.
  void on_view_timeout();

  /// Amnesia-aware rejoin (call after start() on a wipe_disk revival): the
  /// replica cannot know what it voted before the disk was lost, so until
  /// the snapshot sync completes it serves fetches but neither votes nor
  /// proposes. Recovery ends when a peer's snapshot re-anchors the frontier
  /// or f+1 peers confirm there is nothing newer (see on_snapshot_response).
  void begin_recovery();
  bool recovering() const { return recovering_; }
  /// Retransmits the recovery snapshot request (the runtime calls this from
  /// the view timer while recovering, instead of churning views).
  void recovery_tick();

  /// Committed bodies stay fetchable until this many payload bytes are
  /// retained (plus a minimum block count); then the oldest are released.
  static constexpr std::size_t kRetainBudgetBytes = 64u << 20;
  static constexpr std::size_t kRetainMinBlocks = 16;

  // -- introspection -------------------------------------------------------
  ReplicaId id() const { return config_.id; }
  ViewNumber current_view() const { return cview_; }
  Height committed_height() const { return committed_height_; }
  const Hash256& committed_hash() const { return committed_hash_; }
  std::uint64_t committed_blocks() const { return committed_blocks_; }
  /// Heights a snapshot fast-forward skipped without delivering them (the
  /// provider had already released those bodies): a hole in this
  /// instance's delivered log.
  std::uint64_t skipped_heights() const { return skipped_heights_; }
  /// Set iff a commit ever contradicted the local committed chain — the
  /// safety tripwire property tests assert on.
  bool safety_violated() const { return safety_violated_; }
  const types::BlockStore& store() const { return store_; }
  TxPool& pool() { return pool_; }

 protected:
  // -- protocol-specific handlers ------------------------------------------
  virtual void on_proposal(ReplicaId from, types::ProposalMsg msg) = 0;
  virtual void on_vote(ReplicaId from, types::VoteMsg msg) = 0;
  virtual void on_qc_notice(ReplicaId from, types::QcNoticeMsg msg) = 0;
  virtual void on_view_change(ReplicaId from, types::ViewChangeMsg msg) = 0;
  /// Called when new ops arrive or the pipeline frees up; the leader
  /// decides whether to propose.
  virtual void maybe_propose() = 0;

  /// The timeout quorum formed (f+1 replicas timed out at or above
  /// cview_): enter view `v`, sending the protocol's view-change message
  /// (Marlin VC / HotStuff NEW-VIEW) to the new leader.
  virtual void advance_to_view(ViewNumber v) = 0;

  /// Recovery completed with a non-empty snapshot whose newest block is
  /// `tip`: the protocol adopts tip's justify QC (its high-QC / lock) and
  /// jumps to the QC's view, so an amnesiac leader never re-proposes from
  /// genesis inside a view it already led. Default: no adoption.
  virtual void adopt_recovery_tip(const Block& tip) { (void)tip; }

  /// True while proposing is suppressed in the view recovery completed in:
  /// the replica may have led this very view before the wipe, and
  /// re-proposing in it would equivocate. Cleared by any view advance.
  bool propose_held() const {
    return recovery_hold_view_ != 0 && cview_ == recovery_hold_view_;
  }

  // -- helpers --------------------------------------------------------------
  ReplicaId leader_of(ViewNumber v) const {
    return static_cast<ReplicaId>(v % config_.quorum.n);
  }
  bool is_leader() const { return leader_of(cview_) == config_.id; }
  std::uint32_t quorum() const { return config_.quorum.quorum(); }

  /// Verifies a QC's aggregate signature over its signed digest (genesis
  /// QCs are valid by convention). Successful digests are cached so
  /// re-presentations are free — mirroring real implementations — and the
  /// env is charged for the work actually performed (signature checks, or
  /// pairings in threshold form).
  bool verify_qc(const QuorumCert& qc);

  /// Converts a freshly formed QC to the configured instantiation: in
  /// threshold mode, combines the collected partials into one constant-
  /// size signature (charging combine costs) and drops the group.
  void finalize_qc(QuorumCert& qc);

  /// Signs a vote digest (charges one sign / threshold share).
  crypto::PartialSig sign_digest(const Hash256& digest);

  /// Verifies one partial signature over a digest (charges one verify).
  bool verify_partial(const crypto::PartialSig& sig, const Hash256& digest);

  /// Commits everything from the committed head up to `target` (must
  /// extend it), delivering blocks in order. If a body on the path is
  /// missing, fetches it from `provider` and retries on arrival.
  void commit_to(const Hash256& target, ReplicaId provider);

  /// Builds a batch for a new proposal; empty when the pool is dry and
  /// `force` is false and empty blocks are disallowed.
  std::vector<types::Operation> make_batch(bool force);

  /// Sends an envelope to one replica / all replicas (including self).
  void send_to(ReplicaId to, const Envelope& env) { env_.send(to, env); }
  void broadcast(const Envelope& env) { env_.broadcast(env); }

  /// The leader's send: frames `msg` and broadcasts the frame first; only
  /// then digests each block's slice of it — filling the frame's digest
  /// slot, which the loopback copy and co-hosted receivers reuse — and
  /// moves the blocks into the store. Returns their hashes in entry order.
  std::vector<Hash256> broadcast_proposal(types::ProposalMsg& msg);

  /// Moves a proposal entry's block into the store and returns the stored
  /// body (a loopback entry's block is there already).
  const Block& store_proposed(types::ProposalEntry& e) {
    return e.stored ? *e.stored : store_.insert(std::move(e.block));
  }

  /// Common PersistentState fields (view + commit frontier); protocol
  /// subclasses add their own on top.
  PersistentState base_persistent_state(PersistedProtocol p) const;

  /// Write-ahead-voting flush: hands the current durable state to the
  /// environment. Protocols call this after updating voted/locked state
  /// and BEFORE sending the message that depends on it.
  void persist() { env_.persist_state(persistent_state()); }

  // -- tracing --------------------------------------------------------------
  /// First 8 bytes of a block hash as the trace's compact block id.
  static std::uint64_t trace_block_id(const Hash256& h);

  /// Records a protocol event when the env exposes a trace sink. The
  /// replica id is always stamped; `view` defaults to the current view
  /// when the caller leaves it zero. Call with designated initializers:
  ///   trace({.type = obs::EventType::kQcFormed, .phase = ..., ...});
  void trace(obs::TraceEvent e) {
    if (obs::TraceSink* sink = env_.trace_sink()) {
      e.node = config_.id;
      if (e.view == 0) e.view = cview_;
      sink->record(e);
    }
  }

  ReplicaConfig config_;
  ProtocolEnv& env_;
  std::string domain_;
  const crypto::SignatureSuite& suite_;
  std::unique_ptr<crypto::Signer> signer_;
  const crypto::Verifier& verifier_;

  types::BlockStore store_;
  TxPool pool_;

  /// Pool wait of the oldest op in the last non-empty make_batch() result
  /// (observability: kBatchDequeued's b operand).
  Duration last_batch_wait_ = Duration::zero();

  ViewNumber cview_ = 0;  // 0 until start(); views begin at 1
  Hash256 committed_hash_;
  Height committed_height_ = 0;
  std::uint64_t committed_blocks_ = 0;
  std::uint64_t skipped_heights_ = 0;
  bool safety_violated_ = false;
  /// View in which recovery completed (proposing suppressed there; see
  /// propose_held()). 0 = no hold.
  ViewNumber recovery_hold_view_ = 0;

 private:
  /// This replica's own proposal frame, back over loopback, rebuilt from
  /// the store: the frame's digest slot names its blocks, which the
  /// leader stored when it sent them (their justify is the entries'
  /// justify — a leader proposes them so). nullopt when the frame is not
  /// one this replica digested and stored — then it is decoded as usual.
  std::optional<types::ProposalMsg> own_proposal(const Envelope& env) const;
  void on_fetch_request(ReplicaId from, const types::FetchRequestMsg& msg);
  void on_fetch_response(ReplicaId from, types::FetchResponseMsg msg);
  void on_snapshot_request(ReplicaId from, const types::SnapshotRequestMsg& msg);
  void on_snapshot_response(ReplicaId from, types::SnapshotResponseMsg msg);
  /// Sends a manifest + chain-suffix SnapshotResponse covering
  /// (since, committed_height_] to `to`. An empty suffix is still sent:
  /// "nothing newer than `since`" is the confirmation an amnesia-recovering
  /// requester counts toward its f+1 you-are-current quorum.
  void serve_snapshot(ReplicaId to, Height since);
  void retry_pending_commit();
  void send_recovery_request();
  void finish_recovery();
  void on_timeout_notice(ReplicaId from, const types::TimeoutNoticeMsg& msg);
  /// Advances when f+1 distinct replicas (self included) have timed out at
  /// or above cview_ — to one past the highest view with f+1 timeouts.
  void check_timeout_quorum();

  std::set<Hash256> verified_qc_digests_;
  struct PendingCommit {
    Hash256 target;
    ReplicaId provider;
  };
  std::optional<PendingCommit> pending_commit_;
  /// Catch-up fetches are batched (FetchRequestMsg carries a height
  /// range): at most one request outstanding; `fetch_stall_` counts
  /// retries since it was issued so a dead provider doesn't wedge us, and
  /// `fetch_retry_round_` rotates the provider on every unanswered
  /// re-issue (a laggard leader's own loopback DECIDE names itself as
  /// provider — fetching from self would wedge forever).
  bool fetch_inflight_ = false;
  bool in_fetch_retry_ = false;
  std::uint32_t fetch_stall_ = 0;
  std::uint32_t fetch_retry_round_ = 0;
  /// Amnesia recovery state: see begin_recovery().
  bool recovering_ = false;
  std::uint32_t recovery_ack_mask_ = 0;
  /// Highest view each replica (self included) is known to have timed out
  /// in, fed by TimeoutNotice broadcasts; sized n. Soft liveness state —
  /// not persisted; peers rebroadcast on every timer fire.
  std::vector<ViewNumber> peer_timeout_view_;
  /// Oldest body delivered by the in-flight batch (batches stream newest
  /// first) — the resume point for the next request.
  Hash256 last_fetched_;
  std::deque<std::pair<Hash256, std::size_t>> recent_committed_;
  std::size_t retained_bytes_ = 0;
};

}  // namespace marlin::consensus
