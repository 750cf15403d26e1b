// Marlin (Sui, Duan, Zhang — DSN 2022): two-phase BFT with linearity.
//
// Normal case (paper Fig. 6/7): PREPARE → COMMIT, two vote rounds. Replicas
// lock on prepareQCs; COMMIT carries the prepareQC, commitQC delivery
// commits the chain.
//
// View change (paper Fig. 9): VIEW-CHANGE messages carry (lb, highQC, and a
// partial signature over lb re-signed for the new view).
//   Happy path: n−f identical lb → the leader combines the partial
//   signatures into a prepareQC and goes straight to PREPARE (2-phase VC).
//   Unhappy path: a PRE-PREPARE phase first. Leader cases:
//     V1 — highest QC is a prepareQC but someone voted beyond it: propose a
//          normal child AND a virtual grandchild as shadow blocks;
//     V2 — certainly-safe snapshot: one block;
//     V3 — two pre-prepareQCs survived: two shadow children.
//   Replica vote rules R1 (rank ≥ lock), R2 (virtual block exactly above
//   the lock → vote and attach lockedQC), R3 (pre-prepareQC of the locked
//   block itself).
// After the pre-prepare phase the leader re-announces the pre-prepared
// block via a PREPARE QC-notice (Case N2) — no new block, exactly as the
// paper's chained-mode note prescribes.
//
// Deviation (documented in DESIGN.md): a virtual block's pview is set to
// the justify QC's *formation* view rather than its block's view. The two
// coincide for every QC except happy-path view-change QCs, where the
// formation view is the one that makes the R2/vc equations consistent.
#pragma once

#include "consensus/replica_base.h"

namespace marlin::consensus {

class MarlinReplica : public ReplicaBase {
 public:
  MarlinReplica(ReplicaConfig config, const crypto::SignatureSuite& suite,
                ProtocolEnv& env);

  void start() override;
  void advance_to_view(ViewNumber v) override;
  PersistentState persistent_state() const override;
  void restore(const PersistentState& ps) override;

  // -- introspection (tests, metrology) ------------------------------------
  const QuorumCert& locked_qc() const { return locked_qc_; }
  const Justify& high_qc() const { return high_qc_; }
  const BlockRef& last_voted() const { return lb_; }
  /// Unhappy-path view changes resolved by this replica as leader.
  std::uint64_t unhappy_view_changes() const { return unhappy_vcs_; }
  std::uint64_t happy_view_changes() const { return happy_vcs_; }

 protected:
  void on_proposal(ReplicaId from, types::ProposalMsg msg) override;
  void on_vote(ReplicaId from, types::VoteMsg msg) override;
  void on_qc_notice(ReplicaId from, types::QcNoticeMsg msg) override;
  void on_view_change(ReplicaId from, types::ViewChangeMsg msg) override;
  void maybe_propose() override;
  void adopt_recovery_tip(const Block& tip) override;

 private:
  struct VcState {
    std::map<ReplicaId, types::ViewChangeMsg> msgs;
    bool acted = false;            // snapshot processed
    bool prepare_started = false;  // pre-prepare resolved (or happy path)
    // Pre-prepare proposals by hash; bool = virtual block.
    std::vector<std::pair<Hash256, bool>> proposed;
    // Formed pre-prepare sig groups awaiting the preference decision.
    std::map<Hash256, crypto::SigGroup> formed;
    // Highest R2-attached prepareQC seen (the future `vc`).
    std::optional<QuorumCert> vc_candidate;
  };

  // -- normal case ----------------------------------------------------------
  void propose_normal(bool force);
  void handle_prepare_proposal(ReplicaId from, types::ProposalMsg msg);
  void handle_commit_notice(ReplicaId from, const types::QcNoticeMsg& msg);
  void handle_decide_notice(ReplicaId from, const types::QcNoticeMsg& msg);

  // -- view change ----------------------------------------------------------
  void enter_view(ViewNumber v, bool send_vc);
  void handle_preprepare_proposal(ReplicaId from, types::ProposalMsg msg);
  void handle_prepare_notice(ReplicaId from, const types::QcNoticeMsg& msg);
  void leader_check_vc_quorum();
  void leader_act_on_snapshot(VcState& st);
  void leader_check_preprepare_progress();
  /// Validates the high_qc justify carried by a VIEW-CHANGE message.
  bool validate_justify(const Justify& j);

  // -- state updates ---------------------------------------------------------
  void update_high_qc(const Justify& j);
  void update_locked(const QuorumCert& qc);
  bool block_ref_rank_greater(ViewNumber bview, Height bheight,
                              const Justify& bjustify) const;

  Hash256 prepare_digest_for_block(const Block& b, const Hash256& h) const;
  Hash256 digest_for_qc_fields(QcType type, ViewNumber view,
                               const QuorumCert& qc) const;
  QuorumCert qc_from_block(QcType type, ViewNumber view, const Block& b,
                           const Hash256& h, crypto::SigGroup sigs);

  BlockRef lb_;             // last voted block (genesis at start)
  QuorumCert locked_qc_;    // genesis prepareQC at start
  Justify high_qc_;         // {genesis prepareQC} at start

  VoteCollector votes_;
  bool propose_ready_ = false;

  std::map<ViewNumber, VcState> vc_;
  std::set<ViewNumber> vc_sent_;

  std::uint64_t unhappy_vcs_ = 0;
  std::uint64_t happy_vcs_ = 0;
};

}  // namespace marlin::consensus
