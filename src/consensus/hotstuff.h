// HotStuff baseline (Yin et al., PODC 2019), in the paper's event-driven
// formulation: a three-phase commit rule (PREPARE → PRE-COMMIT → COMMIT,
// then a DECIDE broadcast), linear view change via NEW-VIEW messages
// carrying the sender's highest prepareQC. Replicas lock on precommitQCs
// and accept a conflicting-branch proposal only with a higher-view justify
// (the safeNode rule). Supports the same stable-leader pipelining as our
// Marlin implementation: the leader proposes block k+1 as soon as the
// prepareQC for block k forms, which is the chained operating mode the
// paper's evaluation runs.
#pragma once

#include "consensus/replica_base.h"

namespace marlin::consensus {

class HotStuffReplica : public ReplicaBase {
 public:
  HotStuffReplica(ReplicaConfig config, const crypto::SignatureSuite& suite,
                  ProtocolEnv& env);

  void start() override;
  void advance_to_view(ViewNumber v) override;
  PersistentState persistent_state() const override;
  void restore(const PersistentState& ps) override;

  const QuorumCert& locked_qc() const { return locked_qc_; }
  const QuorumCert& prepare_qc_high() const { return prepare_qc_high_; }
  std::uint64_t view_changes_led() const { return vcs_led_; }

 protected:
  void on_proposal(ReplicaId from, types::ProposalMsg msg) override;
  void on_vote(ReplicaId from, types::VoteMsg msg) override;
  void on_qc_notice(ReplicaId from, types::QcNoticeMsg msg) override;
  void on_view_change(ReplicaId from, types::ViewChangeMsg msg) override;
  void maybe_propose() override;
  void adopt_recovery_tip(const Block& tip) override;

 private:
  void propose(bool force);
  void enter_view(ViewNumber v, bool send_new_view);
  void leader_check_new_view_quorum();

  Hash256 digest_for(QcType type, const Hash256& h, ViewNumber bview,
                     Height height, ViewNumber pview) const;

  QuorumCert prepare_qc_high_;  // highest prepareQC seen (genesis at start)
  QuorumCert locked_qc_;        // highest precommitQC seen (lock)
  ViewNumber lb_view_ = 0;      // last voted block (view, height)
  Height lb_height_ = 0;

  VoteCollector votes_;
  bool propose_ready_ = false;

  struct NewViewState {
    std::map<ReplicaId, types::ViewChangeMsg> msgs;
    bool acted = false;
  };
  std::map<ViewNumber, NewViewState> new_views_;
  std::set<ViewNumber> nv_sent_;
  std::uint64_t vcs_led_ = 0;
};

}  // namespace marlin::consensus
