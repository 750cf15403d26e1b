// True crash-recovery: replicas restart from their durable consensus state
// (write-ahead voting), amnesia restarts rejoin via snapshot state
// transfer in O(1) request rounds, WAL damage is handled per the framing
// guarantees (torn tail replays cleanly, mid-file corruption surfaces
// kCorruption and keeps the replica down), and the cross-restart safety
// oracle actually catches the double votes a broken persistence path
// produces.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "faults/safety_oracle.h"
#include "obs/trace.h"
#include "runtime/experiment.h"
#include "storage/env.h"
#include "storage/kvstore.h"

namespace marlin {
namespace {

using faults::FaultAction;
using runtime::ClusterConfig;
using runtime::Cluster;
using runtime::ProtocolKind;

constexpr ProtocolKind kBothProtocols[] = {ProtocolKind::kMarlin,
                                           ProtocolKind::kHotStuff};

const char* protocol_name(ProtocolKind p) {
  return p == ProtocolKind::kMarlin ? "marlin" : "hotstuff";
}

ClusterConfig base_config(ProtocolKind protocol) {
  ClusterConfig cfg;
  cfg.f = 1;
  cfg.seed = 21;
  cfg.consensus.protocol = protocol;
  cfg.consensus.pacemaker.base_timeout = Duration::millis(600);
  cfg.clients.count = 4;
  cfg.clients.window = 8;
  return cfg;
}

std::vector<obs::TraceEvent> events_of_type(const obs::TraceSink& sink,
                                            obs::EventType type) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.type == type) out.push_back(e);
  }
  return out;
}

/// Wire sends of `kind` from `node` at or after `from`.
std::size_t sends_of_kind(const obs::TraceSink& sink, std::uint32_t node,
                          types::MsgKind kind, TimePoint from) {
  std::size_t count = 0;
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.type == obs::EventType::kMsgSent && e.node == node &&
        e.kind == static_cast<std::uint8_t>(kind) && e.at >= from) {
      ++count;
    }
  }
  return count;
}

// ---------------------------------------------------------------------------
// Restart from disk (plan-driven, both protocols)
// ---------------------------------------------------------------------------

TEST(Restart, ReplicaRevivesFromDiskAndClusterStaysLiveAndSafe) {
  for (ProtocolKind protocol : kBothProtocols) {
    obs::TraceSink trace{1 << 18};
    ClusterConfig cfg = base_config(protocol);
    cfg.trace = &trace;
    cfg.faults.name = "restart-from-disk";
    cfg.faults.actions = {
        FaultAction::restart(Duration::millis(1500), 2, Duration::millis(900)),
    };
    runtime::ExperimentOptions exp = runtime::throughput_options(
        cfg, Duration::millis(500), Duration::seconds(4));
    exp.check_liveness = true;
    const runtime::ExperimentReport rep = runtime::run_experiment(exp);

    EXPECT_TRUE(rep.ok()) << protocol_name(protocol);
    EXPECT_TRUE(rep.liveness.progressed) << protocol_name(protocol);

    // Exactly one revival, from retained disk state (a = 0, not wiped).
    const auto restarts =
        events_of_type(trace, obs::EventType::kReplicaRestart);
    ASSERT_EQ(restarts.size(), 1u) << protocol_name(protocol);
    EXPECT_EQ(restarts[0].node, 2u);
    EXPECT_EQ(restarts[0].a, 0u);
    // Write-ahead voting put records in the WAL before the crash; the
    // revival replayed them and restored a non-genesis commit frontier.
    EXPECT_GT(restarts[0].b, 0u) << "no WAL records replayed";
    EXPECT_GT(restarts[0].height, 0u) << "restored frontier at genesis";

    // The whole run — pre-crash votes and post-revival votes of the same
    // node id — passes the cross-restart safety oracle.
    const auto violations = faults::check_cross_restart_safety(trace.events());
    EXPECT_TRUE(violations.empty())
        << protocol_name(protocol) << ": " << violations[0].describe();
  }
}

TEST(Restart, RecoveryMetricsAreExported) {
  obs::MetricsRegistry metrics;
  ClusterConfig cfg = base_config(ProtocolKind::kMarlin);
  cfg.faults.actions = {
      FaultAction::restart(Duration::millis(1500), 2, Duration::millis(900)),
  };
  runtime::ExperimentOptions exp = runtime::throughput_options(
      cfg, Duration::millis(500), Duration::seconds(4));
  exp.check_liveness = true;
  exp.metrics = &metrics;
  const runtime::ExperimentReport rep = runtime::run_experiment(exp);
  EXPECT_TRUE(rep.ok());

  EXPECT_EQ(metrics.counter_value("recovery.restarts"), 1u);
  EXPECT_GT(metrics.counter_value("recovery.wal_records_replayed"), 0u);
  EXPECT_GT(metrics.gauge_value("recovery.duration_ms", "replica=2"), 0.0);
}

// ---------------------------------------------------------------------------
// The oracle proof: a broken persistence path MUST trip the double-vote
// check (otherwise the oracle is decoration)
// ---------------------------------------------------------------------------

/// Runs a stable view-1 window, then restarts the leader mid-view. With
/// write-ahead voting intact the revived leader resumes from its persisted
/// voted state; with persistence disabled it forgets its votes, re-runs
/// view 1 from height 1, and double-votes.
std::vector<faults::SafetyViolation> leader_restart_violations(
    bool disable_persistence) {
  obs::TraceSink trace{1 << 18};
  ClusterConfig cfg = base_config(ProtocolKind::kMarlin);
  cfg.consensus.disable_persistence = disable_persistence;
  // Fast client retransmits refill the revived leader's txpool before the
  // rest of the cluster times out of the view — the amnesiac leader then
  // re-proposes from height 1 inside the SAME view it led before the
  // crash, and its self-vote conflicts with its forgotten pre-crash vote.
  cfg.clients.retransmit_timeout = Duration::millis(300);
  cfg.trace = &trace;
  sim::Simulator sim(cfg.seed);
  Cluster cluster(sim, cfg);
  cluster.start();
  sim.run_for(Duration::seconds(2));
  EXPECT_GT(cluster.replica(0).protocol().committed_height(), 0u);

  // View 1's leader (replica 1) has voted many times by now. Crash it and
  // revive it from whatever it persisted, quickly enough that the other
  // replicas are still waiting in the same view.
  const ReplicaId leader = cluster.current_leader();
  cluster.crash_replica(leader);
  sim.run_for(Duration::millis(100));
  EXPECT_TRUE(cluster.restart_replica(leader, /*wipe=*/false).is_ok())
      << "restart failed";
  sim.run_for(Duration::seconds(3));
  return faults::check_cross_restart_safety(trace.events());
}

TEST(RestartOracle, BrokenPersistenceTripsTheDoubleVoteCheck) {
  const auto violations = leader_restart_violations(true);
  ASSERT_FALSE(violations.empty())
      << "persistence disabled but the oracle saw no double vote — the "
         "oracle cannot catch the bug class it exists for";
  bool double_vote = false;
  for (const auto& v : violations) {
    if (v.kind == faults::SafetyViolation::Kind::kDoubleVote) {
      double_vote = true;
      EXPECT_EQ(v.node, 1u) << v.describe();
    }
  }
  EXPECT_TRUE(double_vote);
}

TEST(RestartOracle, IntactPersistenceStaysClean) {
  const auto violations = leader_restart_violations(false);
  EXPECT_TRUE(violations.empty())
      << "first violation: " << violations[0].describe();
}

// ---------------------------------------------------------------------------
// Amnesia (wipe_disk) + snapshot state transfer
// ---------------------------------------------------------------------------

TEST(StateTransfer, WipedReplicaCatchesUpViaSnapshotInO1Rounds) {
  obs::TraceSink trace{1 << 20};
  ClusterConfig cfg = base_config(ProtocolKind::kMarlin);
  // The gap below (~100+ blocks) exceeds both the fetch batch limit (64)
  // and the checkpoint interval, so checkpoints run inside the outage.
  cfg.consensus.checkpoint_interval = 32;
  cfg.trace = &trace;
  sim::Simulator sim(cfg.seed);
  Cluster cluster(sim, cfg);
  cluster.start();
  sim.run_for(Duration::seconds(1));

  cluster.crash_replica(2);
  const Height down_at = cluster.replica(2).protocol().committed_height();
  sim.run_for(Duration::seconds(12));
  const Height cluster_height = cluster.replica(0).protocol().committed_height();
  ASSERT_GT(cluster_height,
            down_at + types::FetchRequestMsg::kFetchBatchLimit + 16)
      << "outage too short to force the snapshot path";

  const TimePoint revived_at = sim.now();
  ASSERT_TRUE(cluster.restart_replica(2, /*wipe=*/true).is_ok());
  EXPECT_EQ(cluster.replica(2).protocol().committed_height(), 0u)
      << "wipe_disk must revive amnesiac";
  sim.run_for(Duration::seconds(5));

  // Caught up (within the live tail) and consistent.
  const Height caught_up = cluster.replica(2).protocol().committed_height();
  EXPECT_GT(caught_up, cluster_height);
  EXPECT_TRUE(cluster.committed_heights_consistent());
  EXPECT_FALSE(cluster.any_safety_violation());

  // The gap closed through the snapshot exchange: a served manifest and an
  // applied suffix, not O(gap / 64) fetch rounds.
  const auto transfers = events_of_type(trace, obs::EventType::kStateTransfer);
  bool served = false, applied = false;
  for (const auto& e : transfers) {
    if (e.a == 1) served = true;
    if (e.a == 2 && e.node == 2) {
      applied = true;
      EXPECT_GT(e.b, types::FetchRequestMsg::kFetchBatchLimit)
          << "suffix smaller than one fetch batch";
    }
  }
  EXPECT_TRUE(served) << "no snapshot served";
  EXPECT_TRUE(applied) << "no snapshot applied by the wiped replica";

  // O(1) request rounds: the whole catch-up cost at most a handful of
  // fetch/snapshot requests, where batched fetching alone would need
  // ≥ gap/64 rounds plus per-block walking. The amnesia-recovery entry
  // broadcast alone accounts for n = 4 snapshot requests.
  const std::size_t fetch_rounds =
      sends_of_kind(trace, 2, types::MsgKind::kFetchRequest, revived_at);
  const std::size_t snapshot_rounds =
      sends_of_kind(trace, 2, types::MsgKind::kSnapshotRequest, revived_at);
  EXPECT_LE(fetch_rounds + snapshot_rounds, 8u)
      << fetch_rounds << " fetch + " << snapshot_rounds
      << " snapshot requests for a gap of "
      << (cluster_height - down_at) << " blocks";

  // The wiped incarnation double-votes for nothing.
  const auto violations = faults::check_cross_restart_safety(trace.events());
  EXPECT_TRUE(violations.empty())
      << "first violation: " << violations[0].describe();

  // state_transfer.bytes metrology reached the wiped replica's registry.
  EXPECT_GT(cluster.replica(2).metrics().counter_value("state_transfer.bytes"),
            0u);
}

// ---------------------------------------------------------------------------
// WAL damage during restart() (framing guarantees of storage/wal.h)
// ---------------------------------------------------------------------------

/// Newest WAL segment in the replica's env (names are zero-padded, so the
/// lexicographic max is the numeric max).
std::string newest_wal(storage::Env& env) {
  std::string best;
  for (const std::string& name : env.list_files()) {
    if (name.rfind("wal-", 0) == 0 && name > best) best = name;
  }
  return best;
}

TEST(WalRecovery, TornFinalRecordReplaysCleanly) {
  ClusterConfig cfg = base_config(ProtocolKind::kMarlin);
  sim::Simulator sim(cfg.seed);
  Cluster cluster(sim, cfg);
  cluster.start();
  sim.run_for(Duration::seconds(2));
  cluster.crash_replica(2);

  // Tear the final record: the crash happened mid-append. Replay must
  // stop cleanly at the torn tail instead of erroring.
  storage::Env& env = cluster.replica(2).db_env();
  const std::string wal = newest_wal(env);
  ASSERT_FALSE(wal.empty());
  auto content = env.read_file(wal);
  ASSERT_TRUE(content.is_ok());
  Bytes torn = content.value();
  ASSERT_GT(torn.size(), 16u);
  torn.resize(torn.size() - 3);
  ASSERT_TRUE(env.write_file_atomic(wal, torn).is_ok());

  ASSERT_TRUE(cluster.restart_replica(2, /*wipe=*/false).is_ok());
  EXPECT_EQ(cluster.replica(2).restarts(), 1u);

  const Height at_restart = cluster.replica(2).protocol().committed_height();
  sim.run_for(Duration::seconds(3));
  // The replay (metered on the recovery CPU task) consumed every record
  // except the torn one.
  EXPECT_GT(
      cluster.replica(2).metrics().counter_value("recovery.wal_records_replayed"),
      0u);
  EXPECT_GT(cluster.replica(2).protocol().committed_height(), at_restart);
  EXPECT_TRUE(cluster.committed_heights_consistent());
  EXPECT_FALSE(cluster.any_safety_violation());
}

TEST(WalRecovery, MidFileCorruptionSurfacesKCorruptionAndStaysDown) {
  ClusterConfig cfg = base_config(ProtocolKind::kMarlin);
  sim::Simulator sim(cfg.seed);
  Cluster cluster(sim, cfg);
  cluster.start();
  sim.run_for(Duration::seconds(2));
  cluster.crash_replica(2);

  // Flip one payload byte of the FIRST record: its length prefix is still
  // intact, so this is real mid-file corruption, not a torn tail.
  storage::Env& env = cluster.replica(2).db_env();
  const std::string wal = newest_wal(env);
  ASSERT_FALSE(wal.empty());
  auto content = env.read_file(wal);
  ASSERT_TRUE(content.is_ok());
  Bytes bad = content.value();
  ASSERT_GT(bad.size(), 9u);
  bad[8] ^= 0xff;
  ASSERT_TRUE(env.write_file_atomic(wal, bad).is_ok());

  const Status s = cluster.restart_replica(2, /*wipe=*/false);
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kCorruption) << s.message();
  // An unrecoverable store keeps the replica crash-stopped: no rejoining
  // with partial state.
  EXPECT_TRUE(cluster.network().is_down(2));
  EXPECT_EQ(cluster.replica(2).metrics().counter_value("recovery.failures"),
            1u);

  // The other replicas keep committing without it (f = 1).
  const Height before = cluster.replica(0).protocol().committed_height();
  sim.run_for(Duration::seconds(3));
  EXPECT_GT(cluster.replica(0).protocol().committed_height(), before);
  EXPECT_TRUE(cluster.committed_heights_consistent());
}

TEST(PStateRecovery, UndecodableStateKeepsTheReplicaDownAndSilent) {
  ClusterConfig cfg = base_config(ProtocolKind::kMarlin);
  obs::TraceSink sink{1 << 18};
  cfg.trace = &sink;
  sim::Simulator sim(cfg.seed);
  Cluster cluster(sim, cfg);
  cluster.start();
  sim.run_for(Duration::seconds(2));
  cluster.crash_replica(2);

  // The persisted consensus state is there but does not decode. Restarting
  // from genesis state instead could double-vote.
  {
    auto db = storage::KVStore::open(cluster.replica(2).db_env());
    ASSERT_TRUE(db.is_ok());
    ASSERT_TRUE(db.value()->put("meta/pstate", to_bytes("garbage")).is_ok());
  }
  const TimePoint restart_at = sim.now();
  const Status s = cluster.restart_replica(2, /*wipe=*/false);
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kCorruption) << s.message();
  EXPECT_TRUE(cluster.network().is_down(2));
  EXPECT_EQ(cluster.replica(2).metrics().counter_value("recovery.failures"),
            1u);

  sim.run_for(Duration::seconds(3));
  std::size_t sent = 0;
  for (const obs::TraceEvent& e : sink.events()) {
    sent += e.type == obs::EventType::kMsgSent && e.node == 2 &&
            e.at >= restart_at;
  }
  EXPECT_EQ(sent, 0u);
  EXPECT_TRUE(cluster.committed_heights_consistent());
  EXPECT_FALSE(cluster.any_safety_violation());
}

// ---------------------------------------------------------------------------
// Restart determinism (same seed + restart plan ⇒ bit-identical trace)
// ---------------------------------------------------------------------------

TEST(Restart, RestartPlanReplaysBitIdentically) {
  auto run = [](obs::TraceSink* sink) {
    ClusterConfig cfg = base_config(ProtocolKind::kMarlin);
    cfg.trace = sink;
    cfg.faults.actions = {
        FaultAction::restart(Duration::millis(1200), 3, Duration::millis(700)),
        FaultAction::wipe_disk(Duration::millis(2500), 3,
                               Duration::millis(600)),
    };
    runtime::ExperimentOptions exp = runtime::throughput_options(
        cfg, Duration::millis(500), Duration::seconds(3));
    exp.check_liveness = true;
    return runtime::run_experiment(exp);
  };
  obs::TraceSink a{1 << 18}, b{1 << 18};
  const auto rep_a = run(&a);
  const auto rep_b = run(&b);
  EXPECT_TRUE(rep_a.ok());
  ASSERT_GT(a.size(), 0u);
  EXPECT_EQ(a.events(), b.events());
  EXPECT_EQ(rep_a.total_completed, rep_b.total_completed);
}

}  // namespace
}  // namespace marlin
