// Determinism and correctness suite for the partitioned event engine
// (simnet/sharded.h): engine-level scheduling semantics, full-cluster runs
// on shards, and the two invariance guarantees the engine makes —
// identical results across shard counts K and across worker counts.
//
// (The --shards 1 path of marlin_run --backend=sim maps to the legacy
// single-queue sim::Simulator, whose byte-identical golden traces are
// pinned by trace_golden_test; the sharded schedule is a *different*
// deterministic order, so its contract is K/worker invariance, not legacy
// identity.)
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "runtime/cluster.h"
#include "runtime/experiment.h"
#include "simnet/sharded.h"

namespace marlin::sim {
namespace {

// -- engine level ------------------------------------------------------------

TEST(ShardedSimulator, RunsEventsInPerShardTimeOrder) {
  ShardedSimulator::Config cfg;
  cfg.shards = 2;
  cfg.workers = 1;
  cfg.lookahead = Duration::millis(10);
  ShardedSimulator eng(cfg);
  NodeScheduler* even = eng.node_scheduler(0);  // shard 0
  NodeScheduler* odd = eng.node_scheduler(1);   // shard 1

  std::vector<int> shard0, shard1;
  even->post(Duration::millis(25), [&] { shard0.push_back(3); });
  even->post(Duration::millis(5), [&] { shard0.push_back(1); });
  even->post(Duration::millis(15), [&] { shard0.push_back(2); });
  odd->post(Duration::millis(8), [&] { shard1.push_back(1); });
  odd->post(Duration::millis(30), [&] { shard1.push_back(2); });

  eng.run_until(TimePoint::origin() + Duration::millis(50));
  EXPECT_EQ(shard0, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(shard1, (std::vector<int>{1, 2}));
  EXPECT_EQ(eng.now(), TimePoint::origin() + Duration::millis(50));
  EXPECT_EQ(even->now(), eng.now());
  EXPECT_EQ(odd->now(), eng.now());
  EXPECT_EQ(eng.events_executed(), 5u);
  EXPECT_EQ(eng.pending_events(), 0u);
}

TEST(ShardedSimulator, EventsExactlyAtTheDeadlineRun) {
  ShardedSimulator::Config cfg;
  cfg.shards = 2;
  cfg.workers = 1;
  ShardedSimulator eng(cfg);
  bool ran = false;
  eng.node_scheduler(1)->post(Duration::millis(100), [&] { ran = true; });
  eng.run_until(TimePoint::origin() + Duration::millis(100));
  EXPECT_TRUE(ran);
}

// Like Simulator::run_until, a deadline the clock has passed is a no-op:
// now() never moves back and nothing runs.
TEST(ShardedSimulator, RunUntilAnEarlierDeadlineKeepsTheClock) {
  ShardedSimulator::Config cfg;
  cfg.shards = 2;
  cfg.workers = 1;
  cfg.lookahead = Duration::millis(10);
  ShardedSimulator eng(cfg);
  for (NodeId node = 0; node < 2; ++node) {
    eng.node_scheduler(node)->post(Duration::millis(500), [] {});
    eng.node_scheduler(node)->post(Duration::seconds(3), [] {});
  }
  const TimePoint two = TimePoint::origin() + Duration::seconds(2);
  eng.run_until(two);
  const std::uint64_t executed = eng.events_executed();
  EXPECT_EQ(executed, 2u);
  eng.run_until(TimePoint::origin() + Duration::seconds(1));
  EXPECT_EQ(eng.now(), two);
  EXPECT_EQ(eng.node_scheduler(0)->now(), two);
  EXPECT_EQ(eng.events_executed(), executed);
}

TEST(ShardedSimulator, CrossShardPostsHonorTheLookaheadWindow) {
  ShardedSimulator::Config cfg;
  cfg.shards = 2;
  cfg.workers = 1;
  cfg.lookahead = Duration::millis(10);
  ShardedSimulator eng(cfg);
  NodeScheduler* a = eng.node_scheduler(0);
  NodeScheduler* b = eng.node_scheduler(1);

  // a's event at 5ms posts onto b at +10ms (exactly one lookahead: lands at
  // the first instant the next window can run it); b's reply hops back.
  std::vector<std::pair<int, std::int64_t>> log;
  a->post(Duration::millis(5), [&, a, b] {
    log.emplace_back(0, a->now().as_nanos());
    b->post(Duration::millis(10), [&, a, b] {
      log.emplace_back(1, b->now().as_nanos());
      a->post(Duration::millis(10), [&, a] {
        log.emplace_back(0, a->now().as_nanos());
      });
    });
  });
  eng.run_until(TimePoint::origin() + Duration::millis(40));
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], std::make_pair(0, Duration::millis(5).as_nanos()));
  EXPECT_EQ(log[1], std::make_pair(1, Duration::millis(15).as_nanos()));
  EXPECT_EQ(log[2], std::make_pair(0, Duration::millis(25).as_nanos()));
}

TEST(ShardedSimulator, TimersCancelAndFire) {
  ShardedSimulator::Config cfg;
  cfg.shards = 2;
  cfg.workers = 1;
  ShardedSimulator eng(cfg);
  NodeScheduler* node = eng.node_scheduler(3);  // shard 1

  int fired = 0;
  TimerHandle cancelled = node->schedule(Duration::millis(20), [&] { ++fired; });
  TimerHandle kept = node->schedule(Duration::millis(30), [&] { fired += 10; });
  EXPECT_TRUE(cancelled.active());
  cancelled.cancel();
  EXPECT_FALSE(cancelled.active());
  EXPECT_TRUE(kept.active());

  eng.run_for(Duration::millis(100));
  EXPECT_EQ(fired, 10);
  EXPECT_FALSE(kept.active());
  // Slot recycling: a new timer may reuse the cancelled slot; the stale
  // handle must stay dead.
  TimerHandle reused = node->schedule(Duration::millis(10), [&] { ++fired; });
  EXPECT_FALSE(cancelled.active());
  EXPECT_TRUE(reused.active());
  eng.run_for(Duration::millis(20));
  EXPECT_EQ(fired, 11);
}

TEST(ShardedSimulator, WorkerPoolExecutesAllShards) {
  ShardedSimulator::Config cfg;
  cfg.shards = 4;
  cfg.workers = 4;  // real threads even on a 1-core host
  ShardedSimulator eng(cfg);
  std::vector<int> counts(4, 0);
  for (NodeId node = 0; node < 16; ++node) {
    NodeScheduler* s = eng.node_scheduler(node);
    for (int i = 0; i < 8; ++i) {
      s->post(Duration::millis(10 * (i + 1)),
              [&counts, shard = s->shard()] { ++counts[shard]; });
    }
  }
  eng.run_for(Duration::millis(200));
  for (int c : counts) EXPECT_EQ(c, 32);  // 4 nodes/shard x 8 events
  EXPECT_EQ(eng.events_executed(), 128u);
}

// -- cluster level -----------------------------------------------------------

runtime::ClusterConfig cluster_config(std::uint32_t f) {
  runtime::ClusterConfig cfg;
  cfg.f = f;
  cfg.clients.count = 4;
  cfg.clients.window = 8;
  cfg.consensus.max_batch_ops = 500;
  cfg.seed = 77;
  return cfg;
}

/// Everything observable about a run, projected to be comparable across
/// shard/worker counts: trace events minus the per-sink seq (sink
/// partitioning differs across K), plus final protocol state.
struct RunSignature {
  using Projected =
      std::tuple<std::int64_t, std::uint32_t, int, int, int, ViewNumber,
                 Height, std::uint64_t, std::uint64_t, std::uint64_t,
                 std::uint64_t>;
  std::vector<Projected> trace;
  std::vector<std::pair<Height, std::uint64_t>> replicas;  // height, hash64
  std::uint64_t completed = 0;
  bool safety_ok = false;
  bool consistent = false;
};

RunSignature run_sharded(std::uint32_t shards, std::uint32_t workers,
                         runtime::ClusterConfig cfg, Duration horizon) {
  ShardedSimulator::Config ecfg;
  ecfg.seed = cfg.seed;
  ecfg.shards = shards;
  ecfg.workers = workers;
  ecfg.lookahead = cfg.net.one_way_delay;
  ShardedSimulator eng(ecfg);
  eng.enable_tracing(1u << 16);
  runtime::Cluster cluster(eng, cfg);
  cluster.set_measurement_window(TimePoint::origin(),
                                 TimePoint::origin() + horizon);
  cluster.start();
  eng.run_for(horizon);

  RunSignature sig;
  for (const obs::TraceEvent& e : eng.merged_trace()) {
    sig.trace.emplace_back(e.at.as_nanos(), e.node, static_cast<int>(e.type),
                           e.phase, e.kind, e.view, e.height, e.block, e.a,
                           e.b, e.c);
  }
  for (ReplicaId r = 0; r < cluster.n(); ++r) {
    const auto& p = cluster.replica(r).protocol();
    std::uint64_t hash64 = 0;
    for (int i = 0; i < 8; ++i) {
      hash64 |= static_cast<std::uint64_t>(p.committed_hash().data[i])
                << (8 * i);
    }
    sig.replicas.emplace_back(p.committed_height(), hash64);
  }
  sig.completed = cluster.total_completed();
  sig.safety_ok = !cluster.any_safety_violation();
  sig.consistent = cluster.committed_heights_consistent();
  return sig;
}

TEST(ShardedCluster, CommitsOnFourShards) {
  RunSignature sig =
      run_sharded(4, 1, cluster_config(1), Duration::seconds(5));
  EXPECT_TRUE(sig.safety_ok);
  EXPECT_TRUE(sig.consistent);
  EXPECT_GT(sig.completed, 100u);
  for (const auto& [height, hash] : sig.replicas) EXPECT_GT(height, 0u);
}

TEST(ShardedCluster, ResultIsInvariantAcrossShardCounts) {
  const runtime::ClusterConfig cfg = cluster_config(1);
  const Duration horizon = Duration::seconds(4);
  RunSignature k2 = run_sharded(2, 1, cfg, horizon);
  RunSignature k4 = run_sharded(4, 1, cfg, horizon);
  RunSignature k8 = run_sharded(8, 1, cfg, horizon);
  ASSERT_FALSE(k2.trace.empty());
  EXPECT_EQ(k2.trace, k4.trace);
  EXPECT_EQ(k2.trace, k8.trace);
  EXPECT_EQ(k2.replicas, k4.replicas);
  EXPECT_EQ(k2.replicas, k8.replicas);
  EXPECT_EQ(k2.completed, k4.completed);
  EXPECT_EQ(k2.completed, k8.completed);
  EXPECT_TRUE(k4.safety_ok);
}

TEST(ShardedCluster, ResultIsInvariantAcrossWorkerCounts) {
  const runtime::ClusterConfig cfg = cluster_config(1);
  const Duration horizon = Duration::seconds(4);
  RunSignature w1 = run_sharded(4, 1, cfg, horizon);
  RunSignature w2 = run_sharded(4, 2, cfg, horizon);
  RunSignature w4 = run_sharded(4, 4, cfg, horizon);
  ASSERT_FALSE(w1.trace.empty());
  EXPECT_EQ(w1.trace, w2.trace);
  EXPECT_EQ(w1.trace, w4.trace);
  EXPECT_EQ(w1.replicas, w2.replicas);
  EXPECT_EQ(w1.replicas, w4.replicas);
  EXPECT_EQ(w1.completed, w2.completed);
  EXPECT_EQ(w1.completed, w4.completed);
}

TEST(ShardedCluster, FaultPlanRunsOnControlLaneInvariantly) {
  runtime::ClusterConfig cfg = cluster_config(1);
  cfg.consensus.pacemaker.base_timeout = Duration::millis(800);
  cfg.faults.actions.push_back(
      faults::FaultAction::crash_leader(Duration::millis(900)));
  cfg.faults.actions.push_back(
      faults::FaultAction::drop_burst(Duration::seconds(2), 0.1,
                                      Duration::millis(500)));
  const Duration horizon = Duration::seconds(6);
  RunSignature a = run_sharded(2, 1, cfg, horizon);
  RunSignature b = run_sharded(4, 2, cfg, horizon);
  EXPECT_TRUE(a.safety_ok);
  EXPECT_TRUE(a.consistent);
  EXPECT_GT(a.completed, 0u);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.replicas, b.replicas);
  EXPECT_EQ(a.completed, b.completed);
}

TEST(ShardedCluster, RepeatedRunsAreIdentical) {
  const runtime::ClusterConfig cfg = cluster_config(1);
  RunSignature a = run_sharded(4, 2, cfg, Duration::seconds(3));
  RunSignature b = run_sharded(4, 2, cfg, Duration::seconds(3));
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.replicas, b.replicas);
  EXPECT_EQ(a.completed, b.completed);
}

// The sharded engine through the one experiment procedure: a leader crash,
// then liveness checked after the plan quiesces, with the same report on
// one worker thread as on two.
TEST(ShardedCluster, ExperimentIsInvariantAcrossWorkerCounts) {
  runtime::ClusterConfig cfg = cluster_config(1);
  cfg.consensus.pacemaker.base_timeout = Duration::millis(800);
  cfg.faults.actions.push_back(
      faults::FaultAction::crash_leader(Duration::millis(900)));
  const auto run = [&cfg](std::uint32_t workers) {
    runtime::ExperimentOptions exp = runtime::throughput_options(
        cfg, Duration::millis(500), Duration::seconds(3));
    exp.shards = 2;
    exp.workers = workers;
    exp.check_liveness = true;
    return runtime::run_experiment(exp);
  };
  const runtime::ExperimentReport w1 = run(1);
  const runtime::ExperimentReport w2 = run(2);
  EXPECT_TRUE(w1.ok());
  EXPECT_TRUE(w1.liveness.checked);
  EXPECT_TRUE(w1.liveness.progressed);
  EXPECT_GT(w1.total_completed, 0u);
  EXPECT_GT(w1.final_view, 1u);  // the crash forced a view change
  EXPECT_EQ(w1.total_completed, w2.total_completed);
  EXPECT_EQ(w1.final_view, w2.final_view);
  EXPECT_EQ(w1.liveness.progressed, w2.liveness.progressed);
  EXPECT_EQ(w1.liveness.commits_at_quiesce, w2.liveness.commits_at_quiesce);
  EXPECT_EQ(w1.liveness.commits_at_end, w2.liveness.commits_at_end);
  ASSERT_EQ(w1.fault_log.size(), 1u);
  ASSERT_EQ(w2.fault_log.size(), 1u);
  EXPECT_EQ(w1.fault_log[0].target, w2.fault_log[0].target);
}

// One eviction sum over every sink a deployment traces into: what the
// merged trace holds plus what the rings evicted is everything recorded,
// the control lane's fault records included.
TEST(ShardedCluster, TraceEvictionsCountTheControlLane) {
  runtime::ExperimentOptions exp = runtime::throughput_options(
      cluster_config(1), Duration::millis(200), Duration::millis(800));
  exp.cluster.faults.actions = {
      faults::FaultAction::partition(Duration::millis(300), {{0, 1}, {2, 3}}),
      faults::FaultAction::heal(Duration::millis(500))};
  exp.shards = 2;
  exp.workers = 1;
  runtime::SimDeployment d(exp, /*trace_capacity=*/1);
  ASSERT_TRUE(runtime::run_experiment(exp, d).ok());

  const std::vector<const obs::TraceSink*> sinks = d.trace_sinks();
  ASSERT_EQ(sinks.size(), 3u);  // two shards, then the control lane
  EXPECT_GT(sinks.back()->evicted(), 0u);
  std::uint64_t recorded = 0;
  for (const obs::TraceSink* sink : sinks) recorded += sink->total_recorded();
  const auto trace = d.trace();
  ASSERT_TRUE(trace.is_ok());
  EXPECT_EQ(trace.value().size() + d.trace_evicted(), recorded);
}

// An untraced deployment has no trace to read: trace() fails instead of
// returning an empty stream that looks like an idle run.
TEST(ShardedCluster, UntracedDeploymentReportsTracingOff) {
  for (std::uint32_t shards : {1u, 2u}) {
    runtime::ExperimentOptions exp = runtime::throughput_options(
        cluster_config(1), Duration::millis(200), Duration::millis(300));
    exp.shards = shards;
    exp.workers = 1;
    runtime::SimDeployment d(exp);
    ASSERT_TRUE(runtime::run_experiment(exp, d).ok());
    EXPECT_TRUE(d.trace_sinks().empty());
    const auto trace = d.trace();
    ASSERT_FALSE(trace.is_ok()) << "shards=" << shards;
    EXPECT_EQ(trace.status().message(), "tracing is off");
    EXPECT_EQ(d.trace_evicted(), 0u);
  }
}

}  // namespace
}  // namespace marlin::sim
