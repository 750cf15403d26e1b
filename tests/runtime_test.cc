// Tests for the runtime layer: the pacemaker policy, client retransmission
// behaviour, the block-fetch (catch-up) protocol, CPU-cost accounting, and
// the traffic counters the Table I bench relies on.
#include <gtest/gtest.h>

#include "runtime/cluster.h"
#include "runtime/pacemaker.h"

namespace marlin::runtime {
namespace {

// ---------------------------------------------------------------------------
// Pacemaker policy
// ---------------------------------------------------------------------------

TEST(Pacemaker, BaseTimeoutWhenHealthy) {
  PacemakerConfig cfg;
  cfg.base_timeout = Duration::seconds(2);
  Pacemaker pm(cfg);
  EXPECT_EQ(pm.view_timeout(), Duration::seconds(2));
}

TEST(Pacemaker, ExponentialBackoffOnConsecutiveFailures) {
  PacemakerConfig cfg;
  cfg.base_timeout = Duration::seconds(1);
  cfg.backoff_factor = 2.0;
  cfg.max_timeout = Duration::seconds(10);
  Pacemaker pm(cfg);

  pm.on_view_entered();
  EXPECT_TRUE(pm.should_advance_on_fire());  // view 1 failed
  EXPECT_EQ(pm.view_timeout(), Duration::seconds(2));
  pm.on_view_entered();
  EXPECT_TRUE(pm.should_advance_on_fire());  // view 2 failed
  EXPECT_EQ(pm.view_timeout(), Duration::seconds(4));
  EXPECT_EQ(pm.consecutive_failures(), 2u);
}

TEST(Pacemaker, BackoffCapsAtMax) {
  PacemakerConfig cfg;
  cfg.base_timeout = Duration::seconds(1);
  cfg.max_timeout = Duration::seconds(5);
  Pacemaker pm(cfg);
  for (int i = 0; i < 10; ++i) {
    pm.on_view_entered();
    (void)pm.should_advance_on_fire();
  }
  EXPECT_EQ(pm.view_timeout(), Duration::seconds(5));
}

TEST(Pacemaker, ProgressResetsBackoffAndDefersAdvance) {
  PacemakerConfig cfg;
  cfg.base_timeout = Duration::seconds(1);
  Pacemaker pm(cfg);
  pm.on_view_entered();
  (void)pm.should_advance_on_fire();  // one failure
  pm.on_view_entered();
  pm.on_progress();
  EXPECT_FALSE(pm.should_advance_on_fire());  // progressed → just re-arm
  EXPECT_EQ(pm.view_timeout(), Duration::seconds(1));  // backoff reset
}

TEST(Pacemaker, RotatingModeAlwaysAdvances) {
  PacemakerConfig cfg;
  cfg.rotate_on_timer = true;
  cfg.rotation_interval = Duration::millis(750);
  Pacemaker pm(cfg);
  pm.on_view_entered();
  pm.on_progress();
  EXPECT_TRUE(pm.should_advance_on_fire());  // rotates despite progress
  EXPECT_EQ(pm.view_timeout(), Duration::millis(750));
}

// ---------------------------------------------------------------------------
// Client retransmission
// ---------------------------------------------------------------------------

TEST(ClientRetransmit, RecoversFromEarlyRequestLoss) {
  ClusterConfig cfg;
  cfg.f = 1;
  cfg.clients.count = 1;
  cfg.clients.window = 2;
  cfg.clients.max_requests = 6;
  cfg.clients.retransmit_timeout = Duration::millis(900);
  cfg.consensus.pacemaker.base_timeout = Duration::seconds(2);
  cfg.seed = 5;

  sim::Simulator sim(cfg.seed);
  Cluster cluster(sim, cfg);
  // Drop every client → replica message for the first 2 seconds.
  const sim::NodeId client_node = cluster.n();  // first client node id
  cluster.network().set_filter([client_node](sim::NodeId from, sim::NodeId) {
    return from != client_node;
  });
  cluster.start();
  sim.run_for(Duration::seconds(2));
  EXPECT_EQ(cluster.client(0).latency().count(), 0u);

  cluster.network().set_filter(nullptr);
  sim.run_for(Duration::seconds(15));
  EXPECT_EQ(cluster.client(0).latency().count(), 6u);
  EXPECT_GT(cluster.client(0).retransmissions(), 0u);
  EXPECT_EQ(cluster.client(0).in_flight(), 0u);
}

TEST(ClientRetransmit, NoRetransmissionsOnHealthyNetwork) {
  ClusterConfig cfg;
  cfg.f = 1;
  cfg.clients.count = 2;
  cfg.clients.window = 4;
  cfg.clients.max_requests = 10;
  cfg.seed = 6;
  sim::Simulator sim(cfg.seed);
  Cluster cluster(sim, cfg);
  cluster.start();
  sim.run_for(Duration::seconds(10));
  for (ClientId c = 0; c < 2; ++c) {
    EXPECT_EQ(cluster.client(c).retransmissions(), 0u);
    EXPECT_EQ(cluster.client(c).latency().count(), 10u);
  }
}

// A client whose one request no replica ever sees (f = 1, so the reply
// quorum is 2): the only replies it gets are the ones a test injects.
class ClientQuorum : public ::testing::Test {
 protected:
  ClientQuorum() : sim_(cfg().seed), cluster_(sim_, cfg()) {
    cluster_.network().set_filter([client = node()](sim::NodeId from,
                                                    sim::NodeId) {
      return from != client;
    });
    cluster_.start();
    sim_.run_for(Duration::millis(100));
  }

  static ClusterConfig cfg() {
    ClusterConfig c;
    c.f = 1;
    c.clients.count = 1;
    c.clients.window = 1;
    return c;
  }
  sim::NodeId node() const { return cluster_.n(); }
  ClientProcess& client() { return cluster_.client(0); }

  /// Node `from` replies to request 1, claiming to be replica `claimed`.
  void reply(sim::NodeId from, ReplicaId claimed, std::uint8_t result) {
    types::ClientReplyMsg m;
    m.client = 0;
    m.replica = claimed;
    m.view = 1;
    m.height = 1;
    m.result = Bytes(8, result);
    m.requests = {1};
    cluster_.network().send(
        from, node(),
        types::make_envelope(types::MsgKind::kClientReply, m).serialize());
    sim_.run_for(Duration::millis(100));
  }

  sim::Simulator sim_;
  Cluster cluster_;
};

// A reply counts as the vote of the node that sent it: one Byzantine replica
// claiming f+1 replica ids must not complete a request on its own.
TEST_F(ClientQuorum, ForgedRepliesFromOneNodeLeaveTheRequestPending) {
  ASSERT_EQ(client().issued(), 1u);
  // Replica 3 answers under every replica id.
  for (ReplicaId claimed = 0; claimed < cluster_.n(); ++claimed) {
    reply(3, claimed, 0xab);
  }
  EXPECT_EQ(client().completed().total(), 0u);
  EXPECT_EQ(client().in_flight(), 1u);

  // One more matching reply from a second node makes f+1 distinct senders.
  reply(0, 0, 0xab);
  EXPECT_EQ(client().completed().total(), 1u);
}

// f+1 copies of one replica's own reply are still one vote.
TEST_F(ClientQuorum, RepeatedRepliesFromOneReplicaCountOnce) {
  ASSERT_EQ(client().issued(), 1u);
  for (int copy = 0; copy < 2; ++copy) reply(2, 2, 0xab);
  EXPECT_EQ(client().completed().total(), 0u);
  EXPECT_EQ(client().in_flight(), 1u);

  reply(1, 1, 0xab);
  EXPECT_EQ(client().completed().total(), 1u);
  EXPECT_EQ(client().in_flight(), 1u);  // the next request was issued
  EXPECT_EQ(client().issued(), 2u);
}

// Votes count per result: f+1 replies split across two results complete
// nothing, and a second reply with one of them completes the request.
TEST_F(ClientQuorum, RepliesWithDifferentResultsDoNotCombine) {
  ASSERT_EQ(client().issued(), 1u);
  reply(0, 0, 0xab);
  reply(1, 1, 0xcd);
  EXPECT_EQ(client().completed().total(), 0u);
  EXPECT_EQ(client().in_flight(), 1u);

  reply(2, 2, 0xcd);
  EXPECT_EQ(client().completed().total(), 1u);
}

// ---------------------------------------------------------------------------
// Block fetch / catch-up
// ---------------------------------------------------------------------------

TEST(Fetch, IsolatedReplicaCatchesUpViaFetch) {
  ClusterConfig cfg;
  cfg.f = 1;
  cfg.clients.count = 2;
  cfg.clients.window = 4;
  cfg.seed = 7;
  cfg.consensus.pacemaker.base_timeout = Duration::seconds(30);  // no view churn

  sim::Simulator sim(cfg.seed);
  Cluster cluster(sim, cfg);
  cluster.start();
  sim.run_for(Duration::seconds(1));

  // Replica 3 misses all proposals for a while (receives only the DECIDE
  // notices and later traffic once healed).
  cluster.network().set_filter([](sim::NodeId, sim::NodeId to) {
    return to != 3;
  });
  sim.run_for(Duration::seconds(4));
  const Height others = cluster.replica(0).protocol().committed_height();
  const Height behind = cluster.replica(3).protocol().committed_height();
  EXPECT_LT(behind, others);

  cluster.network().set_filter(nullptr);
  sim.run_for(Duration::seconds(8));
  // Replica 3 fetched the missing bodies and committed the same chain.
  EXPECT_GE(cluster.replica(3).protocol().committed_height(), others);
  EXPECT_TRUE(cluster.committed_heights_consistent());
  EXPECT_FALSE(cluster.any_safety_violation());
}

// ---------------------------------------------------------------------------
// Cost accounting
// ---------------------------------------------------------------------------

TEST(CostAccounting, CpuBusyTimeAccrues) {
  ClusterConfig cfg;
  cfg.f = 1;
  cfg.clients.count = 2;
  cfg.clients.window = 8;
  cfg.seed = 8;
  sim::Simulator sim(cfg.seed);
  Cluster cluster(sim, cfg);
  cluster.start();
  sim.run_for(Duration::seconds(5));
  // The leader (replica 1 in view 1) works strictly harder than followers.
  const Duration leader_busy = cluster.replica(1).cpu_busy();
  const Duration follower_busy = cluster.replica(3).cpu_busy();
  EXPECT_GT(leader_busy.as_nanos(), 0);
  EXPECT_GT(follower_busy.as_nanos(), 0);
  EXPECT_GT(leader_busy, follower_busy);
}

TEST(CostAccounting, HigherCryptoCostsLowerThroughput) {
  auto run = [](Duration verify_cost) {
    ClusterConfig cfg;
    cfg.f = 1;
    cfg.clients.count = 8;
    cfg.clients.window = 64;
    cfg.consensus.max_batch_ops = 100;  // many small blocks → verify-heavy
    cfg.crypto_costs.verify = verify_cost;
    cfg.seed = 9;
    sim::Simulator sim(cfg.seed);
    Cluster cluster(sim, cfg);
    cluster.set_measurement_window(TimePoint::origin() + Duration::seconds(2),
                                   TimePoint::origin() + Duration::seconds(8));
    cluster.start();
    sim.run_until(TimePoint::origin() + Duration::seconds(9));
    return cluster.client_throughput();
  };
  const double cheap = run(Duration::micros(20));
  const double pricey = run(Duration::millis(12));
  EXPECT_GT(cheap, pricey * 1.1);
}

// total_completed() is the clients' summed in-window count: the ops
// completed before the window opens or after it closes are left out.
TEST(Metrology, TotalCompletedCountsTheMeasurementWindow) {
  ClusterConfig cfg;
  cfg.f = 1;
  cfg.clients.count = 4;
  sim::Simulator sim(cfg.seed);
  Cluster cluster(sim, cfg);
  cluster.set_measurement_window(TimePoint::origin() + Duration::seconds(2),
                                 TimePoint::origin() + Duration::seconds(4));
  cluster.start();
  sim.run_until(TimePoint::origin() + Duration::seconds(5));

  std::uint64_t in_window = 0;
  std::uint64_t total = 0;
  for (ClientId c = 0; c < cluster.client_count(); ++c) {
    in_window += cluster.client(c).completed().in_window();
    total += cluster.client(c).completed().total();
  }
  EXPECT_GT(in_window, 0u);
  EXPECT_EQ(cluster.total_completed(), in_window);
  EXPECT_LT(cluster.total_completed(), total);
}

TEST(CostAccounting, StorageCheckpointChargesTime) {
  ClusterConfig cfg;
  cfg.f = 1;
  cfg.clients.count = 2;
  cfg.clients.window = 8;
  cfg.consensus.checkpoint_interval = 10;
  cfg.seed = 10;
  sim::Simulator sim(cfg.seed);
  Cluster cluster(sim, cfg);
  cluster.start();
  sim.run_for(Duration::seconds(10));
  EXPECT_GT(cluster.replica(0).checkpoints_run(), 2u);
}

// ---------------------------------------------------------------------------
// Traffic counters
// ---------------------------------------------------------------------------

TEST(Traffic, ResetClearsCounters) {
  ClusterConfig cfg;
  cfg.f = 1;
  cfg.clients.count = 1;
  cfg.clients.window = 2;
  cfg.seed = 11;
  sim::Simulator sim(cfg.seed);
  Cluster cluster(sim, cfg);
  cluster.start();
  sim.run_for(Duration::seconds(3));
  const auto proposal_idx =
      static_cast<std::size_t>(types::MsgKind::kProposal);
  EXPECT_GT(cluster.network().stats(1).msgs_sent_by_kind[proposal_idx], 0u);
  cluster.network().reset_stats();
  EXPECT_EQ(cluster.network().stats(1).msgs_sent_by_kind[proposal_idx], 0u);
}

TEST(Traffic, ViewChangeBytesScaleLinearlyPerReplica) {
  // The linearity claim, measured: per-replica view-change bytes grow far
  // slower than n (they grow only with QC size under sig-groups).
  auto per_replica_bytes = [](std::uint32_t f) {
    ClusterConfig cfg;
    cfg.f = f;
    cfg.clients.count = 1;
    cfg.clients.window = 2;
    cfg.consensus.max_batch_ops = 16;
    cfg.seed = 12;
    cfg.consensus.pacemaker.base_timeout = Duration::millis(600);
    sim::Simulator sim(cfg.seed);
    Cluster cluster(sim, cfg);
    cluster.start();
    sim.run_for(Duration::seconds(2));
    cluster.crash_replica(cluster.current_leader());
    cluster.network().reset_stats();
    sim.run_for(Duration::seconds(5));
    std::uint64_t vc_bytes = 0;
    for (ReplicaId r = 0; r < cluster.n(); ++r) {
      const auto& t = cluster.network().stats(r);
      vc_bytes += t.bytes_sent_by_kind[static_cast<std::size_t>(
          types::MsgKind::kViewChange)];
      vc_bytes += t.bytes_sent_by_kind[static_cast<std::size_t>(
          types::MsgKind::kQcNotice)];
    }
    return static_cast<double>(vc_bytes) / cluster.n();
  };
  const double at_f1 = per_replica_bytes(1);
  const double at_f5 = per_replica_bytes(5);
  ASSERT_GT(at_f1, 0);
  // n grew 4×; a quadratic protocol's per-replica bytes would grow ~4×.
  // Linear-with-sig-group-QCs should stay well under that.
  EXPECT_LT(at_f5, at_f1 * 16);
  EXPECT_GT(at_f5, 0);
}

}  // namespace
}  // namespace marlin::runtime
