// Tests for the real-socket runtime (src/realnet): the event loop's timers,
// the epoll event loop, the TCP transport pair (framing, reconnect), full
// localhost clusters — commit liveness, clean shutdown draining in-flight
// sends, and replica kill+relaunch reloading durable state over TCP — and
// the experiment procedure on metal (MetalDeployment).
//
// These tests run real threads and real sockets on 127.0.0.1, so they use
// generous deadlines and poll for conditions instead of pinning exact
// timings (wall-clock here is not the simulator's virtual clock).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <thread>

#include "realnet/clock.h"
#include "realnet/event_loop.h"
#include "realnet/http_client.h"
#include "realnet/metal_deployment.h"
#include "realnet/real_cluster.h"
#include "realnet/tcp_transport.h"

namespace marlin::realnet {
namespace {

// Polls `cond` (on this thread) until true or `patience` elapses.
bool eventually(Duration patience, const std::function<bool()>& cond) {
  const TimePoint deadline = mono_now() + patience;
  while (mono_now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

// Live reads for eventually() polls. Node state belongs to the node
// threads while a cluster runs, so the test thread reads it only through
// sample_metrics(), which copies each node's registry on its own loop.

// Client operations committed so far, cluster-wide.
std::uint64_t live_completed(RealCluster& cluster) {
  const obs::MetricsRegistry reg = cluster.sample_metrics();
  auto it = reg.latencies().find(obs::MetricKey{"client.latency", ""});
  return it == reg.latencies().end() ? 0 : it->second.count();
}

// Height of the last block replica `id` delivered in this incarnation.
double live_committed_height(RealCluster& cluster, ReplicaId id) {
  return cluster.sample_metrics().gauge_value(
      "replica.committed_height", "replica=" + std::to_string(id));
}

// ---------------------------------------------------------------------------
// LoopScheduler: the loop's timers, advanced by hand (the loop never runs)
// ---------------------------------------------------------------------------

TEST(LoopScheduler, FiresInDeadlineOrder) {
  EventLoop loop;
  LoopScheduler& timers = loop.scheduler();
  std::vector<int> order;
  const TimePoint t0 = timers.now();
  timers.schedule_at(t0 + Duration::millis(30), [&] { order.push_back(3); });
  timers.schedule_at(t0 + Duration::millis(10), [&] { order.push_back(1); });
  timers.schedule_at(t0 + Duration::millis(20), [&] { order.push_back(2); });
  EXPECT_EQ(timers.pending(), 3u);
  timers.advance(t0 + Duration::millis(40));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(timers.pending(), 0u);
}

TEST(LoopScheduler, DoesNotFireEarly) {
  EventLoop loop;
  LoopScheduler& timers = loop.scheduler();
  const TimePoint t0 = timers.now();
  bool fired = false;
  timers.schedule_at(t0 + Duration::millis(50), [&] { fired = true; });
  timers.advance(t0 + Duration::millis(49));
  EXPECT_FALSE(fired);
  timers.advance(t0 + Duration::millis(50));
  EXPECT_TRUE(fired);
}

TEST(LoopScheduler, CancelledTimerDoesNotFire) {
  EventLoop loop;
  LoopScheduler& timers = loop.scheduler();
  const TimePoint t0 = timers.now();
  bool fired = false;
  TimerHandle h =
      timers.schedule_at(t0 + Duration::millis(10), [&] { fired = true; });
  EXPECT_TRUE(h.active());
  h.cancel();
  EXPECT_FALSE(h.active());
  timers.advance(t0 + Duration::millis(20));
  EXPECT_FALSE(fired);
  // Cancelling again (stale handle) is a no-op.
  h.cancel();
}

TEST(LoopScheduler, StaleHandleCannotCancelReusedSlot) {
  EventLoop loop;
  LoopScheduler& timers = loop.scheduler();
  const TimePoint t0 = timers.now();
  int fired = 0;
  TimerHandle h1 =
      timers.schedule_at(t0 + Duration::millis(1), [&] { ++fired; });
  timers.advance(t0 + Duration::millis(2));
  EXPECT_EQ(fired, 1);
  // The slab slot is free now; a new timer may reuse it. The old handle's
  // generation is stale and must not cancel the new timer.
  TimerHandle h2 =
      timers.schedule_at(t0 + Duration::millis(3), [&] { ++fired; });
  h1.cancel();
  EXPECT_TRUE(h2.active());
  timers.advance(t0 + Duration::millis(4));
  EXPECT_EQ(fired, 2);
}

TEST(LoopScheduler, FarDeadlineFiresOnTime) {
  EventLoop loop;
  LoopScheduler& timers = loop.scheduler();
  const TimePoint t0 = timers.now();
  // A deadline seconds out, past many advances: must fire only at the
  // deadline.
  bool fired = false;
  const TimePoint far = t0 + Duration::millis(3500);
  timers.schedule_at(far, [&] { fired = true; });
  for (std::int64_t ms = 0; ms < 3500; ms += 100) {
    timers.advance(t0 + Duration::millis(ms));
    ASSERT_FALSE(fired) << "fired early at " << ms << " ms";
  }
  timers.advance(far);
  EXPECT_TRUE(fired);
}

TEST(LoopScheduler, NextTimeoutTracksEarliestPending) {
  EventLoop loop;
  LoopScheduler& timers = loop.scheduler();
  const TimePoint t0 = timers.now();
  EXPECT_EQ(timers.next_timeout_ns(t0), -1);
  timers.schedule_at(t0 + Duration::millis(50), [] {});
  TimerHandle near = timers.schedule_at(t0 + Duration::millis(10), [] {});
  EXPECT_EQ(timers.next_timeout_ns(t0), Duration::millis(10).as_nanos());
  near.cancel();
  EXPECT_EQ(timers.next_timeout_ns(t0), Duration::millis(50).as_nanos());
}

TEST(LoopScheduler, NextTimeoutIgnoresManyCancelledTimers) {
  // The shape of a client's retransmit timers: one armed per request and
  // cancelled by its reply long before the deadline.
  EventLoop loop;
  LoopScheduler& timers = loop.scheduler();
  const TimePoint t0 = timers.now();
  for (int i = 0; i < 100'000; ++i) {
    timers.schedule_at(t0 + Duration::millis(1 + i % 4000), [] {}).cancel();
  }
  timers.schedule_at(t0 + Duration::millis(10), [] {});
  EXPECT_EQ(timers.next_timeout_ns(t0), Duration::millis(10).as_nanos());
}

// ---------------------------------------------------------------------------
// EventLoop
// ---------------------------------------------------------------------------

TEST(EventLoop, RunsPostedTasksOnLoopThread) {
  EventLoop loop;
  std::atomic<bool> ran{false};
  std::atomic<bool> on_loop{false};
  std::thread t([&] { loop.run(); });
  loop.post([&] {
    on_loop = loop.on_loop_thread();
    ran = true;
    loop.stop();
  });
  t.join();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(on_loop);
}

TEST(EventLoop, TimersFireAtRealTime) {
  EventLoop loop;
  std::atomic<std::int64_t> fired_at{0};
  const TimePoint start = mono_now();
  std::thread t([&] { loop.run(); });
  loop.post([&] {
    loop.scheduler().schedule(Duration::millis(30), [&] {
      fired_at = (mono_now() - start).as_nanos();
      loop.stop();
    });
  });
  t.join();
  // Fired, and not before the deadline (epoll_wait waits in whole ms).
  EXPECT_GE(fired_at.load(), Duration::millis(29).as_nanos());
}

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

struct TransportNode {
  EventLoop loop;
  std::unique_ptr<TcpTransport> transport;
  std::thread thread;
  std::uint16_t port = 0;

  explicit TransportNode(std::uint32_t id, TransportConfig config = {}) {
    transport = std::make_unique<TcpTransport>(loop, id, config);
    auto p = transport->listen(0);
    EXPECT_TRUE(p.is_ok());
    port = p.value();
  }

  void run() {
    thread = std::thread([this] { loop.run(); });
  }

  void stop() {
    loop.post([this] {
      transport->shutdown();
      loop.stop();
    });
    if (thread.joinable()) thread.join();
  }
};

TEST(TcpTransport, DeliversFramesWithSenderId) {
  TransportNode a(0), b(1);
  std::mutex mu;
  std::vector<std::pair<std::uint32_t, Bytes>> got;
  b.transport->set_handler([&](std::uint32_t from, Payload p) {
    std::lock_guard<std::mutex> lock(mu);
    got.emplace_back(from, Bytes(p.bytes()));
  });
  a.transport->set_peer(1, Endpoint{"127.0.0.1", b.port});
  a.run();
  b.run();

  Bytes msg{3, 0xde, 0xad};  // a "proposal" frame
  a.loop.post([&] { a.transport->send(1, Payload(msg)); });

  ASSERT_TRUE(eventually(Duration::seconds(5), [&] {
    std::lock_guard<std::mutex> lock(mu);
    return got.size() == 1;
  }));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(got[0].first, 0u);
    EXPECT_EQ(got[0].second, msg);
  }
  // Stats: payload bytes only (no frame headers), by kind, both ends.
  a.stop();
  b.stop();
  EXPECT_EQ(a.transport->stats().messages_sent, 1u);
  EXPECT_EQ(a.transport->stats().bytes_sent, msg.size());
  EXPECT_EQ(a.transport->stats().msgs_sent_by_kind[3], 1u);
  EXPECT_EQ(b.transport->stats().messages_delivered, 1u);
  EXPECT_EQ(b.transport->stats().bytes_delivered, msg.size());
  EXPECT_EQ(b.transport->stats().msgs_delivered_by_kind[3], 1u);
  EXPECT_EQ(a.transport->pending_egress_bytes(), 0u);
}

TEST(TcpTransport, SelfSendLoopsBack) {
  TransportNode a(7);
  std::atomic<int> got{0};
  a.transport->set_handler([&](std::uint32_t from, Payload p) {
    EXPECT_EQ(from, 7u);
    EXPECT_EQ(p.size(), 3u);
    ++got;
  });
  a.run();
  a.loop.post([&] { a.transport->send(7, Payload(Bytes{4, 1, 2})); });
  ASSERT_TRUE(eventually(Duration::seconds(2), [&] { return got == 1; }));
  a.stop();
  EXPECT_EQ(a.transport->stats().messages_sent, 1u);
  EXPECT_EQ(a.transport->stats().messages_delivered, 1u);
}

TEST(TcpTransport, ManyFramesArriveInOrder) {
  TransportNode a(0), b(1);
  std::mutex mu;
  std::vector<Bytes> got;
  b.transport->set_handler([&](std::uint32_t, Payload p) {
    std::lock_guard<std::mutex> lock(mu);
    got.push_back(Bytes(p.bytes()));
  });
  a.transport->set_peer(1, Endpoint{"127.0.0.1", b.port});
  a.run();
  b.run();

  constexpr int kFrames = 500;
  a.loop.post([&] {
    for (int i = 0; i < kFrames; ++i) {
      Bytes msg{4};  // vote kind
      msg.push_back(static_cast<std::uint8_t>(i));
      msg.push_back(static_cast<std::uint8_t>(i >> 8));
      msg.resize(3 + static_cast<std::size_t>(i % 97) * 11, 0xab);
      a.transport->send(1, Payload(std::move(msg)));
    }
  });

  ASSERT_TRUE(eventually(Duration::seconds(5), [&] {
    std::lock_guard<std::mutex> lock(mu);
    return got.size() == kFrames;
  }));
  std::lock_guard<std::mutex> lock(mu);
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_EQ(got[i][1], static_cast<std::uint8_t>(i)) << "frame " << i;
    ASSERT_EQ(got[i][2], static_cast<std::uint8_t>(i >> 8)) << "frame " << i;
  }
  a.stop();
  b.stop();
}

// End-of-tick egress coalescing: a burst of sends posted in one loop
// iteration leaves through (far) fewer flushes than frames, and the
// receiver still sees every frame in order.
TEST(TcpTransport, CoalescesBurstIntoFewFlushes) {
  TransportNode a(0), b(1);
  std::mutex mu;
  std::vector<Bytes> got;
  b.transport->set_handler([&](std::uint32_t, Payload p) {
    std::lock_guard<std::mutex> lock(mu);
    got.push_back(Bytes(p.bytes()));
  });
  a.transport->set_peer(1, Endpoint{"127.0.0.1", b.port});
  a.run();
  b.run();

  // Wait for the connection so the burst hits the coalescing (connected)
  // path rather than the pre-connect queue.
  Bytes probe{4, 0xff, 0xff};
  a.loop.post([&] { a.transport->send(1, Payload(probe)); });
  ASSERT_TRUE(eventually(Duration::seconds(5), [&] {
    std::lock_guard<std::mutex> lock(mu);
    return got.size() == 1;
  }));

  constexpr int kFrames = 256;
  a.loop.post([&] {
    for (int i = 0; i < kFrames; ++i) {
      Bytes msg{4};
      msg.push_back(static_cast<std::uint8_t>(i));
      msg.push_back(static_cast<std::uint8_t>(i >> 8));
      a.transport->send(1, Payload(std::move(msg)));
    }
  });
  ASSERT_TRUE(eventually(Duration::seconds(5), [&] {
    std::lock_guard<std::mutex> lock(mu);
    return got.size() == 1 + kFrames;
  }));
  a.stop();
  b.stop();

  // One flush for the probe, then the burst: sendmsg caps at 16 frames per
  // syscall, so 256 frames need >= 16 flush_peer passes — but every one of
  // them came from a single end-of-tick flush cycle, far fewer than 256
  // per-send writes.
  EXPECT_GE(a.transport->flushes(), 1u + kFrames / 16);
  EXPECT_LT(a.transport->flushes(), 1u + kFrames);
  std::lock_guard<std::mutex> lock(mu);
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_EQ(got[i + 1][1], static_cast<std::uint8_t>(i)) << "frame " << i;
    ASSERT_EQ(got[i + 1][2], static_cast<std::uint8_t>(i >> 8));
  }
}

// Per-wake ingress budgets: with budgets far smaller than the burst, the
// receiver needs many epoll wakes (level-triggered re-fires) but must
// still deliver every frame exactly once, in order.
TEST(TcpTransport, IngressBudgetCutoffResumesNextWake) {
  TransportConfig small;
  small.ingress_budget_bytes = 512;  // a few frames per wake
  small.ingress_budget_frames = 4;
  TransportNode a(0), b(1, small);
  std::mutex mu;
  std::vector<Bytes> got;
  b.transport->set_handler([&](std::uint32_t, Payload p) {
    std::lock_guard<std::mutex> lock(mu);
    got.push_back(Bytes(p.bytes()));
  });
  a.transport->set_peer(1, Endpoint{"127.0.0.1", b.port});
  a.run();
  b.run();

  constexpr int kFrames = 300;
  a.loop.post([&] {
    for (int i = 0; i < kFrames; ++i) {
      Bytes msg{4};
      msg.push_back(static_cast<std::uint8_t>(i));
      msg.push_back(static_cast<std::uint8_t>(i >> 8));
      msg.resize(3 + static_cast<std::size_t>(i % 13) * 7, 0xcd);
      a.transport->send(1, Payload(std::move(msg)));
    }
  });
  ASSERT_TRUE(eventually(Duration::seconds(5), [&] {
    std::lock_guard<std::mutex> lock(mu);
    return got.size() == kFrames;
  }));
  a.stop();
  b.stop();

  {
    std::lock_guard<std::mutex> lock(mu);
    for (int i = 0; i < kFrames; ++i) {
      ASSERT_EQ(got[i][1], static_cast<std::uint8_t>(i)) << "frame " << i;
      ASSERT_EQ(got[i][2], static_cast<std::uint8_t>(i >> 8));
    }
  }
  // The byte budget forced the burst across many wakes: ~15 KB of frames
  // at <= 512 bytes ingested per wake is ~30 wakes even if the kernel
  // buffered the whole burst before the receiver's first read.
  EXPECT_GE(b.transport->ingress_wakes(), 20u);
}

TEST(TcpTransport, ReconnectsAfterReceiverRestart) {
  TransportNode a(0);
  std::atomic<int> got{0};

  std::uint16_t b_port = 0;
  {
    TransportNode b(1);
    b_port = b.port;
    b.transport->set_handler([&](std::uint32_t, Payload) { ++got; });
    a.transport->set_peer(1, Endpoint{"127.0.0.1", b_port});
    a.run();
    b.run();
    a.loop.post([&] { a.transport->send(1, Payload(Bytes{4, 1})); });
    ASSERT_TRUE(eventually(Duration::seconds(5), [&] { return got == 1; }));
    b.stop();  // receiver dies; a's dialed connection breaks
  }

  // New incarnation on the same port (a's endpoint table is unchanged).
  EventLoop loop2;
  TcpTransport b2(loop2, 1);
  {
    // Rebinding an ephemeral port can race another process grabbing it;
    // retry briefly (SO_REUSEADDR covers TIME_WAIT).
    Result<std::uint16_t> p = b2.listen(b_port);
    ASSERT_TRUE(p.is_ok()) << p.status().message();
  }
  b2.set_handler([&](std::uint32_t, Payload) { ++got; });
  std::thread t2([&] { loop2.run(); });

  // Frames sent while the link is down are dropped, and the backoff redial
  // reconnects to the new incarnation: keep sending until one arrives.
  ASSERT_TRUE(eventually(Duration::seconds(8), [&] {
    a.loop.post([&] { a.transport->send(1, Payload(Bytes{4, 2})); });
    return got.load() >= 2;
  }));

  loop2.post([&] {
    b2.shutdown();
    loop2.stop();
  });
  t2.join();
  a.stop();
}

// ---------------------------------------------------------------------------
// RealCluster: commit liveness on localhost TCP
// ---------------------------------------------------------------------------

runtime::ClusterConfig quick_cluster_config(std::uint32_t f) {
  runtime::ClusterConfig cfg;
  cfg.f = f;
  cfg.seed = 7;
  cfg.clients.count = 2;
  cfg.clients.window = 8;
  cfg.clients.payload_size = 32;
  cfg.consensus.pacemaker.base_timeout = Duration::millis(500);
  cfg.consensus.pacemaker.timeout_jitter = 0.2;
  return cfg;
}

// Both protocols run the one metal ingress path; this is the only test
// that runs HotStuff over real sockets.
void expect_commits_client_ops_over_tcp(runtime::ProtocolKind protocol) {
  runtime::ClusterConfig cfg = quick_cluster_config(1);
  cfg.consensus.protocol = protocol;
  RealCluster cluster(cfg);
  ASSERT_TRUE(cluster.ok().is_ok()) << cluster.ok().message();
  cluster.start();
  // Per-client totals are readable only once stopped. Wait until the last
  // client is due to start, then for 4000 more pooled commits: closed-loop
  // clients with equal windows share them, so each clears 50 even when a
  // loaded host starts the last client late (after 400, the last client
  // had only 24-40 in some parallel ctest runs).
  std::this_thread::sleep_for(std::chrono::nanoseconds(
      runtime::client_start_delay(cluster.client_count() - 1).as_nanos()));
  const std::uint64_t started = live_completed(cluster);
  ASSERT_TRUE(eventually(Duration::seconds(20), [&] {
    return live_completed(cluster) > started + 4000;
  }));
  cluster.stop();

  EXPECT_GT(cluster.client(0).completed().total(), 50u);
  EXPECT_GT(cluster.client(1).completed().total(), 50u);
  EXPECT_FALSE(cluster.any_safety_violation());
  EXPECT_TRUE(cluster.committed_heights_consistent());
  EXPECT_GT(cluster.min_committed_height(), 0u);
  // Every replica moved real bytes on the wire.
  for (std::uint32_t i = 0; i < cluster.n(); ++i) {
    EXPECT_GT(cluster.node_stats(i).bytes_delivered, 0u) << "replica " << i;
  }
}

TEST(RealCluster, CommitsClientOpsOverTcp) {
  expect_commits_client_ops_over_tcp(runtime::ProtocolKind::kMarlin);
}

TEST(RealCluster, CommitsClientOpsOverTcpHotStuff) {
  expect_commits_client_ops_over_tcp(runtime::ProtocolKind::kHotStuff);
}

// total_completed() counts the measurement window on metal as on the
// simulator: the clients' summed in_window(), without warm-up or drain.
TEST(RealCluster, TotalCompletedCountsTheMeasurementWindow) {
  RealCluster cluster(quick_cluster_config(1));
  ASSERT_TRUE(cluster.ok().is_ok());
  const TimePoint t0 = mono_now();
  cluster.set_measurement_window(t0 + Duration::millis(300),
                                 t0 + Duration::millis(900));
  cluster.start();
  ASSERT_TRUE(eventually(Duration::seconds(20), [&] {
    return mono_now() > t0 + Duration::millis(1200) &&
           live_completed(cluster) > 100;
  }));
  cluster.stop();

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

TEST(RealCluster, CleanShutdownDrainsEgress) {
  RealCluster cluster(quick_cluster_config(1));
  ASSERT_TRUE(cluster.ok().is_ok());
  cluster.start();
  ASSERT_TRUE(eventually(Duration::seconds(20), [&] {
    return live_completed(cluster) > 20;
  }));
  cluster.stop();
  // Drain-on-shutdown: no node may strand queued frames.
  for (std::uint32_t id = 0; id < cluster.n(); ++id) {
    EXPECT_EQ(cluster.transport(id).pending_egress_bytes(), 0u)
        << "node " << id;
  }
}

TEST(RealCluster, TracesRecordCommitsAndDeliveries) {
  runtime::ClusterConfig cfg = quick_cluster_config(1);
  RealClusterOptions opts;
  opts.trace = true;
  RealCluster cluster(cfg, opts);
  ASSERT_TRUE(cluster.ok().is_ok());
  cluster.start();
  ASSERT_TRUE(eventually(Duration::seconds(20), [&] {
    return live_completed(cluster) > 10;
  }));
  cluster.stop();

  const auto events = cluster.merged_trace_events();
  ASSERT_FALSE(events.empty());
  bool saw_commit = false, saw_delivery = false, saw_reply = false;
  for (const auto& e : events) {
    saw_commit |= e.type == obs::EventType::kCommit;
    saw_delivery |= e.type == obs::EventType::kMsgDelivered;
    saw_reply |= e.type == obs::EventType::kReplyAccepted;
  }
  EXPECT_TRUE(saw_commit);
  EXPECT_TRUE(saw_delivery);
  EXPECT_TRUE(saw_reply);
  // Merged events are time-sorted, and each node keeps its own seq, from
  // 0 while its ring has not evicted.
  for (std::size_t i = 1; i < events.size(); ++i) {
    ASSERT_LE(events[i - 1].at.as_nanos(), events[i].at.as_nanos());
  }
  std::map<std::uint32_t, std::uint64_t> next_seq;
  for (const auto& e : events) {
    ASSERT_EQ(e.seq, next_seq[e.node]++) << "node " << e.node;
  }
  EXPECT_GE(next_seq.size(), cluster.n());
}

// ---------------------------------------------------------------------------
// RealCluster: kill + relaunch over a durable store
// ---------------------------------------------------------------------------

TEST(RealCluster, KilledReplicaRelaunchesFromDiskAndRejoins) {
  const std::string dir = "/tmp/marlin_realnet_relaunch_test";
  std::filesystem::remove_all(dir);

  runtime::ClusterConfig cfg = quick_cluster_config(1);
  RealClusterOptions opts;
  opts.data_dir = dir;
  RealCluster cluster(cfg, opts);
  ASSERT_TRUE(cluster.ok().is_ok()) << cluster.ok().message();
  cluster.start();

  // Let the cluster commit, then hard-kill a non-leader replica.
  ASSERT_TRUE(eventually(Duration::seconds(20), [&] {
    return live_completed(cluster) > 30;
  }));
  cluster.kill_replica(2);
  EXPECT_FALSE(cluster.replica_alive(2));

  // n=4 tolerates one crash: progress must continue while 2 is down.
  const std::uint64_t before = live_completed(cluster);
  ASSERT_TRUE(eventually(Duration::seconds(20), [&] {
    return live_completed(cluster) > before + 30;
  }));

  // Relaunch over the surviving data dir: the new incarnation must restore
  // the persisted consensus state (write-ahead voting record) and rejoin.
  ASSERT_TRUE(cluster.relaunch_replica(2).is_ok());
  EXPECT_TRUE(cluster.replica_alive(2));
  EXPECT_TRUE(cluster.replica(2).recovered());

  // The relaunched replica catches up over TCP: it must deliver blocks
  // again (fetch/catch-up runs over the same transport).
  ASSERT_TRUE(eventually(Duration::seconds(30), [&] {
    return live_committed_height(cluster, 2) > 0;
  }));

  cluster.stop();
  EXPECT_FALSE(cluster.any_safety_violation());
  EXPECT_TRUE(cluster.committed_heights_consistent());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// MetalDeployment: the experiment procedure on real sockets
// ---------------------------------------------------------------------------

TEST(MetalDeployment, RestartRecoversAndLivenessHoldsAfterQuiesce) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "marlin_metal_restart_test")
          .string();
  std::filesystem::remove_all(dir);
  // One outstanding request per client keeps the cluster committing at a
  // fraction of a core, so the run does not starve concurrent tests.
  runtime::ClusterConfig cfg = quick_cluster_config(1);
  cfg.clients.window = 1;
  runtime::ExperimentOptions exp = runtime::throughput_options(
      cfg, Duration::millis(500), Duration::seconds(2));
  exp.drain = Duration::zero();
  exp.check_liveness = true;
  exp.cluster.faults.actions.push_back(faults::FaultAction::restart(
      Duration::seconds(1), 2, Duration::millis(600)));
  RealClusterOptions real;
  real.data_dir = dir;
  MetalDeployment deployment(exp, real);
  const runtime::ExperimentReport rep =
      runtime::run_experiment(exp, deployment);

  EXPECT_TRUE(rep.status.is_ok()) << rep.status.message();
  EXPECT_TRUE(rep.liveness.checked);
  EXPECT_TRUE(rep.liveness.progressed);
  ASSERT_EQ(rep.fault_log.size(), 1u);
  EXPECT_EQ(rep.fault_log[0].kind, faults::FaultKind::kRestart);
  EXPECT_EQ(rep.fault_log[0].target, 2u);
  EXPECT_TRUE(deployment.cluster()->replica(2).recovered());
  EXPECT_GT(rep.total_completed, 0u);
  EXPECT_TRUE(rep.ok());
  std::filesystem::remove_all(dir);
}

// A killed replica that stays down leaves the metrology, as a crashed one
// does on the simulator: the survivors alone set the minimum height and
// the prefix check.
TEST(MetalDeployment, AKilledReplicaLeavesTheMetrology) {
  runtime::ClusterConfig cfg = quick_cluster_config(1);
  cfg.clients.window = 1;
  runtime::ExperimentOptions exp = runtime::throughput_options(
      cfg, Duration::millis(300), Duration::millis(2200));
  exp.drain = Duration::zero();
  // Replica 1 leads view 1: the survivors commit again after a view change.
  exp.cluster.faults.actions.push_back(
      faults::FaultAction::crash(Duration::millis(500), 1));
  MetalDeployment deployment(exp);
  const runtime::ExperimentReport rep =
      runtime::run_experiment(exp, deployment);
  ASSERT_TRUE(rep.status.is_ok()) << rep.status.message();
  ASSERT_EQ(rep.fault_log.size(), 1u);
  EXPECT_EQ(rep.fault_log[0].target, 1u);

  const runtime::ClusterMetrology& m = deployment.meter();
  RealCluster& cluster = *deployment.cluster();
  EXPECT_FALSE(m.counted(1));
  EXPECT_EQ(m.correct_replicas(), (std::vector<ReplicaId>{0, 2, 3}));
  Height survivors = std::numeric_limits<Height>::max();
  for (ReplicaId r : {0u, 2u, 3u}) {
    EXPECT_TRUE(m.counted(r));
    survivors =
        std::min(survivors, cluster.replica(r).protocol().committed_height());
  }
  EXPECT_EQ(m.min_committed_height(), survivors);
  // The dead replica stopped two seconds before the survivors did.
  EXPECT_LT(cluster.replica(1).protocol().committed_height(), survivors);
  EXPECT_TRUE(m.committed_heights_consistent());
  EXPECT_TRUE(rep.ok());
}

TEST(MetalDeployment, RejectsWhatMetalCannotRunBeforeAnyThreadStarts) {
  runtime::ExperimentOptions exp = runtime::throughput_options(
      quick_cluster_config(1), Duration::millis(500), Duration::seconds(10));
  exp.cluster.faults.actions.push_back(faults::FaultAction::partition(
      Duration::seconds(1), {{0, 1}, {2, 3}}));
  MetalDeployment partitioned(exp);
  EXPECT_EQ(partitioned.cluster(), nullptr);  // no cluster, no threads
  const TimePoint t0 = mono_now();
  runtime::ExperimentReport rep = runtime::run_experiment(exp, partitioned);
  EXPECT_LT(mono_now() - t0, Duration::seconds(1));
  EXPECT_FALSE(rep.ok());
  EXPECT_NE(rep.status.message().find("partition"), std::string::npos)
      << rep.status.message();
  EXPECT_TRUE(rep.fault_log.empty());
  EXPECT_EQ(rep.total_completed, 0u);

  // The view-change stopwatch reads replica state mid-run: simulator only.
  exp.cluster.faults.actions = {
      faults::FaultAction::crash(Duration::seconds(1), 1)};
  exp.measure_view_change = true;
  MetalDeployment stopwatch(exp);
  ASSERT_TRUE(stopwatch.ok().is_ok()) << stopwatch.ok().message();
  rep = runtime::run_experiment(exp, stopwatch);
  EXPECT_FALSE(rep.ok());
  EXPECT_NE(rep.status.message().find("simulator"), std::string::npos)
      << rep.status.message();
  EXPECT_FALSE(stopwatch.cluster()->running());
}

// Scrape helper: GET /metrics and pull one series value out of the
// Prometheus text (exact-name match at line start, value after the space).
double scraped_metric(std::uint16_t port, const std::string& series) {
  auto resp =
      http_get("127.0.0.1", port, "/metrics", Duration::seconds(2));
  if (!resp.is_ok() || resp.value().status_code != 200) return -1;
  const std::string& body = resp.value().body;
  const std::string needle = series + " ";
  std::size_t pos = body.find(needle);
  while (pos != std::string::npos && pos != 0 && body[pos - 1] != '\n') {
    pos = body.find(needle, pos + 1);
  }
  if (pos == std::string::npos) return -1;
  return std::atof(body.c_str() + pos + needle.size());
}

TEST(RealCluster, SurvivorsHoardNoBacklogForAKilledPeer) {
  const std::string dir = "/tmp/marlin_realnet_backlog_test";
  std::filesystem::remove_all(dir);

  // Two clients, 16 outstanding 4 KiB requests each. At this load a
  // survivor that kept a dead peer's queue for the next connection built
  // tens of MB of backlog, up to max_queue_bytes (62-66 MB seen). The
  // relaunched replica is then far enough behind that the survivors have
  // released the bodies it misses, so it rejoins by snapshot, whose
  // response must fit one frame and one egress queue.
  runtime::ClusterConfig cfg = quick_cluster_config(1);
  cfg.clients.window = 16;
  cfg.clients.payload_size = 4096;
  RealClusterOptions opts;
  opts.data_dir = dir;
  opts.telemetry = true;
  RealCluster cluster(cfg, opts);
  ASSERT_TRUE(cluster.ok().is_ok()) << cluster.ok().message();
  cluster.start();
  ASSERT_TRUE(eventually(Duration::seconds(20), [&] {
    return live_completed(cluster) > 30;
  }));

  // Replica 2 stays dead under client load while the rest commit on, until
  // they have committed more op bytes than they retain: the bodies it
  // misses are then released. The outage is driven by progress, not wall
  // time, so a slow build (sanitizers) gets the same outage, only longer.
  cluster.kill_replica(2);
  const std::uint64_t before = live_completed(cluster);
  const std::uint64_t op_bytes = types::op_wire_size(
      types::Operation{0, 0, Bytes(cfg.clients.payload_size)});
  const std::uint64_t outage_ops =
      consensus::ReplicaBase::kRetainBudgetBytes * 9 / 8 / op_bytes;
  ASSERT_TRUE(eventually(Duration::seconds(180), [&] {
    return live_completed(cluster) > before + outage_ops;
  })) << "survivors committed " << live_completed(cluster) - before
      << " ops during the outage";
  EXPECT_GT(live_completed(cluster), before);

  // Each survivor's largest per-peer backlog while 2 was down stays at
  // least 10x below what the hoarding transport reached.
  for (std::uint32_t id : {0u, 1u, 3u}) {
    const double high_water = scraped_metric(
        cluster.telemetry_port(id), "marlin_transport_egress_high_water_bytes");
    EXPECT_GE(high_water, 0.0) << "replica " << id;
    EXPECT_LT(high_water, 6.2e6) << "replica " << id;
  }

  // The relaunched incarnation gets no stale replay, yet still rejoins and
  // delivers blocks through consensus catch-up.
  ASSERT_TRUE(cluster.relaunch_replica(2).is_ok());
  ASSERT_TRUE(eventually(Duration::seconds(30), [&] {
    return live_committed_height(cluster, 2) > 0;
  }));
  // /status reports the heights a snapshot fast-forward skipped.
  auto status = http_get("127.0.0.1", cluster.telemetry_port(2), "/status",
                         Duration::seconds(2));
  ASSERT_TRUE(status.is_ok()) << status.status().message();
  EXPECT_NE(status.value().body.find("\"skipped_heights\":"),
            std::string::npos);
  cluster.stop();

  // Every height the relaunched incarnation moved past was either
  // delivered or skipped by fast-forward, and the counter holds the
  // skipped ones: the hole in its delivered log.
  RealReplica& relaunched = cluster.replica(2);
  const consensus::ReplicaBase& p = relaunched.protocol();
  const std::uint64_t gap =
      p.committed_height() - relaunched.restored_height() -
      p.committed_blocks();
  EXPECT_EQ(relaunched.metrics().counter_value(
                "state_transfer.skipped_heights"),
            gap);
  EXPECT_EQ(p.skipped_heights(), gap);
  // An outage past the survivors' retained bodies leaves a hole.
  EXPECT_GT(gap, 0u);

  std::uint64_t dropped = 0;
  for (std::uint32_t id : {0u, 1u, 3u}) {
    dropped += cluster.transport(id).frames_dropped_peer_down();
  }
  EXPECT_GT(dropped, 0u) << "no survivor dropped frames to the dead peer";
  EXPECT_FALSE(cluster.any_safety_violation());
  EXPECT_TRUE(cluster.committed_heights_consistent());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Telemetry plane observes transport faults from outside the process
// ---------------------------------------------------------------------------

TEST(RealCluster, ScrapedMetricsObserveKilledPeerAndReconnect) {
  runtime::ClusterConfig cfg = quick_cluster_config(1);
  RealClusterOptions opts;
  opts.telemetry = true;
  RealCluster cluster(cfg, opts);
  ASSERT_TRUE(cluster.ok().is_ok()) << cluster.ok().message();
  cluster.start();

  ASSERT_TRUE(eventually(Duration::seconds(20), [&] {
    return live_completed(cluster) > 30;
  }));
  const std::uint16_t port0 = cluster.telemetry_port(0);
  ASSERT_NE(port0, 0);

  // Baseline scrape of replica 0: the transport health series exist and
  // the egress queue high-water mark shows frames actually queued.
  EXPECT_GE(scraped_metric(port0, "marlin_transport_connects_ok"), 1.0);
  EXPECT_GT(scraped_metric(port0,
                           "marlin_transport_egress_high_water_bytes"),
            0.0);
  // Hot-path series pinned here so renames break a test, not a dashboard:
  // egress coalescing, batched ingress decode, and their batch-size
  // summaries all flow through /metrics on a live replica.
  EXPECT_GE(scraped_metric(port0, "marlin_transport_flushes"), 1.0);
  EXPECT_GE(scraped_metric(port0, "marlin_transport_ingress_wakes"), 1.0);
  EXPECT_GT(scraped_metric(port0, "marlin_transport_frames_per_flush_count"),
            0.0);
  EXPECT_GT(scraped_metric(port0, "marlin_loop_frames_per_wake_count"), 0.0);

  // Kill replica 2. Marlin's linearity means followers only talk to the
  // leader, so replica 2's death is invisible to most transports — but the
  // leader broadcasts proposals to everyone and must observe the stream
  // reset plus redial/backoff churn. Scrape every survivor and find it.
  cluster.kill_replica(2);
  const std::uint32_t survivors[] = {0, 1, 3};
  auto observer = [&]() -> std::uint16_t {
    for (std::uint32_t i : survivors) {
      const std::uint16_t p = cluster.telemetry_port(i);
      if (scraped_metric(p, "marlin_transport_connections_lost") >= 1.0 &&
          scraped_metric(p, "marlin_transport_redials_scheduled") >= 1.0) {
        return p;
      }
    }
    return 0;
  };
  ASSERT_TRUE(eventually(Duration::seconds(15),
                         [&] { return observer() != 0; }))
      << "no survivor observed the lost connection";
  const std::uint16_t leader_port = observer();

  // Redials to the dead peer keep failing: the failure counter climbs.
  ASSERT_TRUE(eventually(Duration::seconds(15), [&] {
    return scraped_metric(leader_port, "marlin_transport_connect_failures") >=
           1.0;
  }));

  // /status agrees: peer 2 shows disconnected on the observer's peer table.
  auto status =
      http_get("127.0.0.1", leader_port, "/status", Duration::seconds(2));
  ASSERT_TRUE(status.is_ok());
  EXPECT_NE(
      status.value().body.find(
          "{\"id\":2,\"connected\":false"),
      std::string::npos)
      << status.value().body;

  cluster.stop();
  EXPECT_FALSE(cluster.any_safety_violation());
}

}  // namespace
}  // namespace marlin::realnet
