// Tests for the live telemetry plane: Prometheus text rendering, the JSONL
// metric-series schema, wire-stat export naming parity with the simulated
// network, the in-loop HTTP telemetry server, event-loop and loop-timer health
// instrumentation, and live scraping of a real n=4 cluster.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "common/json.h"
#include "common/net_stats.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/telemetry_server.h"
#include "realnet/clock.h"
#include "realnet/event_loop.h"
#include "realnet/http_client.h"
#include "realnet/real_cluster.h"

namespace marlin {
namespace {

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

TEST(TelemetryProm, RendersCountersAndGauges) {
  obs::MetricsRegistry reg;
  reg.counter("replica.committed_blocks") += 5;
  reg.counter("net.bytes_sent", "kind=vote") += 10;
  reg.gauge("replica.view") = 3;

  const std::string text = obs::metrics_to_prometheus(reg);
  EXPECT_NE(text.find("# TYPE marlin_replica_committed_blocks counter\n"
                      "marlin_replica_committed_blocks 5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("marlin_net_bytes_sent{kind=\"vote\"} 10"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE marlin_replica_view gauge"), std::string::npos);
  EXPECT_NE(text.find("marlin_replica_view 3"), std::string::npos);
}

TEST(TelemetryProm, OneTypeLinePerFamily) {
  obs::MetricsRegistry reg;
  reg.counter("net.bytes_sent", "kind=vote") += 1;
  reg.counter("net.bytes_sent", "kind=proposal") += 2;
  reg.counter("net.bytes_sent") += 3;

  const std::string text = obs::metrics_to_prometheus(reg);
  EXPECT_EQ(count_occurrences(text, "# TYPE marlin_net_bytes_sent counter"),
            1u)
      << text;
  EXPECT_EQ(count_occurrences(text, "marlin_net_bytes_sent"), 4u) << text;
}

TEST(TelemetryProm, LatencyRendersAsSummaryInSeconds) {
  obs::MetricsRegistry reg;
  reg.latency("client.latency").record(Duration::millis(100));

  const std::string text = obs::metrics_to_prometheus(reg);
  EXPECT_NE(text.find("# TYPE marlin_client_latency summary"),
            std::string::npos)
      << text;
  // One 100 ms sample: every quantile and the sum are 0.1 s.
  EXPECT_NE(text.find("marlin_client_latency{quantile=\"0.5\"} 0.1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("marlin_client_latency{quantile=\"0.99\"} 0.1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("marlin_client_latency_count 1"), std::string::npos);
  EXPECT_NE(text.find("marlin_client_latency_sum 0.1"), std::string::npos);
}

TEST(TelemetryProm, SizeHistogramRendersAsSummary) {
  obs::MetricsRegistry reg;
  reg.sizes("replica.block_ops").record(40);
  reg.sizes("replica.block_ops").record(60);

  const std::string text = obs::metrics_to_prometheus(reg);
  EXPECT_NE(text.find("# TYPE marlin_replica_block_ops summary"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("marlin_replica_block_ops_count 2"), std::string::npos);
  EXPECT_NE(text.find("marlin_replica_block_ops_sum 100"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSONL metric series
// ---------------------------------------------------------------------------

TEST(TelemetrySeries, LineParsesBackWithAllSections) {
  obs::MetricsRegistry reg;
  reg.counter("crypto.signs") += 7;
  reg.gauge("replica.view", "replica=2") = 4;
  reg.latency("client.latency").record(Duration::millis(10));
  reg.sizes("replica.block_ops").record(12);

  const std::string line = obs::metrics_series_line(1.5, reg);
  auto doc = json::parse(line);
  ASSERT_TRUE(doc.is_ok()) << line;
  const json::Object* obj = doc.value().object();
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(json::get_num(*obj, "t", 0), 1.5);

  const json::Object* counters = json::get_object(*obj, "counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(json::get_num(*counters, "crypto.signs", 0), 7);

  const json::Object* gauges = json::get_object(*obj, "gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(json::get_num(*gauges, "replica.view{replica=2}", 0), 4);

  const json::Object* latency = json::get_object(*obj, "latency_ms");
  ASSERT_NE(latency, nullptr);
  const json::Object* lat = json::get_object(*latency, "client.latency");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(json::get_num(*lat, "count", 0), 1);
  EXPECT_DOUBLE_EQ(json::get_num(*lat, "p99", 0), 10.0);

  const json::Object* sizes = json::get_object(*obj, "sizes");
  ASSERT_NE(sizes, nullptr);
  ASSERT_NE(json::get_object(*sizes, "replica.block_ops"), nullptr);
}

// ---------------------------------------------------------------------------
// NodeNetStats -> metrics naming parity with sim::Network::export_metrics
// ---------------------------------------------------------------------------

TEST(TelemetryNetStats, UsesSimExportNames) {
  net::NodeNetStats stats;
  stats.messages_sent = 4;
  stats.bytes_sent = 400;
  stats.messages_delivered = 3;
  stats.bytes_delivered = 300;
  stats.msgs_sent_by_kind[3] = 2;  // proposal slot
  stats.bytes_sent_by_kind[3] = 200;

  obs::MetricsRegistry reg;
  obs::net_stats_to_metrics(stats, reg, "node=3");
  EXPECT_EQ(reg.counter_value("net.messages_sent", "node=3"), 4u);
  EXPECT_EQ(reg.counter_value("net.bytes_sent", "node=3"), 400u);
  EXPECT_EQ(reg.counter_value("net.messages_delivered", "node=3"), 3u);
  EXPECT_EQ(reg.counter_value("net.bytes_delivered", "node=3"), 300u);
  EXPECT_EQ(reg.counter_value("net.bytes_sent", "kind=proposal"), 200u);
  // 5 per-node totals + 4 series for the one active kind slot; all-zero
  // kinds are skipped, not exported as zero series.
  EXPECT_EQ(reg.counters().size(), 9u);
}

// ---------------------------------------------------------------------------
// TelemetryServer on a live EventLoop
// ---------------------------------------------------------------------------

struct ServerFixture {
  realnet::EventLoop loop;
  std::unique_ptr<obs::TelemetryServer> server;
  std::uint16_t port = 0;
  std::thread thread;
  bool healthy = true;

  ServerFixture() {
    obs::TelemetryHandlers handlers;
    handlers.metrics = [] {
      return std::string("# TYPE marlin_up gauge\nmarlin_up 1\n");
    };
    handlers.status = [] { return std::string("{\"node\":7}"); };
    handlers.healthy = [this] { return healthy; };
    server = std::make_unique<obs::TelemetryServer>(loop, handlers);
    auto p = server->listen(0);
    EXPECT_TRUE(p.is_ok()) << p.status().message();
    port = p.value();
    thread = std::thread([this] { loop.run(); });
  }

  ~ServerFixture() {
    loop.post([this] {
      server->shutdown();
      loop.stop();
    });
    thread.join();
  }

  Result<realnet::HttpResponse> get(const std::string& path) {
    return realnet::http_get("127.0.0.1", port, path, Duration::seconds(2));
  }
};

TEST(TelemetryServer, ServesAllRoutes) {
  ServerFixture f;

  auto metrics = f.get("/metrics");
  ASSERT_TRUE(metrics.is_ok()) << metrics.status().message();
  EXPECT_EQ(metrics.value().status_code, 200);
  EXPECT_NE(metrics.value().body.find("marlin_up 1"), std::string::npos);

  auto status = f.get("/status");
  ASSERT_TRUE(status.is_ok());
  EXPECT_EQ(status.value().status_code, 200);
  EXPECT_EQ(status.value().body, "{\"node\":7}");

  auto healthz = f.get("/healthz");
  ASSERT_TRUE(healthz.is_ok());
  EXPECT_EQ(healthz.value().status_code, 200);
  EXPECT_EQ(healthz.value().body, "ok\n");

  auto index = f.get("/");
  ASSERT_TRUE(index.is_ok());
  EXPECT_EQ(index.value().status_code, 200);

  auto missing = f.get("/nope");
  ASSERT_TRUE(missing.is_ok());
  EXPECT_EQ(missing.value().status_code, 404);

  // Query strings are stripped before routing.
  auto with_query = f.get("/healthz?probe=1");
  ASSERT_TRUE(with_query.is_ok());
  EXPECT_EQ(with_query.value().status_code, 200);
}

TEST(TelemetryServer, UnhealthyReportsServiceUnavailable) {
  ServerFixture f;
  f.healthy = false;  // read by the handler on the loop thread per request
  auto healthz = f.get("/healthz");
  ASSERT_TRUE(healthz.is_ok());
  EXPECT_EQ(healthz.value().status_code, 503);
  EXPECT_EQ(healthz.value().body, "stalled\n");
}

TEST(TelemetryServer, OversizedRequestRejected) {
  ServerFixture f;
  auto resp = f.get("/" + std::string(10'000, 'a'));
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp.value().status_code, 400);
}

TEST(TelemetryServer, CountsRequestsServed) {
  ServerFixture f;
  for (int i = 0; i < 3; ++i) {
    auto resp = f.get("/healthz");
    ASSERT_TRUE(resp.is_ok());
  }
  // served_ is written on the loop thread; synchronize by posting a fence.
  std::atomic<bool> fenced{false};
  f.loop.post([&] { fenced = true; });
  while (!fenced) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(f.server->requests_served(), 3u);
}

// ---------------------------------------------------------------------------
// Event loop & loop timer health instrumentation
// ---------------------------------------------------------------------------

TEST(LoopSchedulerHealth, RecordsFireDriftDeterministically) {
  realnet::EventLoop loop;
  realnet::LoopScheduler& timers = loop.scheduler();
  LatencyHistogram drift;
  timers.set_fire_drift_histogram(&drift);

  const TimePoint t0 = timers.now();
  timers.schedule_at(t0 + Duration::millis(10), [] {});
  timers.schedule_at(t0 + Duration::millis(20), [] {});
  timers.advance(t0 + Duration::millis(25));

  EXPECT_EQ(timers.fired(), 2u);
  ASSERT_EQ(drift.count(), 2u);
  // Timers fired 15 ms and 5 ms past their deadlines.
  EXPECT_EQ(drift.max(), Duration::millis(15));
  EXPECT_EQ(drift.min(), Duration::millis(5));
}

TEST(EventLoopHealth, CountsIterationsAndPostedTasks) {
  realnet::EventLoop loop;
  LatencyHistogram wake;
  loop.set_wake_histogram(&wake);

  std::atomic<int> ran{0};
  std::thread t([&] { loop.run(); });
  for (int i = 0; i < 32; ++i) {
    loop.post([&] { ++ran; });
  }
  while (ran.load() < 32) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  loop.post([&] { loop.stop(); });
  t.join();

  EXPECT_EQ(loop.posted_tasks_run(), 33u);  // 32 + the stop task
  EXPECT_GT(loop.iterations(), 0u);
  // Every posted task records its eventfd wake-to-run delay.
  EXPECT_EQ(wake.count(), 33u);
  EXPECT_GE(wake.max(), Duration::zero());
}

// ---------------------------------------------------------------------------
// Live cluster scrape (realnet)
// ---------------------------------------------------------------------------

runtime::ClusterConfig scrape_cluster_config() {
  runtime::ClusterConfig cfg;
  cfg.f = 1;
  cfg.seed = 7;
  cfg.clients.count = 2;
  cfg.clients.window = 8;
  cfg.clients.payload_size = 32;
  cfg.consensus.pacemaker.base_timeout = Duration::millis(500);
  cfg.consensus.pacemaker.timeout_jitter = 0.2;
  return cfg;
}

bool eventually(Duration patience, const std::function<bool()>& cond) {
  const TimePoint deadline = realnet::mono_now() + patience;
  while (realnet::mono_now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return cond();
}

TEST(RealClusterTelemetry, EveryReplicaAnswersAllEndpoints) {
  realnet::RealClusterOptions options;
  options.telemetry = true;
  realnet::RealCluster cluster(scrape_cluster_config(), options);
  ASSERT_TRUE(cluster.ok().is_ok()) << cluster.ok().message();
  cluster.start();

  // Client state belongs to its node thread while the cluster runs: poll
  // completions through sample_metrics(), which copies them on that loop.
  ASSERT_TRUE(eventually(Duration::seconds(20), [&] {
    const obs::MetricsRegistry reg = cluster.sample_metrics();
    auto it = reg.latencies().find(obs::MetricKey{"client.latency", ""});
    return it != reg.latencies().end() && it->second.count() > 20;
  }));

  for (ReplicaId i = 0; i < cluster.n(); ++i) {
    const std::uint16_t port = cluster.telemetry_port(i);
    ASSERT_NE(port, 0) << "replica " << i;

    auto metrics = realnet::http_get("127.0.0.1", port, "/metrics",
                                     Duration::seconds(2));
    ASSERT_TRUE(metrics.is_ok()) << metrics.status().message();
    EXPECT_EQ(metrics.value().status_code, 200);
    EXPECT_NE(metrics.value().body.find("# TYPE marlin_replica_"),
              std::string::npos);
    EXPECT_NE(metrics.value().body.find("marlin_transport_"),
              std::string::npos);
    EXPECT_NE(metrics.value().body.find("marlin_loop_iterations"),
              std::string::npos);

    auto status = realnet::http_get("127.0.0.1", port, "/status",
                                    Duration::seconds(2));
    ASSERT_TRUE(status.is_ok());
    EXPECT_EQ(status.value().status_code, 200);
    auto doc = json::parse(status.value().body);
    ASSERT_TRUE(doc.is_ok()) << status.value().body;
    const json::Object* obj = doc.value().object();
    ASSERT_NE(obj, nullptr);
    EXPECT_EQ(json::get_num(*obj, "node", -1), static_cast<double>(i));
    EXPECT_EQ(json::get_str(*obj, "protocol", ""), "marlin");

    auto healthz = realnet::http_get("127.0.0.1", port, "/healthz",
                                     Duration::seconds(2));
    ASSERT_TRUE(healthz.is_ok());
    EXPECT_EQ(healthz.value().status_code, 200);
  }

  // Live cluster-wide snapshot merges every replica: committed height
  // gauges are re-exported per replica like runtime::Cluster does.
  obs::MetricsRegistry merged = cluster.sample_metrics();
  for (ReplicaId i = 0; i < cluster.n(); ++i) {
    const std::string label = "replica=" + std::to_string(i);
    EXPECT_GT(merged.gauge_value("replica.committed_height", label), 0)
        << label;
  }
  EXPECT_GT(merged.counter_value("replica.committed_blocks"), 0u);
  EXPECT_GT(merged.latency("client.latency").count(), 0u);

  // The live series line carries all four sections on the shared schema.
  const std::string line = obs::metrics_series_line(1.0, merged);
  auto doc = json::parse(line);
  ASSERT_TRUE(doc.is_ok());
  const json::Object* obj = doc.value().object();
  ASSERT_NE(obj, nullptr);
  for (const char* section : {"counters", "gauges", "latency_ms", "sizes"}) {
    EXPECT_NE(json::get_object(*obj, section), nullptr) << section;
  }

  cluster.stop();
}

TEST(RealClusterTelemetry, TelemetryOffByDefault) {
  realnet::RealCluster cluster(scrape_cluster_config());
  ASSERT_TRUE(cluster.ok().is_ok());
  for (ReplicaId i = 0; i < cluster.n(); ++i) {
    EXPECT_EQ(cluster.telemetry_port(i), 0);
  }
}

}  // namespace
}  // namespace marlin
