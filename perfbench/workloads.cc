#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>

#include "obs/critical_path.h"
#include "phases.h"
#include "probes.h"
#include "realnet/real_cluster.h"
#include "runtime/cluster.h"
#include "simnet/simulator.h"
#include "stats.h"

namespace perfbench {

using marlin::Duration;
using marlin::TimePoint;
namespace obs = marlin::obs;
namespace runtime = marlin::runtime;
namespace realnet = marlin::realnet;

namespace {

// Trace ring sizes (events). Rings grow on demand, so an unused capacity
// costs nothing; a wrapped ring fails the traced run.
constexpr std::size_t kMetalTraceCapacity = std::size_t{1} << 23;  // per node
constexpr std::size_t kSimTraceCapacity = std::size_t{1} << 24;

// A run is a series of episodes, each on a fresh cluster: set-up to the
// warm-up cut-off, then a window of a fixed count of committed ops. Memory
// then stays at one episode's working set instead of growing with the run
// (replicas retain up to 64 MiB of payload each), every episode adds a
// set-up sample, and a host stall moves one episode, not the reported
// medians. Episodes repeat until the windows add up to the run length, and
// there are at least kMinEpisodes.
constexpr int kMinEpisodes = 4;
// Episodes whose stolen CPU share is within this of the least stolen one's
// count as equally clean.
constexpr double kStealTolerance = 0.02;
// Metal windows end at the first sample past their op count.
constexpr auto kMetalPoll = std::chrono::milliseconds(20);

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  bool metal;
  std::uint32_t f;
  std::uint32_t window;        // outstanding requests of the one client
  std::size_t payload;         // request bytes
  std::uint64_t warmup_ops;    // committed ops before the window opens
  std::uint64_t window_ops;    // committed ops in the window (about 2 s)
};

constexpr Workload kWorkloads[] = {
    {"metal-n4", true, 1, 64, 150, 10000, 100000},
    {"metal-n4-4k", true, 1, 64, 4096, 2500, 16000},
    {"sim-n40", false, 13, 1000, 150, 8000, 30000},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// One client node with `window` outstanding requests; Marlin.
runtime::ClusterConfig base_config(const Workload& w, std::uint64_t seed) {
  runtime::ClusterConfig cfg;
  cfg.f = w.f;
  cfg.seed = seed;
  cfg.consensus.protocol = runtime::ProtocolKind::kMarlin;
  cfg.clients.count = 1;
  cfg.clients.window = w.window;
  cfg.clients.payload_size = w.payload;
  cfg.consensus.reply_size = 150;
  if (w.metal) {
    cfg.consensus.pacemaker.base_timeout = Duration::millis(500);
    cfg.consensus.pacemaker.timeout_jitter = 0.2;
  } else {
    // The paper testbed of the Fig. 10 benches (paper_config(f, kMarlin)):
    // 40 ms one-way, 200 Mbps links, 1 Gbps NICs, non-pipelined,
    // 32 000-op batches, checkpoint every 5000 blocks.
    cfg.net.one_way_delay = Duration::millis(40);
    cfg.net.link_bandwidth_bps = 200e6;
    cfg.net.nic_bandwidth_bps = 1e9;
    cfg.consensus.max_batch_ops = 32000;
    cfg.consensus.pipelined = false;
    cfg.consensus.checkpoint_interval = 5000;
    cfg.consensus.pacemaker.base_timeout = Duration::seconds(3);
  }
  return cfg;
}

// ---------------------------------------------------------------------------
// Counter deltas over the measured window
// ---------------------------------------------------------------------------

/// A size histogram's (count, sum), zero when absent.
std::pair<std::uint64_t, std::uint64_t> sizes(const obs::MetricsRegistry& reg,
                                              const char* name) {
  auto it = reg.size_histograms().find(obs::MetricKey{name, ""});
  if (it == reg.size_histograms().end()) return {0, 0};
  return {it->second.count(), it->second.sum()};
}

std::size_t latency_count(const obs::MetricsRegistry& reg, const char* name) {
  auto it = reg.latencies().find(obs::MetricKey{name, ""});
  return it == reg.latencies().end() ? 0 : it->second.count();
}

/// Everything read at the two window edges.
struct Edge {
  obs::MetricsRegistry reg;
  Usage usage;
  std::uint64_t ops = 0;  // client-observed commits so far
  std::uint64_t allocs = 0;
  double wall_s = 0;
  TimePoint at;  // cluster clock (mono on metal, virtual on the sim)
  HostCpu host;
};

/// Per-op layer counters shared by both backends (replica registries).
void counter_metrics(const Edge& open, const Edge& close, std::uint32_t n,
                     std::uint64_t ops, RunResult& out) {
  auto delta = [&](const char* name, const std::string& label = {}) {
    return static_cast<double>(close.reg.counter_value(name, label) -
                               open.reg.counter_value(name, label));
  };
  double msgs = 0, bytes = 0, leader = 0;
  for (std::uint32_t r = 0; r < n; ++r) {
    const std::string label = "node=" + std::to_string(r);
    msgs += delta("net.messages_sent", label);
    const double b = delta("net.bytes_sent", label);
    bytes += b;
    leader = std::max(leader, b);
  }
  out.set("net.msgs_per_op", per_op(msgs, ops), "count");
  out.set("net.bytes_per_op", per_op(bytes, ops), "B");
  out.set("net.leader_egress_bytes_per_op", per_op(leader, ops), "B");

  out.set("crypto.verifies_per_op", per_op(delta("crypto.verifies"), ops),
          "count");
  out.set("crypto.signs_per_op", per_op(delta("crypto.signs"), ops), "count");
  out.set("crypto.hash_kb_per_op",
          per_op(delta("crypto.hash_bytes") / 1024.0, ops), "KiB");

  const double blocks = delta("replica.committed_blocks");
  out.set("consensus.ops_per_block",
          blocks > 0 ? delta("replica.committed_ops") / blocks : 0, "count");
  double views = 0;
  for (const auto& [key, value] : close.reg.gauges()) {
    if (key.name == "replica.view") views = std::max(views, value);
  }
  out.set("consensus.views", views, "count");

  // Every replica KV put: the write-ahead pstate plus one block record per
  // committed block.
  out.set("storage.puts_per_op",
          per_op(delta("storage.pstate_writes") + blocks, ops), "count");
  out.set("storage.checkpoints",
          static_cast<double>(close.reg.counter_value("storage.checkpoints")),
          "count");

  out.set("proc.minor_faults_per_op",
          per_op(static_cast<double>(close.usage.minor_faults -
                                     open.usage.minor_faults),
                 ops),
          "count");
  out.set("realnet.ctx_switches_per_op",
          per_op(static_cast<double>(close.usage.ctx_switches -
                                     open.usage.ctx_switches),
                 ops),
          "count");
}

/// realnet loop/transport counters (zero on the simulator, which has
/// neither).
void realnet_metrics(const Edge& open, const Edge& close, std::uint64_t ops,
                     RunResult& out) {
  auto delta = [&](const char* name) {
    return static_cast<double>(close.reg.counter_value(name) -
                               open.reg.counter_value(name));
  };
  auto mean_delta = [&](const char* name) {
    const auto [c0, s0] = sizes(open.reg, name);
    const auto [c1, s1] = sizes(close.reg, name);
    return c1 > c0 ? static_cast<double>(s1 - s0) / static_cast<double>(c1 - c0)
                   : 0.0;
  };
  out.set("realnet.frames_per_flush", mean_delta("transport.frames_per_flush"),
          "count");
  out.set("realnet.flushes_per_op", per_op(delta("transport.flushes"), ops),
          "count");
  out.set("realnet.frames_per_wake", mean_delta("loop.frames_per_wake"),
          "count");
  out.set("realnet.wakes_per_op", per_op(delta("transport.ingress_wakes"), ops),
          "count");
  out.set("realnet.loop_iterations_per_op",
          per_op(delta("loop.iterations"), ops), "count");
  double wake_p50_us = 0;
  std::uint64_t wake_samples = 0;
  auto it = close.reg.latencies().find(obs::MetricKey{"loop.wake_delay", ""});
  if (it != close.reg.latencies().end() && it->second.count() > 0) {
    wake_p50_us = static_cast<double>(it->second.percentile(50).as_nanos()) /
                  1e3;
    wake_samples = it->second.count();
  }
  out.set("realnet.wake_delay_p50_us", wake_p50_us, "us", wake_samples);
}

void traced_metrics(const std::vector<obs::TraceEvent>& events,
                    const Edge& open, const Edge& close, std::uint32_t f,
                    std::uint64_t ops, RunResult& out) {
  const PhaseSplit split =
      split_phases(events, open.at, close.at, /*commit_quorum=*/f + 1);
  if (split.requests == 0) out.fail("trace: no request completed a full split");
  out.set("consensus.txpool_wait_ms", split.txpool_wait_ms, "ms",
          split.requests);
  out.set("consensus.propose_to_qc_ms", split.propose_to_qc_ms, "ms",
          split.requests);
  out.set("consensus.qc_to_commit_ms", split.qc_to_commit_ms, "ms",
          split.requests);
  out.set("runtime.reply_ms", split.reply_ms, "ms", split.requests);
  if (open.allocs != 0 || close.allocs != 0) {
    out.set("proc.allocs_per_op",
            per_op(static_cast<double>(close.allocs - open.allocs), ops),
            "count");
  }
}

/// One episode: a fresh cluster, its set-up to the warm-up cut-off, and
/// one measured window. Layer metrics land in `out` like a whole run's.
struct Episode {
  HostCpu start;                  // host CPU counters at construction
  double steal = 0;               // stolen share of CPU demand, start→close
  double setup_s = 0;
  Window window;                  // the measured window
  std::vector<double> latency_ms; // metal: per op; sim: per commit gap
  RunResult out;
};

/// The client's failure accounting, from its public counters.
template <typename Client>
void account_client(Client& client, RunResult& out) {
  out.attempted = client.issued();
  const std::uint64_t settled =
      client.completed().total() + client.in_flight();
  out.failed = out.attempted > settled ? out.attempted - settled : 0;
  if (out.failed > 0) {
    out.fail(std::to_string(out.failed) + " ops neither completed nor pending");
  }
  if (client.retransmissions() > 0) {
    out.fail(std::to_string(client.retransmissions()) +
             " request retransmissions");
  }
  out.set("runtime.retransmits", static_cast<double>(client.retransmissions()),
          "count");
}

void close_window(const Edge& open, const Edge& close, Episode& ep) {
  ep.window = Window{close.wall_s - open.wall_s, close.ops - open.ops,
                     close.usage.cpu_s - open.usage.cpu_s};
  ep.steal = steal_share(ep.start, close.host);
}

// ---------------------------------------------------------------------------
// Metal: realnet::RealCluster on 127.0.0.1 TCP
// ---------------------------------------------------------------------------

std::uint64_t client_ops(const obs::MetricsRegistry& reg) {
  return latency_count(reg, "client.latency");
}

/// sample_metrics() skips a node that misses its patience; an edge needs
/// every replica and the client, or the window's deltas are meaningless.
bool sample_complete(const obs::MetricsRegistry& reg, std::uint32_t n) {
  std::uint32_t replicas = 0;
  for (const auto& [key, value] : reg.gauges()) {
    if (key.name == "transport.peers_connected" && !key.label.empty()) {
      ++replicas;
    }
  }
  return replicas == n &&
         reg.latencies().count(obs::MetricKey{"client.latency", ""}) > 0;
}

Edge metal_edge(realnet::RealCluster& cluster, const RunOptions& opt,
                RunResult& out) {
  Edge e;
  e.reg = cluster.sample_metrics(Duration::seconds(5));
  if (!sample_complete(e.reg, cluster.n())) {
    out.fail("metrics sample missed a node for 5 s");
  }
  e.wall_s = wall_now_s();
  e.at = realnet::mono_now();
  e.usage = usage_now();
  e.host = host_cpu_now();
  e.ops = client_ops(e.reg);
  if (opt.allocations) e.allocs = opt.allocations();
  return e;
}

void check_metal(realnet::RealCluster& cluster, RunResult& out) {
  if (cluster.any_safety_violation()) out.fail("safety violation");
  if (!cluster.committed_heights_consistent()) {
    out.fail("committed prefixes disagree");
  }
  if (cluster.min_committed_height() == 0) {
    out.fail("a replica committed nothing");
  }
}

void metal_episode(const Workload& w, const RunOptions& opt, Episode& ep) {
  RunResult& out = ep.out;
  ep.start = host_cpu_now();
  const double t0 = wall_now_s();
  realnet::RealClusterOptions ropt;
  if (opt.trace) {
    ropt.trace = true;
    ropt.trace_capacity = kMetalTraceCapacity;
  }
  realnet::RealCluster cluster(base_config(w, opt.seed), ropt);
  if (!cluster.ok().is_ok()) {
    out.fail("cluster construction: " + cluster.ok().message());
    return;
  }
  cluster.start();
  WarmupCutoff cut(w.warmup_ops);
  while (!cut.observe(client_ops(cluster.sample_metrics()))) {
    if (wall_now_s() > t0 + 60) {
      out.fail("warm-up did not reach " + std::to_string(w.warmup_ops) +
               " committed ops");
      cluster.stop();
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ep.setup_s = wall_now_s() - t0;

  const Edge open = metal_edge(cluster, opt, out);
  Edge close = open;
  while (out.errors.empty() && close.ops < open.ops + w.window_ops) {
    if (close.wall_s > open.wall_s + 60) {
      out.fail("window did not reach " + std::to_string(w.window_ops) +
               " committed ops");
      break;
    }
    std::this_thread::sleep_for(kMetalPoll);
    close = metal_edge(cluster, opt, out);
  }
  cluster.stop();
  if (!out.errors.empty()) return;
  check_metal(cluster, out);
  account_client(cluster.client(0), out);
  close_window(open, close, ep);

  // Completion order is record order; the window is [open.ops, close.ops).
  const auto& samples = cluster.client(0).latency().samples();
  for (std::size_t i = open.ops; i < close.ops && i < samples.size(); ++i) {
    ep.latency_ms.push_back(samples[i].as_millis_f());
  }
  counter_metrics(open, close, cluster.n(), ep.window.ops, out);
  realnet_metrics(open, close, ep.window.ops, out);
  // Layers that do no work on metal read 0.
  out.set("simnet.events_per_op", 0, "count");
  out.set("simnet.ns_per_event", 0, "ns");
  out.set("model.ops_per_s", 0, "1/s");
  for (const char* name :
       {"model.p50_ms", "model.queue_ms", "model.wire_ms", "model.cpu_ms"}) {
    out.set(name, 0, "ms");
  }
  if (opt.trace) {
    const std::vector<obs::TraceEvent> events = cluster.merged_trace_events();
    if (trace_wrapped(events)) {
      out.fail("trace ring wrapped: raise kMetalTraceCapacity");
    }
    traced_metrics(events, open, close, w.f, ep.window.ops, out);
  }
}

// ---------------------------------------------------------------------------
// Simulator: runtime::Cluster over one sim::Simulator
// ---------------------------------------------------------------------------

std::string sim_state(runtime::Cluster& cluster, marlin::sim::Simulator& sim) {
  marlin::Height height = 0;
  for (std::uint32_t r = 0; r < cluster.n(); ++r) {
    height = std::max(height, cluster.replica(r).protocol().committed_height());
  }
  return "ops=" + std::to_string(cluster.client(0).completed().total()) +
         " height=" + std::to_string(height) +
         " events=" + std::to_string(sim.events_executed());
}

Edge sim_edge(runtime::Cluster& cluster, marlin::sim::Simulator& sim,
              const RunOptions& opt) {
  Edge e;
  cluster.export_metrics(e.reg);
  e.wall_s = wall_now_s();
  e.at = sim.now();
  e.usage = usage_now();
  e.host = host_cpu_now();
  e.ops = cluster.client(0).completed().total();
  if (opt.allocations) e.allocs = opt.allocations();
  return e;
}

void check_sim(runtime::Cluster& cluster, RunResult& out) {
  if (cluster.any_safety_violation()) out.fail("safety violation");
  if (!cluster.committed_heights_consistent()) {
    out.fail("committed prefixes disagree");
  }
  for (std::uint32_t r = 0; r < cluster.n(); ++r) {
    if (cluster.replica(r).protocol().committed_height() == 0) {
      out.fail("replica " + std::to_string(r) + " committed nothing");
      return;
    }
  }
}

/// Steps until the client has seen `target` commits. With `gaps`, records
/// the wall time between successive client-observed commits: what a user
/// of the simulator waits per commit.
bool step_until(marlin::sim::Simulator& sim,
                runtime::ClientProcess& client, std::uint64_t target,
                std::vector<double>* gaps) {
  WarmupCutoff cut(target);
  std::uint64_t seen = client.completed().total();
  double last = -1;
  while (!cut.observe(seen)) {
    if (!sim.step()) return false;
    const std::uint64_t done = client.completed().total();
    if (gaps != nullptr && done != seen) {
      const double now = wall_now_s();
      if (last >= 0) gaps->push_back((now - last) * 1e3);
      last = now;
    }
    seen = done;
  }
  return true;
}

void sim_episode(const Workload& w, const RunOptions& opt, Episode& ep) {
  RunResult& out = ep.out;
  ep.start = host_cpu_now();
  const double t0 = wall_now_s();
  runtime::ClusterConfig cfg = base_config(w, opt.seed);
  std::unique_ptr<obs::TraceSink> sink;
  if (opt.trace) {
    sink = std::make_unique<obs::TraceSink>(kSimTraceCapacity);
    cfg.trace = sink.get();
  }
  marlin::sim::Simulator sim(opt.seed);
  runtime::Cluster cluster(sim, cfg);
  cluster.start();
  runtime::ClientProcess& client = cluster.client(0);
  if (!step_until(sim, client, w.warmup_ops, nullptr)) {
    out.fail("simulator ran dry during warm-up");
    return;
  }
  ep.setup_s = wall_now_s() - t0;
  out.fingerprint = sim_state(cluster, sim);

  // The window is a count of ops, so the whole episode — and its
  // fingerprint — is a pure function of the seed.
  const Edge open = sim_edge(cluster, sim, opt);
  const std::uint64_t events_open = sim.events_executed();
  if (!step_until(sim, client, open.ops + w.window_ops, &ep.latency_ms)) {
    out.fail("simulator ran dry in the measured window");
    return;
  }
  const Edge close = sim_edge(cluster, sim, opt);
  out.fingerprint += " | " + sim_state(cluster, sim);
  check_sim(cluster, out);
  account_client(client, out);
  close_window(open, close, ep);

  const std::uint64_t ops = ep.window.ops;
  const double events =
      static_cast<double>(sim.events_executed() - events_open);
  counter_metrics(open, close, cluster.n(), ops, out);
  realnet_metrics(open, open, ops, out);  // no realnet on the simulator
  out.set("simnet.events_per_op", per_op(events, ops), "count");
  out.set("simnet.ns_per_event",
          events > 0 ? ep.window.wall_s * 1e9 / events : 0, "ns");

  // Simulated-time values: model outputs, per-layer only.
  const double sim_s = (close.at - open.at).as_seconds_f();
  out.set("model.ops_per_s", sim_s > 0 ? static_cast<double>(ops) / sim_s : 0,
          "1/s");
  const auto& samples = client.latency().samples();
  std::vector<double> model_lat;
  for (std::size_t i = open.ops; i < close.ops && i < samples.size(); ++i) {
    model_lat.push_back(samples[i].as_millis_f());
  }
  out.set("model.p50_ms", percentile(model_lat, 50), "ms", model_lat.size());

  if (opt.trace) {
    if (sink->evicted() > 0) {
      out.fail("trace ring wrapped: raise kSimTraceCapacity");
    }
    const std::vector<obs::TraceEvent> all = sink->events();
    traced_metrics(all, open, close, w.f, ops, out);
    std::vector<obs::TraceEvent> window;
    for (const obs::TraceEvent& e : all) {
      if (e.at >= open.at && e.at <= close.at) window.push_back(e);
    }
    const obs::CriticalPathBreakdown b = obs::aggregate_critical_paths(
        obs::critical_paths(window), /*three_phase=*/false);
    out.set("model.queue_ms", b.queue_ns.percentile(50) / 1e6, "ms", b.blocks);
    out.set("model.wire_ms", b.wire_ns.percentile(50) / 1e6, "ms", b.blocks);
    out.set("model.cpu_ms", b.cpu_ns.percentile(50) / 1e6, "ms", b.blocks);
  }
}

// ---------------------------------------------------------------------------
// A run: episodes until the measured windows add up to the run length
// ---------------------------------------------------------------------------

/// p50/p90 under the sample-count rule. Metal episodes hold thousands of
/// latencies each, so each episode's percentile counts and the run reports
/// the median episode (one hiccup moves one episode). A sim episode holds
/// only ~30 commit gaps, so its gaps are pooled over the run.
void latency_metrics(const std::vector<Episode>& episodes, bool per_episode,
                     RunResult& out) {
  std::vector<double> pooled, p50s, p90s;
  for (const Episode& ep : episodes) {
    pooled.insert(pooled.end(), ep.latency_ms.begin(), ep.latency_ms.end());
    if (per_episode) {
      if (!percentile_supported(ep.latency_ms.size(), 90)) {
        out.fail("too few latency samples in an episode for p90: " +
                 std::to_string(ep.latency_ms.size()));
      }
      p50s.push_back(percentile(ep.latency_ms, 50));
      p90s.push_back(percentile(ep.latency_ms, 90));
    }
  }
  const std::size_t n = pooled.size();
  if (!percentile_supported(n, 90)) {
    out.fail("too few latency samples for p90: " + std::to_string(n));
  }
  out.set("p50_ms", per_episode ? median(p50s) : percentile(pooled, 50), "ms",
          n);
  out.set("p90_ms", per_episode ? median(p90s) : percentile(pooled, 90), "ms",
          n);
}

/// Every reported value comes from `episodes`, the least-stolen ones.
void summarise(const std::vector<Episode>& episodes, bool per_episode_latency,
               RunResult& out) {
  std::vector<Window> windows;
  std::vector<double> setups;
  std::map<std::string, std::vector<double>> layers;
  std::map<std::string, Metric> meta;  // unit and summed samples per name
  std::uint64_t ops = 0;
  for (const Episode& ep : episodes) {
    windows.push_back(ep.window);
    setups.push_back(ep.setup_s);
    ops += ep.window.ops;
    for (const auto& [name, m] : ep.out.metrics) {
      layers[name].push_back(m.value);
      meta[name].unit = m.unit;
      meta[name].samples += m.samples;
    }
  }
  // Layer metrics: the median episode.
  for (const auto& [name, values] : layers) {
    out.set(name, median(values), meta[name].unit, meta[name].samples);
  }
  if (ops == 0) out.fail("no op committed in the measured windows");
  out.set("ops_per_s", median_rate(windows), "1/s", windows.size());
  latency_metrics(episodes, per_episode_latency, out);
  out.set("cpu_us_per_op", median_cpu_per_op(windows) * 1e6, "us",
          windows.size());
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.set("setup_s", median(setups), "s", setups.size());
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

void append_json_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

}  // namespace

bool known_workload(const std::string& name) {
  return find_workload(name) != nullptr;
}

RunResult run_workload(const RunOptions& options) {
  RunResult out;
  const Workload* w = find_workload(options.workload);
  if (w == nullptr) {
    out.fail("unknown workload " + options.workload);
    return out;
  }
  std::vector<Episode> episodes;
  double measured = 0;
  while (static_cast<int>(episodes.size()) < kMinEpisodes ||
         measured < options.seconds) {
    Episode& ep = episodes.emplace_back();
    if (w->metal) {
      metal_episode(*w, options, ep);
    } else {
      sim_episode(*w, options, ep);
    }
    for (const std::string& e : ep.out.errors) out.fail(e);
    // Every episode replays the same seed: its fingerprint must repeat.
    if (out.fingerprint.empty()) {
      out.fingerprint = ep.out.fingerprint;
    } else if (ep.out.fingerprint != out.fingerprint) {
      out.fail("determinism: episode fingerprint '" + ep.out.fingerprint +
               "' != '" + out.fingerprint + "'");
    }
    if (!out.errors.empty()) return out;
    measured += ep.window.wall_s;
    std::fprintf(stderr,
                 "%s episode %zu: setup %.3f s, %.0f ops/s, %.2f us/op, "
                 "steal %.1f%%\n",
                 w->name, episodes.size(), ep.setup_s,
                 static_cast<double>(ep.window.ops) / ep.window.wall_s,
                 per_op(ep.window.cpu_s, ep.window.ops) * 1e6, ep.steal * 100);
  }
  // On a shared host the hypervisor can withhold a third of the VM's CPU
  // time for seconds at a time, which measures the host, not the program:
  // report the episodes with the least steal (all of them when there is
  // none), at least half of the run.
  std::vector<double> steal;
  for (const Episode& ep : episodes) {
    steal.push_back(ep.steal);
    out.attempted += ep.out.attempted;
    out.failed += ep.out.failed;
  }
  const std::size_t n = episodes.size();
  std::vector<Episode> kept;
  for (std::size_t i : least_stolen(
           steal, kStealTolerance,
           std::max((n + 1) / 2, std::min<std::size_t>(n, kMinEpisodes)))) {
    kept.push_back(std::move(episodes[i]));
  }
  summarise(kept, /*per_episode_latency=*/w->metal, out);
  out.set("host.steal_pct", median(steal) * 100, "%", n);
  std::fprintf(stderr, "%s: reporting the %zu least-stolen of %zu episodes\n",
               w->name, kept.size(), n);
  if (options.probes) {
    run_probes(ProbeInputs::from_run(3 * w->f + 1, w->payload, options, out),
               out);
  }
  out.correct = out.errors.empty();
  return out;
}

std::string result_json(const RunOptions& options, const RunResult& result) {
  std::string out = "{\"workload\":";
  append_json_string(out, options.workload);
  out += ",\"seed\":" + std::to_string(options.seed);
  out += ",\"trace\":";
  out += options.trace ? "true" : "false";
  out += ",\"correct\":";
  out += result.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(result.attempted);
  out += ",\"failed\":" + std::to_string(result.failed);
  out += ",\"compiler\":";
  append_json_string(out, kCompiler);
  out += ",\"build_type\":";
  append_json_string(out, PERFBENCH_BUILD_TYPE);
  out += ",\"fingerprint\":";
  append_json_string(out, result.fingerprint);
  out += ",\"errors\":[";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    if (i > 0) out += ",";
    append_json_string(out, result.errors[i]);
  }
  out += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    if (!first) out += ",";
    first = false;
    append_json_string(out, name);
    out += ":{\"value\":" + fmt_num(m.value) + ",\"unit\":";
    append_json_string(out, m.unit);
    out += ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
