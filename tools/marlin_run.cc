// marlin_run — launch a real BFT cluster on localhost TCP (src/realnet).
//
// The metal twin of marlin_sim: the same consensus core and the same
// runtime::ClusterConfig vocabulary, but every replica and client is a
// live thread speaking length-prefixed frames over 127.0.0.1 sockets and
// pacing itself off the monotonic clock.
//
//   marlin_run --f=1 --clients=4 --seconds=5
//   marlin_run --config=cluster.json --metrics-out=run.json
//   marlin_run --f=1 --data-dir=/tmp/run1 --kill=2@1.5 --relaunch=2@3
//
// The JSON config mirrors ClusterConfig field names (flags override it):
//
//   {"protocol": "marlin", "f": 1, "seed": 7,
//    "clients": {"count": 4, "window": 16, "payload_size": 150},
//    "pacemaker": {"base_timeout_ms": 500, "timeout_jitter": 0.2},
//    "consensus": {"max_batch_ops": 4000, "checkpoint_interval": 5000}}
//
// Prints a one-line summary plus a per-replica table; exits non-zero on a
// safety violation, inconsistent commit prefixes, or (with --min-commits)
// too little progress — which is what the CI smoke job pins.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_flags.h"
#include "common/json.h"
#include "obs/export.h"
#include "obs/telemetry.h"
#include "realnet/real_cluster.h"

using namespace marlin;

namespace {

using realnet::RealCluster;
using realnet::RealClusterOptions;

struct CrashEvent {
  ReplicaId replica = 0;
  double at_seconds = 0;
  bool relaunch = false;  // false = kill
  bool done = false;
};

struct Options {
  runtime::ClusterConfig cluster;
  RealClusterOptions real;
  double seconds = 5;
  double warmup = 0.5;
  std::uint64_t min_commits = 0;  // exit 1 below this (0 = no gate)
  std::vector<CrashEvent> events;
  std::string config_path;
  std::string metrics_out;
  std::string trace_out;
  std::string metrics_series_out;
  std::string metrics_prom_out;
  double metrics_interval = 0;  // 0 = default 1 s when a series is written
  bool help = false;
};

void usage() {
  std::printf(
      "marlin_run — run a real-socket BFT cluster on localhost TCP\n\n"
      "  --config=PATH       JSON cluster config (field names mirror\n"
      "                      ClusterConfig; explicit flags override it)\n"
      "  --protocol=NAME     marlin | hotstuff (default marlin)\n"
      "  --f=N               fault threshold; n = 3f+1 (default 1)\n"
      "  --clients=N         closed-loop clients (default 4)\n"
      "  --window=N          outstanding requests per client (default 16)\n"
      "  --payload=BYTES     request payload size (default 150)\n"
      "  --seconds=S         wall-clock run duration (default 5)\n"
      "  --warmup=S          throughput window starts here (default 0.5)\n"
      "  --seed=N            cluster seed: keys + client payloads (7)\n"
      "  --timeout-ms=N      pacemaker base timeout (default 500)\n"
      "  --data-dir=PATH     durable replica stores under PATH/r<i>\n"
      "                      (default in-memory; required for recovery)\n"
      "  --kill=I@S          hard-kill replica I at S seconds\n"
      "  --relaunch=I@S      relaunch replica I at S seconds (restores\n"
      "                      from its data dir and rejoins over TCP)\n"
      "  --min-commits=N     exit 1 unless >= N client ops commit\n"
      "  --metrics-out=PATH  write a JSON metrics snapshot\n"
      "  --trace-out=PATH    dump the merged protocol trace as JSONL\n"
      "  --telemetry         serve live /metrics /status /healthz per\n"
      "                      replica on ephemeral 127.0.0.1 ports\n"
      "  --telemetry-port=P  fixed telemetry ports: replica i on P+i\n"
      "                      (implies --telemetry)\n"
      "  --metrics-series-out=PATH  append JSONL metric snapshots every\n"
      "                      --metrics-interval seconds (live trajectory;\n"
      "                      same schema as marlin_sim's series)\n"
      "  --metrics-interval=S  sampling period for the series (default 1)\n"
      "  --metrics-prom-out=PATH  write the final metrics snapshot as\n"
      "                      Prometheus text exposition\n");
}

bool parse_crash(const std::string& v, bool relaunch, Options* opt) {
  unsigned replica = 0;
  double at = 0;
  if (std::sscanf(v.c_str(), "%u@%lf", &replica, &at) != 2) {
    std::fprintf(stderr, "bad %s spec '%s' (want I@SECONDS)\n",
                 relaunch ? "--relaunch" : "--kill", v.c_str());
    return false;
  }
  opt->events.push_back(CrashEvent{replica, at, relaunch, false});
  return true;
}

bool parse_protocol(const std::string& name, runtime::ProtocolKind* kind) {
  if (name == "marlin") {
    *kind = runtime::ProtocolKind::kMarlin;
    return true;
  }
  if (name == "hotstuff") {
    *kind = runtime::ProtocolKind::kHotStuff;
    return true;
  }
  std::fprintf(stderr, "unknown protocol '%s'\n", name.c_str());
  return false;
}

/// Applies a parsed JSON config document onto `cluster`. Field names mirror
/// the ClusterConfig struct; absent fields keep their current values.
bool apply_config(const json::Object& doc, runtime::ClusterConfig* cluster) {
  cluster->f = static_cast<std::uint32_t>(json::get_num(doc, "f", cluster->f));
  cluster->seed = static_cast<std::uint64_t>(
      json::get_num(doc, "seed", static_cast<double>(cluster->seed)));
  if (const std::string name = json::get_str(doc, "protocol", "");
      !name.empty() && !parse_protocol(name, &cluster->consensus.protocol)) {
    return false;
  }
  if (const json::Object* c = json::get_object(doc, "clients")) {
    auto& cl = cluster->clients;
    cl.count = static_cast<std::uint32_t>(json::get_num(*c, "count", cl.count));
    cl.window =
        static_cast<std::uint32_t>(json::get_num(*c, "window", cl.window));
    cl.payload_size = static_cast<std::size_t>(
        json::get_num(*c, "payload_size", static_cast<double>(cl.payload_size)));
    cl.max_requests = static_cast<std::uint64_t>(json::get_num(
        *c, "max_requests", static_cast<double>(cl.max_requests)));
    cl.retransmit_timeout = Duration::millis(static_cast<std::int64_t>(
        json::get_num(*c, "retransmit_timeout_ms",
                      cl.retransmit_timeout.as_millis_f())));
  }
  if (const json::Object* p = json::get_object(doc, "pacemaker")) {
    auto& pm = cluster->consensus.pacemaker;
    pm.base_timeout = Duration::millis(static_cast<std::int64_t>(json::get_num(
        *p, "base_timeout_ms", pm.base_timeout.as_millis_f())));
    pm.max_timeout = Duration::millis(static_cast<std::int64_t>(json::get_num(
        *p, "max_timeout_ms", pm.max_timeout.as_millis_f())));
    pm.backoff_factor = json::get_num(*p, "backoff_factor", pm.backoff_factor);
    pm.timeout_jitter = json::get_num(*p, "timeout_jitter", pm.timeout_jitter);
    pm.base_timeout_per_replica = Duration::micros(static_cast<std::int64_t>(
        1000.0 * json::get_num(*p, "base_timeout_per_replica_ms",
                               pm.base_timeout_per_replica.as_millis_f())));
  }
  if (const json::Object* c = json::get_object(doc, "consensus")) {
    auto& cons = cluster->consensus;
    cons.max_batch_ops = static_cast<std::size_t>(json::get_num(
        *c, "max_batch_ops", static_cast<double>(cons.max_batch_ops)));
    cons.pipelined = json::get_bool(*c, "pipelined", cons.pipelined);
    cons.allow_empty_blocks =
        json::get_bool(*c, "allow_empty_blocks", cons.allow_empty_blocks);
    cons.checkpoint_interval = static_cast<std::uint64_t>(json::get_num(
        *c, "checkpoint_interval",
        static_cast<double>(cons.checkpoint_interval)));
    cons.reply_size = static_cast<std::size_t>(json::get_num(
        *c, "reply_size", static_cast<double>(cons.reply_size)));
  }
  return true;
}

bool load_config(const std::string& path, runtime::ClusterConfig* cluster) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read config %s\n", path.c_str());
    return false;
  }
  std::ostringstream body;
  body << in.rdbuf();
  Result<json::Value> doc = json::parse(body.str());
  if (!doc.is_ok()) {
    std::fprintf(stderr, "bad config %s: %s\n", path.c_str(),
                 doc.status().message().c_str());
    return false;
  }
  const json::Object* obj = doc.value().object();
  if (obj == nullptr) {
    std::fprintf(stderr, "bad config %s: top level must be an object\n",
                 path.c_str());
    return false;
  }
  return apply_config(*obj, cluster);
}

bool parse_options(int argc, char** argv, Options* opt) {
  // Real-clock defaults: the sim's 2 s pacemaker base would make a 5 s
  // localhost run mostly silence after any hiccup.
  opt->cluster.seed = 7;
  opt->cluster.clients.count = 4;
  opt->cluster.consensus.pacemaker.base_timeout = Duration::millis(500);
  opt->cluster.consensus.pacemaker.timeout_jitter = 0.2;

  // Two passes so "flags override config" regardless of argument order:
  // find --config first, then let every other flag overwrite it.
  {
    cli::ArgCursor scan(argc, argv);
    while (scan.next()) {
      std::string v;
      if (scan.str("--config", &v)) opt->config_path = v;
    }
  }
  if (!opt->config_path.empty() &&
      !load_config(opt->config_path, &opt->cluster)) {
    return false;
  }

  cli::ArgCursor args(argc, argv);
  while (args.next()) {
    std::string v;
    if (args.flag("--help")) {
      opt->help = true;
    } else if (args.str("--config", &v)) {
      // handled above
    } else if (args.str("--protocol", &v)) {
      if (!parse_protocol(v, &opt->cluster.consensus.protocol)) return false;
    } else if (args.u32("--f", &opt->cluster.f)) {
    } else if (args.u32("--clients", &opt->cluster.clients.count)) {
    } else if (args.u32("--window", &opt->cluster.clients.window)) {
    } else if (args.size("--payload", &opt->cluster.clients.payload_size)) {
    } else if (args.f64("--seconds", &opt->seconds)) {
    } else if (args.f64("--warmup", &opt->warmup)) {
    } else if (args.u64("--seed", &opt->cluster.seed)) {
    } else if (args.millis("--timeout-ms",
                           &opt->cluster.consensus.pacemaker.base_timeout)) {
    } else if (args.str("--data-dir", &v)) {
      opt->real.data_dir = v;
    } else if (args.str("--kill", &v)) {
      if (!parse_crash(v, /*relaunch=*/false, opt)) return false;
    } else if (args.str("--relaunch", &v)) {
      if (!parse_crash(v, /*relaunch=*/true, opt)) return false;
    } else if (args.u64("--min-commits", &opt->min_commits)) {
    } else if (args.str("--metrics-out", &opt->metrics_out)) {
    } else if (args.str("--trace-out", &opt->trace_out)) {
    } else if (args.flag("--telemetry")) {
      opt->real.telemetry = true;
    } else if (args.u16("--telemetry-port", &opt->real.telemetry_base_port)) {
      opt->real.telemetry = true;
    } else if (args.str("--metrics-series-out", &opt->metrics_series_out)) {
    } else if (args.f64("--metrics-interval", &opt->metrics_interval)) {
    } else if (args.str("--metrics-prom-out", &opt->metrics_prom_out)) {
    } else {
      args.fail_unknown();
    }
  }
  if (!args.ok()) return false;

  for (const CrashEvent& e : opt->events) {
    const std::uint32_t n = 3 * opt->cluster.f + 1;
    if (e.replica >= n) {
      std::fprintf(stderr, "--%s replica %u out of range (n=%u)\n",
                   e.relaunch ? "relaunch" : "kill", e.replica, n);
      return false;
    }
    if (e.relaunch && opt->real.data_dir.empty()) {
      std::fprintf(stderr,
                   "--relaunch needs --data-dir (an in-memory replica has "
                   "nothing to recover from)\n");
      return false;
    }
  }
  return true;
}

std::string metrics_json(const RealCluster& cluster, const Options& opt,
                         const net::NodeNetStats& wire, bool relaunch_ok) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"protocol\":\"%s\",\"n\":%u,\"clients\":%u,\"window\":%u,"
      "\"seconds\":%.3f,\"throughput_ops\":%.1f,\"latency_p50_ms\":%.3f,"
      "\"latency_p99_ms\":%.3f,\"latency_mean_ms\":%.3f,"
      "\"total_completed\":%llu,\"min_committed_height\":%llu,"
      "\"safety_ok\":%s,\"consistent\":%s,\"relaunch_ok\":%s,"
      "\"wire_bytes_sent\":%llu,\"wire_bytes_delivered\":%llu,"
      "\"wire_messages_dropped\":%llu}",
      cluster.config().consensus.protocol == runtime::ProtocolKind::kMarlin
          ? "marlin"
          : "hotstuff",
      cluster.n(), cluster.client_count(), opt.cluster.clients.window,
      opt.seconds, cluster.client_throughput(), cluster.latency_ms(50),
      cluster.latency_ms(99), cluster.mean_latency_ms(),
      static_cast<unsigned long long>(cluster.total_completed()),
      static_cast<unsigned long long>(cluster.min_committed_height()),
      cluster.any_safety_violation() ? "false" : "true",
      cluster.committed_heights_consistent() ? "true" : "false",
      relaunch_ok ? "true" : "false",
      static_cast<unsigned long long>(wire.bytes_sent),
      static_cast<unsigned long long>(wire.bytes_delivered),
      static_cast<unsigned long long>(wire.messages_dropped));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, &opt)) return 2;
  if (opt.help) {
    usage();
    return 0;
  }

  opt.real.trace = !opt.trace_out.empty();
  RealCluster cluster(opt.cluster, opt.real);
  if (!cluster.ok().is_ok()) {
    std::fprintf(stderr, "cluster init failed: %s\n",
                 cluster.ok().message().c_str());
    return 2;
  }
  if (!opt.trace_out.empty() && !cluster.tracing()) {
    // merged_trace_events() is silently empty without tracing; make the
    // would-be-empty dump loud instead of mysterious.
    std::fprintf(stderr,
                 "warning: --trace-out given but tracing is disabled; the "
                 "trace file will be empty\n");
  }

  std::ofstream series;
  if (!opt.metrics_series_out.empty()) {
    series.open(opt.metrics_series_out, std::ios::trunc);
    if (!series) {
      std::fprintf(stderr, "cannot write %s\n",
                   opt.metrics_series_out.c_str());
      return 2;
    }
    if (opt.metrics_interval <= 0) opt.metrics_interval = 1.0;
  } else if (opt.metrics_interval > 0) {
    std::fprintf(stderr,
                 "warning: --metrics-interval without --metrics-series-out "
                 "has no effect\n");
  }

  const TimePoint t0 = realnet::mono_now();
  cluster.set_measurement_window(t0 + Duration::from_seconds_f(opt.warmup),
                                 t0 + Duration::from_seconds_f(opt.seconds));
  cluster.start();

  if (opt.real.telemetry) {
    std::printf("telemetry:");
    for (std::uint32_t i = 0; i < cluster.n(); ++i) {
      std::printf(" r%u=http://127.0.0.1:%u", i, cluster.telemetry_port(i));
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  // Drive the wall clock: sleep in short slices, firing any scheduled
  // kill/relaunch events as their times pass and appending metric-series
  // samples on their own cadence.
  bool relaunch_ok = true;
  const TimePoint end = t0 + Duration::from_seconds_f(opt.seconds);
  double next_sample = opt.metrics_interval;
  while (realnet::mono_now() < end) {
    const double elapsed = (realnet::mono_now() - t0).as_seconds_f();
    if (series.is_open() && elapsed >= next_sample) {
      obs::MetricsRegistry snap = cluster.sample_metrics();
      series << obs::metrics_series_line(elapsed, snap) << '\n';
      series.flush();
      next_sample += opt.metrics_interval;
    }
    for (CrashEvent& e : opt.events) {
      if (e.done || elapsed < e.at_seconds) continue;
      e.done = true;
      if (e.relaunch) {
        if (Status s = cluster.relaunch_replica(e.replica); !s.is_ok()) {
          std::fprintf(stderr, "relaunch %u failed: %s\n", e.replica,
                       s.message().c_str());
          relaunch_ok = false;
        } else if (!cluster.replica(e.replica).recovered()) {
          std::fprintf(stderr,
                       "relaunch %u came back with no recovered state\n",
                       e.replica);
          relaunch_ok = false;
        } else {
          std::fprintf(stderr, "[%.3fs] relaunched replica %u (recovered)\n",
                       elapsed, e.replica);
        }
      } else {
        cluster.kill_replica(e.replica);
        std::fprintf(stderr, "[%.3fs] killed replica %u\n", elapsed,
                     e.replica);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  cluster.stop();

  net::NodeNetStats wire;
  for (std::uint32_t id = 0; id < cluster.n() + cluster.client_count(); ++id) {
    wire += cluster.node_stats(id);
  }

  const bool safety_ok = !cluster.any_safety_violation();
  const bool consistent = cluster.committed_heights_consistent();
  const std::uint64_t completed = cluster.total_completed();

  std::printf(
      "protocol=%s n=%u clients=%u window=%u seconds=%.1f\n"
      "throughput: %.1f ops/s  latency p50/p99: %.2f/%.2f ms  mean %.2f ms\n"
      "completed: %llu ops  min committed height: %llu  safety: %s  "
      "consistent: %s\n"
      "wire: %.2f MB sent, %.2f MB delivered, %llu dropped\n",
      opt.cluster.consensus.protocol == runtime::ProtocolKind::kMarlin
          ? "marlin"
          : "hotstuff",
      cluster.n(), cluster.client_count(), opt.cluster.clients.window,
      opt.seconds, cluster.client_throughput(), cluster.latency_ms(50),
      cluster.latency_ms(99), cluster.mean_latency_ms(),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(cluster.min_committed_height()),
      safety_ok ? "ok" : "VIOLATED", consistent ? "yes" : "NO",
      wire.bytes_sent / 1e6, wire.bytes_delivered / 1e6,
      static_cast<unsigned long long>(wire.messages_dropped));
  std::printf("%-8s %10s %12s %14s %10s %8s %8s %10s\n", "replica", "height",
              "bytes_out", "bytes_in", "q_hw", "dropped", "redials",
              "recovered");
  for (std::uint32_t i = 0; i < cluster.n(); ++i) {
    const net::NodeNetStats& s = cluster.node_stats(i);
    const realnet::TcpTransport& t = cluster.transport(i);
    std::printf("r%-7u %10llu %12llu %14llu %10llu %8llu %8llu %10s\n", i,
                static_cast<unsigned long long>(
                    cluster.replica(i).protocol().committed_height()),
                static_cast<unsigned long long>(s.bytes_sent),
                static_cast<unsigned long long>(s.bytes_delivered),
                static_cast<unsigned long long>(t.egress_high_water_bytes()),
                static_cast<unsigned long long>(
                    t.frames_dropped_backpressure() +
                    t.frames_dropped_no_peer() +
                    t.frames_dropped_peer_down()),
                static_cast<unsigned long long>(t.redials_scheduled()),
                cluster.replica(i).recovered() ? "yes" : "-");
  }

  if (!opt.metrics_out.empty()) {
    if (!obs::write_text_file(opt.metrics_out,
                              metrics_json(cluster, opt, wire, relaunch_ok))) {
      std::fprintf(stderr, "failed to write %s\n", opt.metrics_out.c_str());
      return 2;
    }
  }
  if (!opt.metrics_prom_out.empty()) {
    obs::MetricsRegistry snap = cluster.sample_metrics();
    if (!obs::write_text_file(opt.metrics_prom_out,
                              obs::metrics_to_prometheus(snap))) {
      std::fprintf(stderr, "failed to write %s\n",
                   opt.metrics_prom_out.c_str());
      return 2;
    }
  }
  if (!opt.trace_out.empty()) {
    std::string jsonl;
    for (const obs::TraceEvent& e : cluster.merged_trace_events()) {
      jsonl += obs::event_to_json(e);
      jsonl += '\n';
    }
    if (!obs::write_text_file(opt.trace_out, jsonl)) {
      std::fprintf(stderr, "failed to write %s\n", opt.trace_out.c_str());
      return 2;
    }
  }

  if (!safety_ok || !consistent || !relaunch_ok) return 1;
  if (opt.min_commits > 0 && completed < opt.min_commits) {
    std::fprintf(stderr, "only %llu ops committed (--min-commits=%llu)\n",
                 static_cast<unsigned long long>(completed),
                 static_cast<unsigned long long>(opt.min_commits));
    return 1;
  }
  return 0;
}
