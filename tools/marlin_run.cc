// marlin_run — run a BFT cluster experiment on real 127.0.0.1 TCP
// (--backend=metal, the default: replica and client threads on the
// monotonic clock) or on the deterministic simulator (--backend=sim: a
// calibrated network and CPU cost model on a virtual clock). Both run one
// consensus core from one runtime::ClusterConfig and share this tool's
// flag table, metrology, summary, series sampler and trace outputs.
//
//   marlin_run --f=1 --clients=4 --seconds=5 --metrics-out=run.prom
//   marlin_run --f=1 --data-dir=/tmp/run1 --kill=2@1.5 --relaunch=2@3
//   marlin_run --backend=sim --protocol=hotstuff --crash-leader-at=5
//   marlin_run --backend=sim --f=33 --clients=64 --shards=8 --seconds=10
//
// --config takes JSON whose field names mirror ClusterConfig, e.g.
// {"f": 1, "clients": {"count": 4}, "pacemaker": {"base_timeout_ms": 500}};
// flags override it. The sim fault flags compile into one FaultPlan, so a
// faulty run replays from its (seed, plan) pair. --shards=K > 1 runs the
// partitioned engine (docs/SCALING.md), invariant across K and --workers.
//
// Exits 1 on a safety violation, inconsistent commit prefixes, a relaunch
// that did not recover, or (with --min-commits) too few in-window ops; 2 on
// flag and I/O errors.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli_flags.h"
#include "common/json.h"
#include "obs/critical_path.h"
#include "obs/export.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "realnet/real_cluster.h"
#include "runtime/cluster.h"
#include "simnet/sharded.h"

using namespace marlin;
using runtime::ClusterConfig;
using runtime::ProtocolKind;

namespace {

enum class Backend { kSim, kMetal };

/// The one flag table: --help prints it, and a flag that names a backend
/// is rejected on the other.
struct Flag {
  const char* usage;  // "--name" or "--name=VALUE"
  const char* only;   // "sim", "metal", or null for both
  const char* help;

  std::string name() const {
    const std::string u = usage;
    return u.substr(0, u.find('='));
  }
};

constexpr Flag kFlags[] = {
    {"--help", nullptr, "print this table"},
    {"--backend=metal|sim", nullptr, "127.0.0.1 TCP (default) or simulator"},
    {"--config=PATH", nullptr, "JSON ClusterConfig; flags override it"},
    {"--protocol=marlin|hotstuff", nullptr, "consensus protocol (marlin)"},
    {"--f=N", nullptr, "fault threshold; n = 3f+1 (1)"},
    {"--clients=N", nullptr, "closed-loop clients (metal 4, sim 8)"},
    {"--window=N", nullptr, "outstanding requests per client (16)"},
    {"--payload=BYTES", nullptr, "request payload size (150; 0 = no-op)"},
    {"--batch=N", nullptr, "max ops per block (4000)"},
    {"--pipelined=0|1", nullptr, "chained pipelining (1)"},
    {"--threshold-sigs", nullptr, "constant-size threshold QCs"},
    {"--unhappy-vc", nullptr, "disable Marlin's happy-path view change"},
    {"--rotate=MS", nullptr, "rotating-leader mode, interval in ms"},
    {"--timeout-ms=N", nullptr, "view timeout (metal 500 +-20%, sim 2000)"},
    {"--timeout-per-replica-ms=N", nullptr, "add N ms per replica"},
    {"--seconds=S", nullptr, "duration, wall or simulated (metal 5, sim 20)"},
    {"--warmup=S", nullptr, "window start (metal 0.5, sim 20% of --seconds)"},
    {"--seed=N", nullptr, "keys and payloads (metal 7, sim 42)"},
    {"--min-commits=N", nullptr, "exit 1 unless N ops complete in window"},
    {"--trace-out=PATH", nullptr, "protocol trace as JSONL"},
    {"--spans-out=PATH", nullptr, "block spans as Chrome trace JSON"},
    {"--critical-path", nullptr, "print the per-block critical path"},
    {"--timeline", nullptr, "print a per-view activity timeline"},
    {"--metrics-out=PATH", nullptr, "final metrics: .csv, .prom, else JSON"},
    {"--metrics-series-out=PATH", nullptr, "JSONL metric snapshots"},
    {"--metrics-interval=S", nullptr, "series sampling period (1)"},
    {"--shards=K", "sim", "partitioned engine with K shards (1)"},
    {"--workers=N", "sim", "threads for --shards>1 (one per core)"},
    {"--delay-ms=N", "sim", "one-way network delay (40)"},
    {"--link-mbps=N", "sim", "per-link bandwidth (200)"},
    {"--nic-mbps=N", "sim", "per-NIC bandwidth (1000)"},
    {"--drop=P", "sim", "message drop probability (0)"},
    {"--crash-leader-at=S", "sim", "crash the current leader at S"},
    {"--crashes=N", "sim", "crash N replicas at start"},
    {"--faults=PATH", "sim", "JSON fault plan (docs/FAULTS.md)"},
    {"--data-dir=PATH", "metal", "durable stores under PATH/r<i>"},
    {"--kill=I@S", "metal", "hard-kill replica I at S seconds"},
    {"--relaunch=I@S", "metal", "relaunch replica I from its data dir"},
    {"--telemetry", "metal", "live /metrics /status /healthz per replica"},
    {"--telemetry-port=P", "metal", "replica i serves on port P+i"},
};

struct CrashEvent {
  ReplicaId replica = 0;
  double at_seconds = 0;
  bool relaunch = false;  // false = kill
  bool done = false;
};

struct Options {
  Backend backend = Backend::kMetal;
  ClusterConfig cluster;
  double seconds = 0;             // the backend's default
  double warmup = -1;             // <0 = the backend's default
  std::uint64_t min_commits = 0;  // exit 1 below this (0 = no gate)
  std::string config_path;
  // sim only
  std::uint32_t shards = 1;     // 1 = legacy single-queue engine
  std::uint32_t workers = 0;    // sharded engine: 0 = one per core
  double crash_leader_at = -1;  // seconds; <0 = never
  std::uint32_t crashes = 0;    // replicas crashed at start
  std::string faults_path;
  // metal only
  realnet::RealClusterOptions real;
  std::vector<CrashEvent> events;
  // outputs
  std::string trace_out;
  std::string spans_out;
  std::string metrics_out;
  std::string metrics_series_out;
  double metrics_interval = 0;  // 0 = 1 s when a series is written
  bool critical_path = false;
  bool timeline = false;
  bool help = false;

  bool wants_trace() const {
    return !trace_out.empty() || !spans_out.empty() || critical_path ||
           timeline;
  }
};

void usage() {
  std::printf("marlin_run — run a BFT cluster on 127.0.0.1 TCP or the "
              "simulator\n\n");
  for (const Flag& f : kFlags) {
    std::printf("  %-28s %s", f.usage, f.help);
    if (f.only != nullptr) std::printf(" [%s only]", f.only);
    std::printf("\n");
  }
}

bool parse_protocol(const std::string& name, ProtocolKind* kind) {
  if (name != "marlin" && name != "hotstuff") return false;
  *kind = name == "marlin" ? ProtocolKind::kMarlin : ProtocolKind::kHotStuff;
  return true;
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

/// Reads `key` into a numeric field; an absent key keeps its value.
template <typename T>
void num(const json::Object& o, const char* key, T* field) {
  *field = static_cast<T>(json::get_num(o, key, static_cast<double>(*field)));
}

/// Reads `key`, in milliseconds, into a Duration field.
void millis(const json::Object& o, const char* key, Duration* field) {
  *field = Duration::micros(static_cast<std::int64_t>(
      1000.0 * json::get_num(o, key, field->as_millis_f())));
}

bool load_config(const std::string& path, ClusterConfig* cfg) {
  std::string body;
  if (!obs::read_text_file(path, &body)) {
    std::fprintf(stderr, "cannot read config %s\n", path.c_str());
    return false;
  }
  Result<json::Value> doc = json::parse(body);
  if (!doc.is_ok() || doc.value().object() == nullptr) {
    std::fprintf(stderr, "bad config %s: %s\n", path.c_str(),
                 doc.is_ok() ? "top level must be an object"
                             : doc.status().message().c_str());
    return false;
  }
  const json::Object& top = *doc.value().object();
  num(top, "f", &cfg->f);
  num(top, "seed", &cfg->seed);
  if (const std::string name = json::get_str(top, "protocol", "");
      !name.empty() && !parse_protocol(name, &cfg->consensus.protocol)) {
    std::fprintf(stderr, "bad config %s: unknown protocol '%s'\n",
                 path.c_str(), name.c_str());
    return false;
  }
  if (const json::Object* c = json::get_object(top, "clients")) {
    num(*c, "count", &cfg->clients.count);
    num(*c, "window", &cfg->clients.window);
    num(*c, "payload_size", &cfg->clients.payload_size);
    num(*c, "max_requests", &cfg->clients.max_requests);
    millis(*c, "retransmit_timeout_ms", &cfg->clients.retransmit_timeout);
  }
  if (const json::Object* p = json::get_object(top, "pacemaker")) {
    auto& pm = cfg->consensus.pacemaker;
    millis(*p, "base_timeout_ms", &pm.base_timeout);
    millis(*p, "max_timeout_ms", &pm.max_timeout);
    num(*p, "backoff_factor", &pm.backoff_factor);
    num(*p, "timeout_jitter", &pm.timeout_jitter);
    millis(*p, "base_timeout_per_replica_ms", &pm.base_timeout_per_replica);
  }
  if (const json::Object* c = json::get_object(top, "consensus")) {
    auto& cons = cfg->consensus;
    num(*c, "max_batch_ops", &cons.max_batch_ops);
    cons.pipelined = json::get_bool(*c, "pipelined", cons.pipelined);
    cons.allow_empty_blocks =
        json::get_bool(*c, "allow_empty_blocks", cons.allow_empty_blocks);
    num(*c, "checkpoint_interval", &cons.checkpoint_interval);
    num(*c, "reply_size", &cons.reply_size);
  }
  return true;
}

bool parse_options(int argc, char** argv, Options* opt) {
  // Pass 1 settles what every other flag overrides, whatever the argument
  // order: the backend (and with it the defaults) and --config.
  cli::ArgCursor scan(argc, argv);
  while (scan.next()) {
    std::string v;
    if (scan.str("--backend", &v)) {
      if (v == "sim" || v == "metal") {
        opt->backend = v == "sim" ? Backend::kSim : Backend::kMetal;
      } else if (scan.ok()) {  // a missing value is already reported
        scan.fail_value("--backend", v, "sim|metal");
      }
    } else if (scan.str("--config", &v)) {
      opt->config_path = v;
    }
  }
  if (!scan.ok()) return false;
  if (opt->backend == Backend::kSim) {
    opt->seconds = 20;  // ClusterConfig's defaults are the simulator's
  } else {
    // Real-clock defaults: the sim's 2 s pacemaker base would make a 5 s
    // localhost run mostly silence after any hiccup.
    opt->seconds = 5;
    opt->warmup = 0.5;
    opt->cluster.seed = 7;
    opt->cluster.clients.count = 4;
    opt->cluster.consensus.pacemaker.base_timeout = Duration::millis(500);
    opt->cluster.consensus.pacemaker.timeout_jitter = 0.2;
  }
  if (!opt->config_path.empty() &&
      !load_config(opt->config_path, &opt->cluster)) {
    return false;
  }

  const std::string backend = opt->backend == Backend::kSim ? "sim" : "metal";
  cli::ArgCursor args(argc, argv);
  runtime::ConsensusConfig& cons = opt->cluster.consensus;
  runtime::ClientConfig& clients = opt->cluster.clients;
  sim::NetConfig& net = opt->cluster.net;
  while (args.next()) {
    for (const Flag& f : kFlags) {
      if (f.only != nullptr && f.only != backend &&
          args.flag(f.name().c_str())) {
        std::fprintf(stderr, "%s applies only to --backend=%s\n",
                     f.name().c_str(), f.only);
        return false;
      }
    }
    std::string v;
    Duration ms;
    double mbps = 0;
    if (args.flag("--help")) {
      opt->help = true;
    } else if (args.str("--backend", &v) || args.str("--config", &v)) {
      // pass 1
    } else if (args.str("--protocol", &v)) {
      if (!parse_protocol(v, &cons.protocol)) {
        args.fail_value("--protocol", v, "marlin|hotstuff");
      }
    } else if (args.u32("--f", &opt->cluster.f)) {
    } else if (args.u32("--clients", &clients.count)) {
    } else if (args.u32("--window", &clients.window)) {
    } else if (args.size("--payload", &clients.payload_size)) {
    } else if (args.size("--batch", &cons.max_batch_ops)) {
    } else if (args.str("--pipelined", &v)) {
      cons.pipelined = v != "0";
    } else if (args.flag("--threshold-sigs")) {
      cons.use_threshold_sigs = true;
    } else if (args.flag("--unhappy-vc")) {
      cons.disable_happy_path = true;
    } else if (args.millis("--rotate", &ms)) {
      cons.pacemaker.rotate_on_timer = true;
      cons.pacemaker.rotation_interval = ms;
    } else if (args.millis("--timeout-ms", &cons.pacemaker.base_timeout)) {
    } else if (args.millis("--timeout-per-replica-ms",
                           &cons.pacemaker.base_timeout_per_replica)) {
    } else if (args.f64("--seconds", &opt->seconds)) {
    } else if (args.f64("--warmup", &opt->warmup)) {
    } else if (args.u64("--seed", &opt->cluster.seed)) {
    } else if (args.u64("--min-commits", &opt->min_commits)) {
    } else if (args.str("--trace-out", &opt->trace_out)) {
    } else if (args.str("--spans-out", &opt->spans_out)) {
    } else if (args.flag("--critical-path")) {
      opt->critical_path = true;
    } else if (args.flag("--timeline")) {
      opt->timeline = true;
    } else if (args.str("--metrics-out", &opt->metrics_out)) {
    } else if (args.str("--metrics-series-out", &opt->metrics_series_out)) {
    } else if (args.f64("--metrics-interval", &opt->metrics_interval)) {
    } else if (args.u32("--shards", &opt->shards)) {
    } else if (args.u32("--workers", &opt->workers)) {
    } else if (args.millis("--delay-ms", &net.one_way_delay)) {
    } else if (args.f64("--link-mbps", &mbps)) {
      net.link_bandwidth_bps = mbps * 1e6;
    } else if (args.f64("--nic-mbps", &mbps)) {
      net.nic_bandwidth_bps = mbps * 1e6;
    } else if (args.f64("--drop", &net.drop_probability)) {
    } else if (args.f64("--crash-leader-at", &opt->crash_leader_at)) {
    } else if (args.u32("--crashes", &opt->crashes)) {
    } else if (args.str("--faults", &opt->faults_path)) {
    } else if (args.str("--data-dir", &opt->real.data_dir)) {
    } else if (args.str("--kill", &v)) {
      if (!parse_crash(v, /*relaunch=*/false, opt)) return false;
    } else if (args.str("--relaunch", &v)) {
      if (!parse_crash(v, /*relaunch=*/true, opt)) return false;
    } else if (args.flag("--telemetry")) {
      opt->real.telemetry = true;
    } else if (args.u16("--telemetry-port", &opt->real.telemetry_base_port)) {
      opt->real.telemetry = true;
    } else {
      args.fail_unknown();
    }
  }
  if (!args.ok()) return false;

  if (opt->warmup < 0) opt->warmup = opt->seconds * 0.2;
  if (opt->shards > 1 && net.one_way_delay <= Duration::zero()) {
    std::fprintf(stderr,
                 "--shards=%u requires a positive --delay-ms (the one-way "
                 "delay is the engine's lookahead window)\n",
                 opt->shards);
    return false;
  }
  const std::uint32_t n = 3 * opt->cluster.f + 1;
  for (const CrashEvent& e : opt->events) {
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
  if (opt->metrics_series_out.empty() && opt->metrics_interval > 0) {
    std::fprintf(stderr,
                 "warning: --metrics-interval without --metrics-series-out "
                 "has no effect\n");
  }
  return true;
}

// ---------------------------------------------------------------------------
// The one run path
// ---------------------------------------------------------------------------

/// One backend's cluster as the shared run path sees it: its metrology,
/// how its clock moves, and how to read its state.
struct Run {
  const runtime::ClusterMetrology* meter = nullptr;
  std::string engine;  // summary header
  /// Moves the run to `t` seconds after its start and returns the clock
  /// reading reached: run_until on the simulator; on metal, sleep, firing
  /// each kill or relaunch as its time passes.
  std::function<double(double t)> advance_to;
  /// Runs to the end and drains. False when a relaunch did not recover.
  std::function<bool()> finish;
  std::function<obs::MetricsRegistry()> metrics;
  std::function<std::vector<obs::TraceEvent>()> trace;
  std::function<std::uint64_t()> trace_evicted;
};

bool write_output(const std::string& path, const std::string& body) {
  if (obs::write_text_file(path, body)) return true;
  std::fprintf(stderr, "failed to write %s\n", path.c_str());
  return false;
}

/// Prints the run's summary; wire bytes come from the metrics snapshot,
/// whose net.* names both backends share.
void print_summary(const Options& opt, const Run& run,
                   const obs::MetricsRegistry& reg) {
  const runtime::ClusterMetrology& m = *run.meter;
  const runtime::ConsensusConfig& cons = opt.cluster.consensus;
  const std::uint32_t n = 3 * opt.cluster.f + 1;
  const auto wire = [&reg](const char* name, ReplicaId r) {
    const auto it = reg.counters().find(
        obs::MetricKey{name, "node=" + std::to_string(r)});
    return it == reg.counters().end() ? 0ull : it->second;
  };
  unsigned long long sent = 0;
  unsigned long long delivered = 0;
  for (ReplicaId r = 0; r < n; ++r) {
    sent += wire("net.bytes_sent", r);
    delivered += wire("net.bytes_delivered", r);
  }

  std::printf("\n%s  f=%u (n=%u)  %s  %s%s%s\n",
              cons.protocol == ProtocolKind::kMarlin ? "MARLIN" : "HOTSTUFF",
              opt.cluster.f, n, run.engine.c_str(),
              cons.pacemaker.rotate_on_timer ? "rotating " : "",
              cons.use_threshold_sigs ? "threshold-sigs " : "",
              cons.disable_happy_path ? "unhappy-vc" : "");
  std::printf("  throughput:  %.1f ops/s (window %.1fs-%.1fs)\n",
              m.client_throughput(), opt.warmup, opt.seconds);
  std::printf("  latency:     mean %.2f ms, p50 %.2f, p95 %.2f, p99 %.2f\n",
              m.mean_latency_ms(), m.latency_ms(50), m.latency_ms(95),
              m.latency_ms(99));
  std::printf("  completed:   %llu ops in window, min committed height %llu\n",
              static_cast<unsigned long long>(m.total_completed()),
              static_cast<unsigned long long>(m.min_committed_height()));
  std::printf("  replica wire: %.2f MB sent, %.2f MB delivered\n",
              sent / 1e6, delivered / 1e6);
  std::printf("  %-8s %-8s %-10s %-12s %-12s %s\n", "replica", "view",
              "height", "bytes_out", "bytes_in", "state");
  for (ReplicaId r = 0; r < n; ++r) {
    const runtime::ReplicaHost* host = m.replica_host(r);
    if (host == nullptr) {
      std::printf("  %-8u (no host)\n", r);
      continue;
    }
    std::printf("  %-8u %-8llu %-10llu %-12llu %-12llu %s\n", r,
                static_cast<unsigned long long>(host->current_view()),
                static_cast<unsigned long long>(
                    host->protocol().committed_height()),
                wire("net.bytes_sent", r), wire("net.bytes_delivered", r),
                !m.counted(r)       ? "crashed"
                : host->recovered() ? "recovered"
                                    : "-");
  }
  const bool safe =
      !m.any_safety_violation() && m.committed_heights_consistent();
  std::printf("  safety:      %s\n", safe ? "ok" : "VIOLATED");
}

/// The trace consumers, over either backend's merged events.
bool write_trace_outputs(const Options& opt, const Run& run) {
  const std::vector<obs::TraceEvent> events = run.trace();
  if (const std::uint64_t evicted = run.trace_evicted(); evicted > 0) {
    // Each node's ring holds its events from its oldest survivor on, so
    // the outputs describe every node only from the latest of those.
    std::map<std::uint32_t, TimePoint> oldest;
    TimePoint first = events.empty() ? TimePoint{} : events.front().at;
    TimePoint last = first;
    for (const obs::TraceEvent& e : events) {
      auto [it, fresh] = oldest.try_emplace(e.node, e.at);
      if (!fresh) it->second = std::min(it->second, e.at);
      first = std::min(first, e.at);
      last = std::max(last, e.at);
    }
    TimePoint whole = first;
    for (const auto& [node, at] : oldest) whole = std::max(whole, at);
    std::fprintf(stderr,
                 "warning: trace ring overflowed; oldest %llu events lost; "
                 "the trace covers every node only from %.3f s to %.3f s "
                 "after its first event\n",
                 static_cast<unsigned long long>(evicted),
                 (whole - first).as_seconds_f(),
                 (last - first).as_seconds_f());
  }
  if (opt.timeline) {
    std::printf("\n");
    obs::print_view_timeline(events, std::cout);
  }
  if (!opt.spans_out.empty()) {
    const auto spans = obs::build_spans(events);
    if (!write_output(opt.spans_out, obs::spans_to_chrome_json(spans))) {
      return false;
    }
    std::printf("  spans:   %zu blocks -> %s\n", spans.size(),
                opt.spans_out.c_str());
  }
  if (opt.critical_path) {
    std::printf("\n%s", obs::critical_path_report(events).c_str());
  }
  if (!opt.trace_out.empty()) {
    if (!write_output(opt.trace_out, obs::trace_to_jsonl(events))) {
      return false;
    }
    std::printf("  trace:   %zu events -> %s\n", events.size(),
                opt.trace_out.c_str());
  }
  return true;
}

/// Samples the series, finishes the run, reports and writes the outputs.
int drive(const Options& opt, const Run& run) {
  if (!opt.metrics_series_out.empty()) {
    std::ofstream series(opt.metrics_series_out, std::ios::trunc);
    if (!series) {
      std::fprintf(stderr, "cannot write %s\n",
                   opt.metrics_series_out.c_str());
      return 2;
    }
    const double step = opt.metrics_interval > 0 ? opt.metrics_interval : 1.0;
    for (double t = step; t < opt.seconds; t += step) {
      const double at = run.advance_to(t);
      series << obs::metrics_series_line(at, run.metrics()) << '\n'
             << std::flush;
    }
  }
  const bool relaunch_ok = run.finish();

  const obs::MetricsRegistry reg = run.metrics();
  print_summary(opt, run, reg);
  if (opt.wants_trace() && !write_trace_outputs(opt, run)) return 2;
  if (!opt.metrics_out.empty()) {
    // The file extension picks the format.
    const std::string& path = opt.metrics_out;
    const std::string ext = path.substr(path.find_last_of('.') + 1);
    if (!write_output(path, ext == "csv"    ? obs::metrics_to_csv(reg)
                            : ext == "prom" ? obs::metrics_to_prometheus(reg)
                                            : obs::metrics_to_json(reg))) {
      return 2;
    }
    std::printf("  metrics: %s\n", path.c_str());
  }

  const runtime::ClusterMetrology& m = *run.meter;
  if (m.any_safety_violation() || !m.committed_heights_consistent() ||
      !relaunch_ok) {
    return 1;
  }
  if (const std::uint64_t done = m.total_completed(); done < opt.min_commits) {
    std::fprintf(stderr, "only %llu ops committed (--min-commits=%llu)\n",
                 static_cast<unsigned long long>(done),
                 static_cast<unsigned long long>(opt.min_commits));
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// The two backends
// ---------------------------------------------------------------------------

int run_sim(Options& opt) {
  // Every fault flag compiles into the cluster's one FaultPlan.
  if (!opt.faults_path.empty()) {
    std::string body;
    if (!obs::read_text_file(opt.faults_path, &body)) {
      std::fprintf(stderr, "cannot read fault plan %s\n",
                   opt.faults_path.c_str());
      return 2;
    }
    auto plan = faults::FaultPlan::from_json(body);
    if (!plan.is_ok()) {
      std::fprintf(stderr, "bad fault plan %s: %s\n", opt.faults_path.c_str(),
                   plan.status().message().c_str());
      return 2;
    }
    opt.cluster.faults = std::move(plan).take();
  }
  const std::uint32_t n = 3 * opt.cluster.f + 1;
  for (std::uint32_t i = 0; i < opt.crashes && i < n; ++i) {
    // Spread victims; skip the view-1 leader so the run bootstraps.
    opt.cluster.faults.actions.push_back(
        faults::FaultAction::crash(Duration::zero(), (2 + 3 * i) % n));
  }
  if (opt.crash_leader_at >= 0) {
    opt.cluster.faults.actions.push_back(faults::FaultAction::crash_leader(
        Duration::from_seconds_f(opt.crash_leader_at)));
  }

  // Authenticator counting only reads outgoing messages, never changing
  // simulated behavior, so traced runs get it for free.
  obs::TraceSink trace{1 << 18};
  opt.cluster.count_authenticators = opt.wants_trace();
  std::optional<sim::Simulator> simulator;
  std::optional<sim::ShardedSimulator> sharded;
  std::optional<runtime::Cluster> cluster;
  if (opt.shards > 1) {
    sim::ShardedSimulator::Config ecfg;
    ecfg.seed = opt.cluster.seed;
    ecfg.shards = opt.shards;
    ecfg.workers = opt.workers;
    ecfg.lookahead = opt.cluster.net.one_way_delay;
    sharded.emplace(ecfg);
    if (opt.wants_trace()) sharded->enable_tracing(1 << 18);
    cluster.emplace(*sharded, opt.cluster);
  } else {
    if (opt.wants_trace()) opt.cluster.trace = &trace;
    simulator.emplace(opt.cluster.seed);
    cluster.emplace(*simulator, opt.cluster);
  }
  const auto run_to = [&](TimePoint t) {
    simulator ? simulator->run_until(t) : sharded->run_until(t);
  };
  const TimePoint end =
      TimePoint::origin() + Duration::from_seconds_f(opt.seconds);
  cluster->set_measurement_window(
      TimePoint::origin() + Duration::from_seconds_f(opt.warmup), end);
  cluster->start();

  Run run;
  run.meter = &*cluster;
  run.engine = "sim";
  if (sharded) {
    run.engine += ": " + std::to_string(sharded->shards()) + " shards x " +
                  std::to_string(sharded->workers()) + " workers (lookahead " +
                  sharded->lookahead().to_string() + ")";
  }
  // On the sharded engine samples land at window barriers, where the
  // cluster is quiescent: the series is bit-deterministic from the seed.
  run.advance_to = [&](double t) {
    const TimePoint at = TimePoint::origin() + Duration::from_seconds_f(t);
    run_to(at);
    return at.as_seconds_f();
  };
  run.finish = [&] {
    run_to(end + Duration::seconds(1));
    for (const auto& a : cluster->faults().log()) {
      std::printf("[t=%.1fs] fault: %s", a.at.as_seconds_f(),
                  faults::fault_kind_name(a.kind));
      if (a.target != kNoReplica) std::printf(" replica %u", a.target);
      std::printf(" (view %llu)\n", static_cast<unsigned long long>(a.view));
    }
    return true;
  };
  run.metrics = [&] {
    obs::MetricsRegistry reg;
    cluster->export_metrics(reg);
    return reg;
  };
  run.trace = [&] {
    return simulator ? trace.events() : sharded->merged_trace();
  };
  run.trace_evicted = [&] {
    std::uint64_t evicted = trace.evicted();
    for (std::uint32_t s = 0; sharded && s < sharded->shards(); ++s) {
      evicted += sharded->shard_trace(s)->evicted();
    }
    return evicted;
  };
  return drive(opt, run);
}

/// Executes one scheduled kill or relaunch; false when a relaunch failed
/// or came back without its recovered state.
bool fire(realnet::RealCluster& cluster, const CrashEvent& e, double now) {
  if (!e.relaunch) {
    cluster.kill_replica(e.replica);
    std::fprintf(stderr, "[%.3fs] killed replica %u\n", now, e.replica);
    return true;
  }
  if (Status s = cluster.relaunch_replica(e.replica); !s.is_ok()) {
    std::fprintf(stderr, "relaunch %u failed: %s\n", e.replica,
                 s.message().c_str());
    return false;
  }
  if (!cluster.replica(e.replica).recovered()) {
    std::fprintf(stderr, "relaunch %u came back with no recovered state\n",
                 e.replica);
    return false;
  }
  std::fprintf(stderr, "[%.3fs] relaunched replica %u (recovered)\n", now,
               e.replica);
  return true;
}

/// Events a metal node may record per second of a loaded run (the leader
/// of a 2 s n=4 run with two clients records about 10^5), and the cap on
/// one node's ring: 4 Mi events of 72 B, about 300 MB. Rings grow on
/// demand, so a run that records less allocates less.
constexpr double kMetalTraceEventsPerSecond = 250'000;
constexpr std::size_t kMetalTraceCapacityCap = std::size_t{4} << 20;

int run_metal(Options& opt) {
  opt.real.trace = opt.wants_trace();
  // Size each node's ring for the whole run, so the trace outputs describe
  // all of it rather than its tail.
  opt.real.trace_capacity = std::max(
      obs::TraceSink::kDefaultCapacity,
      static_cast<std::size_t>(
          std::min<double>(kMetalTraceCapacityCap,
                           (opt.seconds + 1) * kMetalTraceEventsPerSecond)));
  realnet::RealCluster cluster(opt.cluster, opt.real);
  if (!cluster.ok().is_ok()) {
    std::fprintf(stderr, "cluster init failed: %s\n",
                 cluster.ok().message().c_str());
    return 2;
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

  bool relaunch_ok = true;
  Run run;
  run.meter = &cluster;
  run.engine = "metal: 127.0.0.1 TCP";
  run.advance_to = [&](double t) {
    for (;;) {
      const double now = (realnet::mono_now() - t0).as_seconds_f();
      for (CrashEvent& e : opt.events) {
        if (e.done || now < e.at_seconds) continue;
        e.done = true;
        relaunch_ok = fire(cluster, e, now) && relaunch_ok;
      }
      if (now >= t) return now;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  };
  run.finish = [&] {
    run.advance_to(opt.seconds);
    cluster.stop();
    return relaunch_ok;
  };
  run.metrics = [&] { return cluster.sample_metrics(); };
  run.trace = [&] { return cluster.merged_trace_events(); };
  run.trace_evicted = [&] { return cluster.trace_evicted(); };
  return drive(opt, run);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, &opt)) return 2;
  if (opt.help) {
    usage();
    return 0;
  }
  return opt.backend == Backend::kSim ? run_sim(opt) : run_metal(opt);
}
