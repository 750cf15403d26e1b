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
// flags override it. The fault flags of either backend compile into one
// FaultPlan (--kill paired with a later --relaunch of the same replica is a
// restart), so a faulty sim run replays from its (seed, plan) pair. Both
// backends run runtime::run_experiment. --shards=K > 1 runs the
// partitioned engine (docs/SCALING.md), invariant across K and --workers.
//
// Exits 1 on a safety violation, inconsistent commit prefixes, a relaunch
// that did not recover, or (with --min-commits) too few in-window ops; 2 on
// flag and I/O errors.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "common/json.h"
#include "obs/critical_path.h"
#include "obs/export.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "realnet/metal_deployment.h"
#include "runtime/experiment.h"

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

/// Adds a --kill to the run's plan as a crash; a --relaunch turns the
/// latest earlier --kill of its replica into one restart action.
bool parse_crash(const std::string& v, bool relaunch, Options* opt) {
  unsigned replica = 0;
  double at = 0;
  if (std::sscanf(v.c_str(), "%u@%lf", &replica, &at) != 2) {
    std::fprintf(stderr, "bad %s spec '%s' (want I@SECONDS)\n",
                 relaunch ? "--relaunch" : "--kill", v.c_str());
    return false;
  }
  const Duration when = Duration::from_seconds_f(at);
  auto& actions = opt->cluster.faults.actions;
  if (!relaunch) {
    actions.push_back(faults::FaultAction::crash(when, replica));
    return true;
  }
  const auto kill =
      std::find_if(actions.rbegin(), actions.rend(), [&](const auto& a) {
        return a.kind == faults::FaultKind::kCrash && a.replica == replica &&
               a.at <= when;
      });
  if (kill == actions.rend()) {
    std::fprintf(stderr, "--relaunch=%s has no earlier --kill of replica %u\n",
                 v.c_str(), replica);
    return false;
  }
  *kill = faults::FaultAction::restart(kill->at, replica, when - kill->at);
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
  for (const faults::FaultAction& a : opt->cluster.faults.actions) {
    if (a.replica >= n) {
      std::fprintf(stderr, "--kill replica %u out of range (n=%u)\n",
                   a.replica, n);
      return false;
    }
    if (a.kind == faults::FaultKind::kRestart && opt->real.data_dir.empty()) {
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
// Reporting
// ---------------------------------------------------------------------------

bool write_output(const std::string& path, const std::string& body) {
  if (obs::write_text_file(path, body)) return true;
  std::fprintf(stderr, "failed to write %s\n", path.c_str());
  return false;
}

/// Prints the run's summary; wire bytes come from the metrics snapshot,
/// whose net.* names both backends share.
void print_summary(const Options& opt, const runtime::Deployment& run,
                   const obs::MetricsRegistry& reg) {
  const runtime::ClusterMetrology& m = run.meter();
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
              opt.cluster.f, n, run.engine().c_str(),
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
bool write_trace_outputs(const Options& opt, runtime::Deployment& run) {
  Result<std::vector<obs::TraceEvent>> traced = run.trace();
  if (!traced.is_ok()) {
    std::fprintf(stderr, "trace: %s\n", traced.status().message().c_str());
    return false;
  }
  const std::vector<obs::TraceEvent> events = std::move(traced).take();
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

/// Prints the fault actions that fired: the simulator's plan log, or
/// metal's kills and relaunches.
void print_faults(const Options& opt, const runtime::Deployment& run,
                  const runtime::ExperimentReport& rep) {
  for (const faults::ExecutedAction& a : rep.fault_log) {
    if (opt.backend == Backend::kSim) {
      std::printf("[t=%.1fs] fault: %s", a.at.as_seconds_f(),
                  faults::fault_kind_name(a.kind));
      if (a.target != kNoReplica) std::printf(" replica %u", a.target);
      std::printf(" (view %llu)\n", static_cast<unsigned long long>(a.view));
      continue;
    }
    std::fprintf(stderr, "[%.3fs] killed replica %u\n", a.at.as_seconds_f(),
                 a.target);
    const double back =
        (a.at + opt.cluster.faults.actions[a.index].duration).as_seconds_f();
    const runtime::ReplicaHost* host = run.meter().replica_host(a.target);
    if (a.kind == faults::FaultKind::kRestart && back <= opt.seconds &&
        host != nullptr && host->recovered()) {
      std::fprintf(stderr, "[%.3fs] relaunched replica %u (recovered)\n", back,
                   a.target);
    }
  }
  if (!rep.status.is_ok()) {
    std::fprintf(stderr, "%s\n", rep.status.message().c_str());
  }
}

/// Events a metal node may record per second of a loaded run (the leader
/// of a 2 s n=4 run with two clients records about 10^5), and the cap on
/// one node's ring: 4 Mi events of 72 B, about 300 MB. Rings grow on
/// demand, so a run that records less allocates less.
constexpr double kMetalTraceEventsPerSecond = 250'000;
constexpr std::size_t kMetalTraceCapacityCap = std::size_t{4} << 20;

/// Builds the backend's deployment, runs the experiment procedure on it,
/// then reports and writes the outputs.
int run(Options& opt) {
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

  std::ofstream series;
  if (!opt.metrics_series_out.empty()) {
    series.open(opt.metrics_series_out, std::ios::trunc);
    if (!series) {
      std::fprintf(stderr, "cannot write %s\n",
                   opt.metrics_series_out.c_str());
      return 2;
    }
  }
  obs::MetricsRegistry reg;
  runtime::ExperimentOptions exp;
  exp.warmup = Duration::from_seconds_f(opt.warmup);
  exp.measure = Duration::from_seconds_f(opt.seconds) - exp.warmup;
  exp.drain = opt.backend == Backend::kSim ? Duration::seconds(1)
                                           : Duration::zero();
  exp.metrics = &reg;
  exp.shards = opt.shards;
  exp.workers = opt.workers;
  if (series.is_open()) {
    exp.sample_every = Duration::from_seconds_f(
        opt.metrics_interval > 0 ? opt.metrics_interval : 1.0);
    exp.on_sample = [&series](Duration at, const obs::MetricsRegistry& m) {
      series << obs::metrics_series_line(at.as_seconds_f(), m) << '\n'
             << std::flush;
    };
  }

  std::unique_ptr<runtime::Deployment> deployment;
  if (opt.backend == Backend::kSim) {
    // Authenticator counting only reads outgoing messages, never changing
    // simulated behavior, so traced runs get it for free.
    opt.cluster.count_authenticators = opt.wants_trace();
    exp.cluster = opt.cluster;
    deployment = std::make_unique<runtime::SimDeployment>(
        exp, opt.wants_trace() ? std::size_t{1} << 18 : 0);
  } else {
    opt.real.trace = opt.wants_trace();
    // Size each node's ring for the whole run, so the trace outputs
    // describe all of it rather than its tail.
    opt.real.trace_capacity = std::max(
        obs::TraceSink::kDefaultCapacity,
        static_cast<std::size_t>(
            std::min<double>(kMetalTraceCapacityCap,
                             (opt.seconds + 1) * kMetalTraceEventsPerSecond)));
    exp.cluster = opt.cluster;
    auto metal = std::make_unique<realnet::MetalDeployment>(exp, opt.real);
    if (!metal->ok().is_ok()) {
      std::fprintf(stderr, "cluster init failed: %s\n",
                   metal->ok().message().c_str());
      return 2;
    }
    if (opt.real.telemetry) {
      // Ports are bound at construction: print them before the run starts.
      std::printf("telemetry:");
      for (std::uint32_t i = 0; i < n; ++i) {
        std::printf(" r%u=http://127.0.0.1:%u", i,
                    metal->cluster()->telemetry_port(i));
      }
      std::printf("\n");
      std::fflush(stdout);
    }
    deployment = std::move(metal);
  }

  const runtime::ExperimentReport rep =
      runtime::run_experiment(exp, *deployment);
  print_faults(opt, *deployment, rep);
  print_summary(opt, *deployment, reg);
  if (opt.wants_trace() && !write_trace_outputs(opt, *deployment)) return 2;
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

  if (!rep.ok()) return 1;
  if (rep.total_completed < opt.min_commits) {
    std::fprintf(stderr, "only %llu ops committed (--min-commits=%llu)\n",
                 static_cast<unsigned long long>(rep.total_completed),
                 static_cast<unsigned long long>(opt.min_commits));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, &opt)) return 2;
  if (opt.help) {
    usage();
    return 0;
  }
  return run(opt);
}
