// bench_selfperf — measures the harness itself, not the protocol: how fast
// does the deterministic simulator execute events, and how many heap
// allocations does the hot path cost? Every experiment in this repo (the
// Fig. 10 matrices, the chaos sweeps, the n-scaling runs) is gated on these
// numbers, so the repo pins them as a perf trajectory.
//
//   bench_selfperf                         # full run, writes BENCH_selfperf.json
//   bench_selfperf --quick                 # ctest smoke (smaller workloads)
//   bench_selfperf --baseline=PATH         # compare against a captured baseline
//   bench_selfperf --baseline-out=PATH     # capture this run as the baseline
//
// Two workloads:
//   engine    — a pure event-engine storm (64 timer chains), measuring
//               events/sec and allocations/event with the counting
//               allocator from common/alloc_hook.h
//   workload  — an n=40 broadcast-heavy cluster run (fat proposals fan out
//               to 40 replicas), measuring wall-clock, events/sec, and
//               simulated-seconds per wall-second
//
// The JSON report embeds the baseline (bench/selfperf_baseline.json,
// captured before the zero-copy fabric landed) and the speedup against it.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "bench_host.h"
#include "common/alloc_hook.h"
#include "obs/export.h"
#include "runtime/experiment.h"
#include "simnet/simulator.h"

using namespace marlin;

namespace {

std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct EngineResult {
  std::uint64_t events = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t allocs = 0;
  double events_per_sec() const {
    return wall_ns ? static_cast<double>(events) * 1e9 /
                         static_cast<double>(wall_ns)
                   : 0;
  }
  double allocs_per_event() const {
    return events ? static_cast<double>(allocs) / static_cast<double>(events)
                  : 0;
  }
};

/// 64 independent timer chains: each fired event re-arms itself until the
/// budget is spent. This is the steady-state shape of the simulator hot
/// path (pacemaker timers, NIC/link wakeups) with capture-light callbacks.
EngineResult run_engine(std::uint64_t total_events) {
  sim::Simulator sim(7);
  constexpr int kChains = 64;
  std::uint64_t remaining = total_events;
  std::uint64_t fired = 0;

  struct Chain {
    sim::Simulator* sim;
    std::uint64_t* remaining;
    std::uint64_t* fired;
    Duration period;
    void arm() {
      sim->post(period, [this] {
        ++*fired;
        if (*remaining > 0) {
          --*remaining;
          arm();
        }
      });
    }
  };
  std::vector<Chain> chains(kChains);
  for (int i = 0; i < kChains; ++i) {
    chains[i] = Chain{&sim, &remaining, &fired,
                      Duration::micros(10 + i)};
  }

  // Warm up the queue and any internal pools, then measure.
  for (auto& c : chains) c.arm();
  sim.run(kChains * 4);

  alloc_hook::reset();
  const std::uint64_t t0 = wall_now_ns();
  sim.run();
  const std::uint64_t t1 = wall_now_ns();

  EngineResult r;
  r.events = fired;
  r.wall_ns = t1 - t0;
  r.allocs = alloc_hook::allocations();
  return r;
}

struct WorkloadResult {
  std::uint32_t n = 0;
  double sim_seconds = 0;
  std::uint64_t events = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t committed_ops = 0;
  double events_per_sec() const {
    return wall_ns ? static_cast<double>(events) * 1e9 /
                         static_cast<double>(wall_ns)
                   : 0;
  }
  double sim_per_wall() const {
    return wall_ns ? sim_seconds * 1e9 / static_cast<double>(wall_ns) : 0;
  }
  double allocs_per_event() const {
    return events ? static_cast<double>(allocs) / static_cast<double>(events)
                  : 0;
  }
};

/// Runs `cfg` for `sim_seconds`, counting events and allocations of the
/// run phase only.
WorkloadResult run_cluster(const runtime::ClusterConfig& cfg,
                           double sim_seconds) {
  runtime::ExperimentOptions exp;
  exp.cluster = cfg;
  runtime::SimDeployment deployment(exp);
  deployment.start(Duration::zero(), Duration::from_seconds_f(sim_seconds));

  alloc_hook::reset();
  const std::uint64_t t0 = wall_now_ns();
  deployment.advance_to(Duration::from_seconds_f(sim_seconds));
  const std::uint64_t t1 = wall_now_ns();

  runtime::Cluster& cluster = *deployment.simulated();
  WorkloadResult r;
  r.n = cluster.n();
  r.sim_seconds = sim_seconds;
  r.events = deployment.events_executed();
  r.wall_ns = t1 - t0;
  r.allocs = alloc_hook::allocations();
  for (ReplicaId i = 0; i < cluster.n(); ++i) {
    r.committed_ops = std::max(
        r.committed_ops,
        cluster.replica(i).metrics().counter("replica.committed_ops"));
  }
  return r;
}

/// The acceptance workload: n=40 (f=13), 8 closed-loop clients with fat
/// 256-byte requests and deep windows, so each view broadcasts a large
/// proposal to 40 replicas. Broadcast serialization and event-queue churn
/// dominate — exactly what the zero-copy fabric optimizes.
WorkloadResult run_workload(double sim_seconds) {
  runtime::ClusterConfig cfg;
  cfg.f = 13;  // n = 40
  cfg.seed = 1;
  cfg.clients.count = 8;
  cfg.clients.window = 32;
  cfg.clients.payload_size = 256;
  return run_cluster(cfg, sim_seconds);
}

/// Large-n steady state: n=100 (f=33) with a light client load. The event
/// heap, timer slab, and network links are pre-sized from the cluster size
/// (Cluster reserves n-proportional capacity up front), so the run phase
/// should stay allocation-lean no matter how many replicas churn timers —
/// the --max-bigload-allocs-per-event gate pins that.
WorkloadResult run_bigload(double sim_seconds) {
  runtime::ClusterConfig cfg;
  cfg.f = 33;  // n = 100
  cfg.seed = 1;
  cfg.clients.count = 8;
  cfg.clients.window = 8;
  cfg.clients.payload_size = 64;
  return run_cluster(cfg, sim_seconds);
}

/// Minimal flat-JSON number lookup ("\"key\":123.45"), sufficient for the
/// baseline files this bench writes itself.
bool find_number(const std::string& json, const char* key, double* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::atof(json.c_str() + pos + needle.size());
  return true;
}

struct Baseline {
  bool loaded = false;
  double engine_wall_ns = 0, engine_events = 0;
  double workload_wall_ns = 0, workload_events = 0, workload_sim_seconds = 0;
};

Baseline load_baseline(const std::string& path) {
  Baseline b;
  std::string json;
  if (!obs::read_text_file(path, &json)) return b;
  b.loaded = find_number(json, "engine_wall_ns", &b.engine_wall_ns) &&
             find_number(json, "engine_events", &b.engine_events) &&
             find_number(json, "workload_wall_ns", &b.workload_wall_ns) &&
             find_number(json, "workload_events", &b.workload_events) &&
             find_number(json, "workload_sim_seconds",
                         &b.workload_sim_seconds);
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_selfperf.json";
  std::string baseline_in;
  std::string baseline_out;
  double max_bigload_allocs = 0;  // 0 = no gate
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out = arg + 6;
    } else if (std::strncmp(arg, "--baseline=", 11) == 0) {
      baseline_in = arg + 11;
    } else if (std::strncmp(arg, "--baseline-out=", 15) == 0) {
      baseline_out = arg + 15;
    } else if (std::strncmp(arg, "--max-bigload-allocs-per-event=", 31) == 0) {
      max_bigload_allocs = std::atof(arg + 31);
    } else {
      std::fprintf(stderr,
                   "usage: bench_selfperf [--quick] [--out=PATH]\n"
                   "                      [--baseline=PATH] "
                   "[--baseline-out=PATH]\n"
                   "                      "
                   "[--max-bigload-allocs-per-event=X]\n");
      return 2;
    }
  }

  const std::uint64_t engine_events = quick ? 200'000 : 2'000'000;
  const double workload_sim_seconds = quick ? 0.5 : 2.0;

  std::fprintf(stderr, "engine: %llu-event timer storm...\n",
               static_cast<unsigned long long>(engine_events));
  const EngineResult eng = run_engine(engine_events);
  std::fprintf(stderr,
               "engine: %.2fM events/s, %.3f allocs/event (%llu events, "
               "%.1f ms)\n",
               eng.events_per_sec() / 1e6, eng.allocs_per_event(),
               static_cast<unsigned long long>(eng.events),
               static_cast<double>(eng.wall_ns) / 1e6);

  std::fprintf(stderr, "workload: n=40 broadcast-heavy, %.1f sim-seconds...\n",
               workload_sim_seconds);
  const WorkloadResult wl = run_workload(workload_sim_seconds);
  std::fprintf(stderr,
               "workload: %.1f ms wall, %.2fM events/s, %.3f sim-s/wall-s, "
               "%.2f allocs/event, %llu ops committed\n",
               static_cast<double>(wl.wall_ns) / 1e6,
               wl.events_per_sec() / 1e6, wl.sim_per_wall(),
               wl.allocs_per_event(),
               static_cast<unsigned long long>(wl.committed_ops));

  const double bigload_sim_seconds = quick ? 0.5 : 2.0;
  std::fprintf(stderr, "bigload: n=100, %.1f sim-seconds...\n",
               bigload_sim_seconds);
  const WorkloadResult big = run_bigload(bigload_sim_seconds);
  std::fprintf(stderr,
               "bigload: %.1f ms wall, %.2fM events/s, %.2f allocs/event, "
               "%llu ops committed\n",
               static_cast<double>(big.wall_ns) / 1e6,
               big.events_per_sec() / 1e6, big.allocs_per_event(),
               static_cast<unsigned long long>(big.committed_ops));
  if (max_bigload_allocs > 0 && big.allocs_per_event() > max_bigload_allocs) {
    std::fprintf(stderr,
                 "ALLOCS-PER-EVENT REGRESSION: bigload %.3f > limit %.3f "
                 "(is the n-proportional pre-sizing still wired up?)\n",
                 big.allocs_per_event(), max_bigload_allocs);
    return 1;
  }

  Baseline base;
  if (!baseline_in.empty()) {
    base = load_baseline(baseline_in);
    if (!base.loaded) {
      std::fprintf(stderr, "warning: could not load baseline %s\n",
                   baseline_in.c_str());
    }
  }

  // Same config + deterministic sim → identical event streams, so the
  // wall-clock ratio is a clean apples-to-apples speedup.
  double engine_speedup = 0, workload_speedup = 0;
  if (base.loaded && base.engine_events > 0 && eng.events > 0) {
    const double base_ns_per_event = base.engine_wall_ns / base.engine_events;
    const double cur_ns_per_event =
        static_cast<double>(eng.wall_ns) / static_cast<double>(eng.events);
    if (cur_ns_per_event > 0) engine_speedup = base_ns_per_event / cur_ns_per_event;
  }
  if (base.loaded && base.workload_sim_seconds > 0 && wl.sim_seconds > 0) {
    const double base_ns_per_sim_s =
        base.workload_wall_ns / base.workload_sim_seconds;
    const double cur_ns_per_sim_s =
        static_cast<double>(wl.wall_ns) / wl.sim_seconds;
    if (cur_ns_per_sim_s > 0) {
      workload_speedup = base_ns_per_sim_s / cur_ns_per_sim_s;
    }
    std::fprintf(stderr, "speedup vs baseline: engine %.2fx, workload %.2fx\n",
                 engine_speedup, workload_speedup);
  }

  char buf[3072];
  std::snprintf(
      buf, sizeof buf,
      "{\"schema\":\"marlin/selfperf/v1\",\"quick\":%s,\n"
      " \"host\":{%s},\n"
      " \"engine\":{\"events\":%llu,\"wall_ns\":%llu,"
      "\"events_per_sec\":%.0f,\"allocs\":%llu,\"allocs_per_event\":%.4f},\n"
      " \"workload\":{\"n\":%u,\"sim_seconds\":%.3f,\"events\":%llu,"
      "\"wall_ns\":%llu,\"events_per_sec\":%.0f,"
      "\"sim_seconds_per_wall_second\":%.4f,\"allocs\":%llu,"
      "\"allocs_per_event\":%.4f,\"committed_ops\":%llu},\n"
      " \"bigload\":{\"n\":%u,\"sim_seconds\":%.3f,\"events\":%llu,"
      "\"wall_ns\":%llu,\"events_per_sec\":%.0f,\"allocs\":%llu,"
      "\"allocs_per_event\":%.4f,\"committed_ops\":%llu},\n"
      " \"baseline_loaded\":%s,"
      "\"speedup_vs_baseline\":{\"engine\":%.3f,\"workload\":%.3f}}\n",
      quick ? "true" : "false", bench::host_json_fields().c_str(),
      static_cast<unsigned long long>(eng.events),
      static_cast<unsigned long long>(eng.wall_ns), eng.events_per_sec(),
      static_cast<unsigned long long>(eng.allocs), eng.allocs_per_event(),
      wl.n, wl.sim_seconds, static_cast<unsigned long long>(wl.events),
      static_cast<unsigned long long>(wl.wall_ns), wl.events_per_sec(),
      wl.sim_per_wall(), static_cast<unsigned long long>(wl.allocs),
      wl.allocs_per_event(), static_cast<unsigned long long>(wl.committed_ops),
      big.n, big.sim_seconds, static_cast<unsigned long long>(big.events),
      static_cast<unsigned long long>(big.wall_ns), big.events_per_sec(),
      static_cast<unsigned long long>(big.allocs), big.allocs_per_event(),
      static_cast<unsigned long long>(big.committed_ops),
      base.loaded ? "true" : "false", engine_speedup, workload_speedup);

  std::ofstream of(out);
  of << buf;
  if (!of) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 2;
  }
  std::fprintf(stderr, "wrote %s\n", out.c_str());

  if (!baseline_out.empty()) {
    char bb[512];
    std::snprintf(
        bb, sizeof bb,
        "{\"schema\":\"marlin/selfperf-baseline/v1\",\"quick\":%s,\n"
        " \"engine_events\":%llu,\"engine_wall_ns\":%llu,\n"
        " \"workload_n\":%u,\"workload_sim_seconds\":%.3f,"
        "\"workload_events\":%llu,\"workload_wall_ns\":%llu,\n"
        " \"workload_allocs\":%llu,\"engine_allocs\":%llu}\n",
        quick ? "true" : "false",
        static_cast<unsigned long long>(eng.events),
        static_cast<unsigned long long>(eng.wall_ns), wl.n,
        wl.sim_seconds, static_cast<unsigned long long>(wl.events),
        static_cast<unsigned long long>(wl.wall_ns),
        static_cast<unsigned long long>(wl.allocs),
        static_cast<unsigned long long>(eng.allocs));
    std::ofstream bf(baseline_out);
    bf << bb;
    std::fprintf(stderr, "wrote baseline %s\n", baseline_out.c_str());
  }
  return 0;
}
