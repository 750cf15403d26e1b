// bench_scaling — how far does the testbed scale in replica count?
//
// Runs the same light-load cluster workload at n = 40 / 100 / 400 / 1000
// on both event-engine backends — the legacy single-queue simulator
// (--shards=1) and the partitioned lookahead-window engine (docs/
// SCALING.md) — and reports events/s, simulated-seconds per wall-second,
// peak RSS, and commit progress per configuration:
//
//   bench_scaling                      # full sweep, writes BENCH_scaling.json
//   bench_scaling --quick              # n = 40 / 100 only (ctest + CI smoke)
//   bench_scaling --shards=8           # partitioned rows use 8 shards
//
// Each configuration runs in its own child process (the bench re-execs
// itself with --one), so peak RSS (getrusage ru_maxrss) is per-row rather
// than a running max across the sweep, and a pathological row cannot
// corrupt its neighbours' numbers.
//
// Speedup caveat: the partitioned engine only buys wall-clock time when
// worker threads have real cores to land on. The report embeds
// hardware_concurrency so a reader can tell a 1-core CI container's
// numbers (sharding overhead, no parallelism) from a many-core host's.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/experiment.h"

using namespace marlin;

namespace {

std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Peak resident set of this process in bytes (ru_maxrss is KiB on Linux).
std::uint64_t peak_rss_bytes() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

struct Row {
  std::uint32_t n = 0;
  std::uint32_t shards = 1;
  std::uint32_t workers = 1;
  double sim_seconds = 0;
  std::uint64_t events = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t peak_rss = 0;
  std::uint64_t committed_ops = 0;
  bool safety_ok = false;

  double events_per_sec() const {
    return wall_ns ? static_cast<double>(events) * 1e9 /
                         static_cast<double>(wall_ns)
                   : 0;
  }
  double sim_per_wall() const {
    return wall_ns ? sim_seconds * 1e9 / static_cast<double>(wall_ns) : 0;
  }

  std::string to_json() const {
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\"n\":%u,\"shards\":%u,\"workers\":%u,\"sim_seconds\":%.3f,"
        "\"events\":%llu,\"wall_ns\":%llu,\"events_per_sec\":%.0f,"
        "\"sim_seconds_per_wall_second\":%.4f,\"peak_rss_bytes\":%llu,"
        "\"committed_ops\":%llu,\"safety_ok\":%s}",
        n, shards, workers, sim_seconds,
        static_cast<unsigned long long>(events),
        static_cast<unsigned long long>(wall_ns), events_per_sec(),
        sim_per_wall(), static_cast<unsigned long long>(peak_rss),
        static_cast<unsigned long long>(committed_ops),
        safety_ok ? "true" : "false");
    return buf;
  }
};

/// One configuration, in-process. Light client load: at n=1000 the
/// all-to-all vote traffic alone dominates; the point is engine scaling,
/// not batching throughput.
Row run_row(std::uint32_t f, std::uint32_t shards, std::uint32_t workers,
            double sim_seconds) {
  runtime::ClusterConfig cfg;
  cfg.f = f;
  cfg.seed = 1;
  cfg.clients.count = 8;
  cfg.clients.window = 8;
  cfg.clients.payload_size = 64;
  // At n=1000 a modeled round takes ~1.3 s (leader-side crypto plus
  // O(n²) vote/QC traffic), so the first commit lands just inside a flat
  // 2 s view timeout — zero headroom: any extra delay (faults, larger
  // payloads, a slow leader) tips the first round into a spurious view
  // change. Scale the timer with n instead (2 s + 5 ms per replica);
  // the committed_ops column in this short horizon remains bounded by
  // round latency, not by timer churn.
  cfg.consensus.pacemaker.base_timeout_per_replica = Duration::millis(5);

  runtime::ExperimentOptions exp = runtime::throughput_options(
      cfg, Duration::zero(), Duration::from_seconds_f(sim_seconds));
  exp.drain = Duration::zero();
  exp.shards = shards;
  exp.workers = workers;
  runtime::SimDeployment deployment(exp);

  Row r;
  r.n = 3 * f + 1;
  r.shards = shards;
  r.workers = deployment.workers();
  r.sim_seconds = sim_seconds;
  const std::uint64_t t0 = wall_now_ns();
  const runtime::ExperimentReport rep =
      runtime::run_experiment(exp, deployment);
  r.wall_ns = wall_now_ns() - t0;
  r.events = deployment.events_executed();
  r.safety_ok = rep.safety_ok && rep.consistent;
  runtime::Cluster& cluster = *deployment.simulated();
  for (ReplicaId i = 0; i < cluster.n(); ++i) {
    r.committed_ops = std::max(
        r.committed_ops,
        cluster.replica(i).metrics().counter("replica.committed_ops"));
  }
  r.peak_rss = peak_rss_bytes();
  return r;
}

/// Re-exec this binary for one row and read its JSON line off stdout.
bool run_row_subprocess(const char* self, std::uint32_t f,
                        std::uint32_t shards, std::uint32_t workers,
                        double sim_seconds, std::string* row_json) {
  char cmd[512];
  std::snprintf(cmd, sizeof cmd,
                "'%s' --one --f=%u --shards=%u --workers=%u --seconds=%.3f",
                self, f, shards, workers, sim_seconds);
  FILE* pipe = popen(cmd, "r");
  if (pipe == nullptr) return false;
  std::string out;
  char buf[1024];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  const int rc = pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  *row_json = out;
  return rc == 0 && !out.empty() && out.front() == '{';
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool one = false;
  std::string out = "BENCH_scaling.json";
  std::uint32_t f = 13;
  std::uint32_t shards = 4;
  std::uint32_t workers = 0;  // 0 = engine default (one per core)
  double seconds = 0;         // 0 = mode default
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(arg, "--one") == 0) {
      one = true;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out = arg + 6;
    } else if (std::strncmp(arg, "--f=", 4) == 0) {
      f = static_cast<std::uint32_t>(std::atoi(arg + 4));
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      shards = static_cast<std::uint32_t>(std::atoi(arg + 9));
    } else if (std::strncmp(arg, "--workers=", 10) == 0) {
      workers = static_cast<std::uint32_t>(std::atoi(arg + 10));
    } else if (std::strncmp(arg, "--seconds=", 10) == 0) {
      seconds = std::atof(arg + 10);
    } else {
      std::fprintf(stderr,
                   "usage: bench_scaling [--quick] [--out=PATH] "
                   "[--shards=K] [--workers=N] [--seconds=S]\n");
      return 2;
    }
  }

  if (one) {
    // Child mode: one configuration, one JSON row on stdout.
    const Row r = run_row(f, shards, workers, seconds > 0 ? seconds : 1.0);
    std::printf("%s\n", r.to_json().c_str());
    return r.safety_ok ? 0 : 1;
  }

  const double sim_seconds = seconds > 0 ? seconds : (quick ? 0.5 : 2.0);
  // f values give n = 3f+1 = 40, 100, 400, 1000.
  std::vector<std::uint32_t> fs = {13, 33};
  if (!quick) {
    fs.push_back(133);
    fs.push_back(333);
  }

  const unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(stderr,
               "scaling sweep: n in {%s}, legacy vs %u shards, %u core%s\n",
               quick ? "40,100" : "40,100,400,1000", shards, hw,
               hw == 1 ? "" : "s");

  std::string rows_json;
  bool all_ok = true;
  for (const std::uint32_t fv : fs) {
    for (const std::uint32_t k : {1u, shards}) {
      std::string row;
      const bool ok =
          run_row_subprocess(argv[0], fv, k, workers, sim_seconds, &row);
      all_ok = all_ok && ok;
      if (!ok) {
        std::fprintf(stderr, "row n=%u shards=%u FAILED: %s\n", 3 * fv + 1,
                     k, row.c_str());
        continue;
      }
      if (!rows_json.empty()) rows_json += ",\n  ";
      rows_json += row;
      std::fprintf(stderr, "  %s\n", row.c_str());
    }
  }

  char head[256];
  std::snprintf(head, sizeof head,
                "{\"schema\":\"marlin/scaling/v1\",\"quick\":%s,"
                "\"hardware_concurrency\":%u,\"shards\":%u,\n \"rows\":[\n  ",
                quick ? "true" : "false", hw, shards);
  std::ofstream of(out);
  of << head << rows_json << "\n]}\n";
  if (!of.flush()) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 2;
  }
  std::fprintf(stderr, "wrote %s\n", out.c_str());
  return all_ok ? 0 : 1;
}
