// bench_realnet — the "one stack, two transports" cross-validation bench.
//
// Runs the same workload (same ClusterConfig: protocol, f, clients, window,
// payload, pacemaker) on both backends at n = 4, 7, 10, 19:
//
//   sim    the deterministic simulator, with its network model calibrated
//          to localhost-class links (50 us one-way, 10 Gbps) so the two
//          backends model the same deployment;
//   metal  src/realnet — real threads, real epoll, real 127.0.0.1 TCP.
//
// Both rows run the one experiment procedure (runtime::run_experiment) and
// differ only in the deployment under it. Prints one row per (n, backend) —
// throughput, latency percentiles, the final view, and getrusage
// CPU/context-switch deltas — and writes the comparison as JSON (schema
// marlin/realnet/v3); the repo pins a representative run as
// BENCH_realnet.json. A row is ok when the run's report is and every
// replica committed something; final_view tells a row that sat through
// view changes from a healthy one. Wall-clock metal numbers are
// machine-dependent, so CI only smoke-runs --quick and checks that the
// artifact is written.
//
//   bench_realnet                      # full sweep, n = 4, 7, 10, 19
//   bench_realnet --quick              # short windows, n = 4 only
//   bench_realnet --out=PATH           # also write the JSON artifact
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_host.h"
#include "obs/export.h"
#include "realnet/metal_deployment.h"

using namespace marlin;

namespace {

struct Row {
  std::uint32_t n = 0;
  const char* backend = "";
  double throughput_ops = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double mean_ms = 0;
  std::uint64_t completed = 0;
  ViewNumber final_view = 0;
  bool ok = false;
  // getrusage(RUSAGE_SELF) deltas across the row: CPU burned (user+sys)
  // and scheduler pressure. On a 1-core host involuntary switches are the
  // tell for "more runnable threads than cores".
  double cpu_s = 0;
  std::uint64_t vol_ctx_switches = 0;
  std::uint64_t invol_ctx_switches = 0;
};

struct UsageSnap {
  double cpu_s = 0;
  std::uint64_t nvcsw = 0;
  std::uint64_t nivcsw = 0;
};

UsageSnap usage_now() {
  struct rusage ru;
  UsageSnap s;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return s;
  auto tv_s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  s.cpu_s = tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
  s.nvcsw = static_cast<std::uint64_t>(ru.ru_nvcsw);
  s.nivcsw = static_cast<std::uint64_t>(ru.ru_nivcsw);
  return s;
}

void fill_usage(Row* row, const UsageSnap& before) {
  const UsageSnap after = usage_now();
  row->cpu_s = after.cpu_s - before.cpu_s;
  row->vol_ctx_switches = after.nvcsw - before.nvcsw;
  row->invol_ctx_switches = after.nivcsw - before.nivcsw;
}

/// The workload both backends run: identical consensus + client settings;
/// only the transport underneath differs.
runtime::ClusterConfig workload(std::uint32_t f) {
  runtime::ClusterConfig cfg;
  cfg.f = f;
  cfg.seed = 20260807;
  cfg.clients.count = 4;
  cfg.clients.window = 16;
  cfg.clients.payload_size = 150;
  cfg.consensus.reply_size = 150;
  cfg.consensus.pacemaker.base_timeout = Duration::millis(500);
  cfg.consensus.pacemaker.timeout_jitter = 0.2;
  // Localhost-class network model for the sim side of the comparison.
  cfg.net.one_way_delay = Duration::micros(50);
  cfg.net.link_bandwidth_bps = 10e9;
  cfg.net.nic_bandwidth_bps = 10e9;
  return cfg;
}

Row run_row(std::uint32_t f, bool metal, Duration warmup, Duration measure) {
  const UsageSnap before = usage_now();
  runtime::ExperimentOptions exp =
      runtime::throughput_options(workload(f), warmup, measure);
  std::unique_ptr<runtime::Deployment> deployment;
  if (metal) {
    deployment = std::make_unique<realnet::MetalDeployment>(exp);
  } else {
    deployment = std::make_unique<runtime::SimDeployment>(exp);
  }
  const runtime::ExperimentReport rep =
      runtime::run_experiment(exp, *deployment);
  Row row;
  fill_usage(&row, before);
  row.n = 3 * f + 1;
  row.backend = metal ? "metal" : "sim";
  if (!rep.status.is_ok()) {
    std::fprintf(stderr, "%s n=%u: %s\n", row.backend, row.n,
                 rep.status.message().c_str());
    return row;
  }
  row.throughput_ops = rep.throughput_ops;
  row.p50_ms = rep.p50_latency_ms;
  row.p95_ms = rep.p95_latency_ms;
  row.mean_ms = rep.mean_latency_ms;
  row.completed = rep.total_completed;
  row.final_view = rep.final_view;
  row.ok = rep.ok() && deployment->meter().min_committed_height() > 0;
  return row;
}

void print_row(const Row& r) {
  std::printf("%4u  %-6s %12.1f %10.2f %10.2f %10.2f %12llu %6llu %8.2f %8llu %8llu  %s\n",
              r.n, r.backend, r.throughput_ops, r.p50_ms, r.p95_ms, r.mean_ms,
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.final_view), r.cpu_s,
              static_cast<unsigned long long>(r.vol_ctx_switches),
              static_cast<unsigned long long>(r.invol_ctx_switches),
              r.ok ? "ok" : "FAIL");
}

std::string row_json(const Row& r) {
  char buf[384];
  std::snprintf(buf, sizeof buf,
                "  {\"n\":%u,\"backend\":\"%s\",\"throughput_ops\":%.1f,"
                "\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"mean_ms\":%.3f,"
                "\"completed\":%llu,\"final_view\":%llu,\"cpu_s\":%.3f,"
                "\"vol_ctx_switches\":%llu,\"invol_ctx_switches\":%llu,"
                "\"ok\":%s}",
                r.n, r.backend, r.throughput_ops, r.p50_ms, r.p95_ms,
                r.mean_ms, static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.final_view), r.cpu_s,
                static_cast<unsigned long long>(r.vol_ctx_switches),
                static_cast<unsigned long long>(r.invol_ctx_switches),
                r.ok ? "true" : "false");
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else {
      std::fprintf(stderr, "usage: bench_realnet [--quick] [--out=PATH]\n");
      return 2;
    }
  }

  const Duration warmup = quick ? Duration::millis(500) : Duration::seconds(1);
  const Duration measure = quick ? Duration::seconds(2) : Duration::seconds(5);
  // f = 1, 2, 3, 6 → n = 4, 7, 10, 19: the n=19 row shows how both
  // backends degrade once quadratic vote traffic dominates on one core.
  const std::vector<std::uint32_t> fs =
      quick ? std::vector<std::uint32_t>{1}
            : std::vector<std::uint32_t>{1, 2, 3, 6};

  std::printf(
      "bench_realnet — same workload, two transports (sim vs localhost TCP)\n"
      "clients=4 window=16 payload=150B; sim net: 50us one-way, 10 Gbps\n\n"
      "%4s  %-6s %12s %10s %10s %10s %12s %6s %8s %8s %8s\n", "n", "trans",
      "ops/s", "p50 ms", "p95 ms", "mean ms", "completed", "view", "cpu s",
      "nvcsw", "nivcsw");

  std::vector<Row> rows;
  bool all_ok = true;
  for (std::uint32_t f : fs) {
    const Row sim = run_row(f, /*metal=*/false, warmup, measure);
    print_row(sim);
    const Row metal = run_row(f, /*metal=*/true, warmup, measure);
    print_row(metal);
    rows.push_back(sim);
    rows.push_back(metal);
    all_ok = all_ok && sim.ok && metal.ok;
    if (sim.throughput_ops > 0) {
      std::printf("      metal/sim throughput: %.2fx, p50 latency: %.2fx\n",
                  metal.throughput_ops / sim.throughput_ops,
                  sim.p50_ms > 0 ? metal.p50_ms / sim.p50_ms : 0.0);
    }
  }

  if (!out_path.empty()) {
    std::string json = "{\"schema\":\"marlin/realnet/v3\",\"quick\":";
    json += quick ? "true" : "false";
    json += ",\n \"host\":{" + bench::host_json_fields() + "}";
    json +=
        ",\n \"workload\":{\"clients\":4,\"window\":16,\"payload\":150,"
        "\"sim_one_way_us\":50,\"warmup_s\":" +
        std::to_string(warmup.as_seconds_f()) +
        ",\"measure_s\":" + std::to_string(measure.as_seconds_f()) +
        "},\n \"rows\":[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      json += row_json(rows[i]);
      json += i + 1 < rows.size() ? ",\n" : "\n";
    }
    json += " ]}\n";
    if (!obs::write_text_file(out_path, json)) {
      std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
      return 2;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return all_ok ? 0 : 1;
}
