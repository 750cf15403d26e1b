// Figure 10a–10f: throughput vs latency for f ∈ {1, 2, 5, 10, 20, 30},
// 150-byte requests/replies, closed-loop load sweep. Each row is one point
// of the paper's curves; the sweep stops around the latency range the
// paper plots (≤ ~1 s).
//
// Paper reference (peak throughput along these curves): Marlin 4.47 %–34.4 %
// above HotStuff at every f; at f = 1 Marlin peaks at 101 ktx/s vs
// HotStuff 79.6 ktx/s. Expected reproduction: same ordering and relative
// gap; absolute throughput within a small constant factor (see
// EXPERIMENTS.md).
#include <charconv>
#include <string_view>

#include "bench_common.h"

#include "obs/critical_path.h"

namespace {

// One dedicated f = 1 default-seed run per protocol, traced into a fresh
// sink, so the critical-path attribution is over a clean single-run trace
// (the sweep's shared ring interleaves runs and overflows).
std::string critical_path_artifact() {
  using namespace marlin::bench;
  std::string out;
  std::vector<marlin::obs::CriticalPathBreakdown> breakdowns;
  for (ProtocolKind protocol :
       {ProtocolKind::kMarlin, ProtocolKind::kHotStuff}) {
    ClusterConfig cfg = paper_config(1, protocol);
    cfg.clients.window = 4;  // light load: commit latency, not queueing
    marlin::obs::TraceSink sink{1u << 17};
    cfg.trace = &sink;
    marlin::runtime::run_experiment(marlin::runtime::throughput_options(
        cfg, marlin::Duration::seconds(3), marlin::Duration::seconds(5)));
    const auto paths = marlin::obs::critical_paths(sink.events());
    const bool three = protocol == ProtocolKind::kHotStuff;
    for (const auto& p : paths) {
      if (p.complete && p.three_phase == three) {
        out += std::string("== ") + protocol_name(protocol) +
               (three ? " (three-phase) ==\n" : " (two-phase) ==\n");
        out += marlin::obs::critical_path_to_text(p);
        break;
      }
    }
    breakdowns.push_back(marlin::obs::aggregate_critical_paths(paths, three));
    out += marlin::obs::breakdown_to_text(breakdowns.back());
    out += "\n";
  }
  out += marlin::obs::breakdown_comparison(breakdowns[0], breakdowns[1]);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace marlin::bench;
  // Optional: pass a subset of f values (e.g. "1 2" for a quick run).
  std::vector<std::uint32_t> fs = {1, 2, 5, 10, 20, 30};
  if (argc > 1) {
    fs.clear();
    for (int i = 1; i < argc; ++i) {
      // The whole token must be a positive integer: "2x" or "two" is an
      // error, not a silent f = 0.
      const std::string_view arg = argv[i];
      std::uint32_t f = 0;
      const auto [end, ec] =
          std::from_chars(arg.data(), arg.data() + arg.size(), f);
      if (ec != std::errc{} || end != arg.data() + arg.size() || f == 0) {
        std::fprintf(stderr,
                     "invalid value for f: '%s' (expected a positive "
                     "integer)\n",
                     argv[i]);
        return 2;
      }
      fs.push_back(f);
    }
  }

  // Metrics accumulate over every run; the trace ring keeps the newest
  // events. Dumped next to the binary for trace_inspect / plotting.
  ObsArtifacts artifacts;

  const char* fig = "abcdef";
  for (std::size_t i = 0; i < fs.size(); ++i) {
    const std::uint32_t f = fs[i];
    char title[96];
    std::snprintf(title, sizeof title,
                  "Figure 10%c — Throughput vs latency (f = %u, n = %u)",
                  i < 6 ? fig[i] : '?', f, 3 * f + 1);
    print_header(title);
    auto marlin = run_sweep(f, ProtocolKind::kMarlin, 150,
                            marlin::Duration::seconds(3), &artifacts);
    auto hotstuff = run_sweep(f, ProtocolKind::kHotStuff, 150,
                              marlin::Duration::seconds(3), &artifacts);
    const double m = peak_ktx(marlin);
    const double h = peak_ktx(hotstuff);
    std::printf("-- f=%u sweep peaks: marlin=%.2f ktx/s, hotstuff=%.2f ktx/s "
                "(marlin %+.1f%%)\n",
                f, m, h, (m / h - 1.0) * 100.0);
  }

  if (artifacts.write("bench_fig10")) {
    std::printf("\nwrote bench_fig10.metrics.json and bench_fig10.trace.jsonl"
                " (analyze with trace_inspect)\n");
  } else {
    std::fprintf(stderr, "failed to write bench_fig10 artifacts\n");
    return 1;
  }

  // Where does the commit latency go? Two dedicated light-load f = 1 runs
  // feed the per-edge critical-path breakdown — Marlin vs HotStuff side by
  // side, one network round trip apart.
  print_header("Critical-path latency attribution (f = 1, light load)");
  const std::string breakdown = critical_path_artifact();
  std::fputs(breakdown.c_str(), stdout);
  if (marlin::obs::write_text_file("bench_fig10.critical_path.txt",
                                   breakdown)) {
    std::printf("\nwrote bench_fig10.critical_path.txt\n");
  } else {
    std::fprintf(stderr, "failed to write bench_fig10.critical_path.txt\n");
    return 1;
  }
  return 0;
}
