// The benchmark's own statistics: percentiles with the sample-count rule,
// per-op normalisation, medians over time slices, the op-count warm-up
// cut-off and process resource usage. stats_test.cc checks each of them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Linearly interpolated percentile (p in [0, 100]) of unsorted values;
/// 0 for an empty set. Same rule as marlin::LatencyHistogram.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// Samples that lie strictly beyond percentile p in a set of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// The sample-count rule: a percentile is reported only when at least
/// `min_beyond` samples lie beyond it (p90 needs 100 samples).
inline bool percentile_supported(std::size_t n, double p,
                                 std::size_t min_beyond = 10) {
  return samples_beyond(n, p) >= min_beyond;
}

/// `total` per committed op. Zero ops yields 0 (the layer did no work per
/// op because there were no ops); callers gate on ops > 0 separately.
double per_op(double total, std::uint64_t ops);

/// Opens the measured window after a fixed count of committed warm-up
/// ops, never after a wall delay: observe() turns true at the first
/// observation whose committed count reaches the target, however much or
/// little time has passed, and stays true.
class WarmupCutoff {
 public:
  explicit WarmupCutoff(std::uint64_t target_ops) : target_(target_ops) {}

  /// Feeds the committed-op count seen now; true once the window is open.
  bool observe(std::uint64_t committed_ops) {
    open_ = open_ || committed_ops >= target_;
    return open_;
  }

 private:
  std::uint64_t target_;
  bool open_ = false;
};

/// One measured window: its wall time, committed ops and process CPU.
struct Window {
  double wall_s = 0;
  std::uint64_t ops = 0;
  double cpu_s = 0;
};

/// Medians over windows — a multi-second host stall moves one window, not
/// the reported value.
double median_rate(const std::vector<Window>& windows);        // ops / s
double median_cpu_per_op(const std::vector<Window>& windows);  // s / op

/// Host CPU time from the aggregate "cpu" line of /proc/stat, in clock
/// ticks over all CPUs: time the CPUs were busy, and steal — time they had
/// work but the hypervisor ran something else.
struct HostCpu {
  std::uint64_t busy = 0;
  std::uint64_t steal = 0;
};
bool parse_proc_stat_cpu(const std::string& line, HostCpu* out);
HostCpu host_cpu_now();  // zeros when /proc/stat is unreadable

/// Share of the CPU time demanded between `a` and `b` that was stolen.
double steal_share(const HostCpu& a, const HostCpu& b);

/// The windows to report: those within `tolerance` of the least-stolen
/// share, topped up with the next least stolen to at least `min_keep`.
/// Returned in their original order. With no steal, every window.
std::vector<std::size_t> least_stolen(const std::vector<double>& shares,
                                      double tolerance, std::size_t min_keep);

/// getrusage(RUSAGE_SELF): the calling process, all of its threads, and
/// none of its children.
struct Usage {
  double cpu_s = 0;  // user + system
  std::uint64_t minor_faults = 0;
  std::uint64_t ctx_switches = 0;  // voluntary + involuntary
  double peak_rss_mb = 0;
};
Usage usage_now();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Monotonic wall clock in seconds.
double wall_now_s();

/// A double with all its digits, for the JSON result.
std::string fmt_num(double v);

}  // namespace perfbench
