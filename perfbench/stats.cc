#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo =
      std::min(static_cast<std::size_t>(rank), values.size() - 1);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50);
}

std::size_t samples_beyond(std::size_t n, double p) {
  // The conventional count n·(1 − p/100), rounded down: p90 of 100
  // samples has 10 beyond it, p90 of 99 only 9.
  return static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (100.0 - p) / 100.0 + 1e-9));
}

double per_op(double total, std::uint64_t ops) {
  return ops == 0 ? 0 : total / static_cast<double>(ops);
}

double median_rate(const std::vector<Window>& windows) {
  std::vector<double> rates;
  for (const Window& w : windows) {
    if (w.wall_s > 0) rates.push_back(static_cast<double>(w.ops) / w.wall_s);
  }
  return median(std::move(rates));
}

double median_cpu_per_op(const std::vector<Window>& windows) {
  std::vector<double> costs;
  for (const Window& w : windows) {
    if (w.ops > 0) costs.push_back(per_op(w.cpu_s, w.ops));
  }
  return median(std::move(costs));
}

bool parse_proc_stat_cpu(const std::string& line, HostCpu* out) {
  std::istringstream in(line);
  std::string label;
  // user nice system idle iowait irq softirq steal
  std::uint64_t v[8] = {};
  in >> label;
  for (std::uint64_t& x : v) in >> x;
  if (label != "cpu" || in.fail()) return false;
  out->busy = v[0] + v[1] + v[2] + v[5] + v[6];
  out->steal = v[7];
  return true;
}

HostCpu host_cpu_now() {
  HostCpu h;
  std::ifstream f("/proc/stat");
  std::string line;
  if (!std::getline(f, line) || !parse_proc_stat_cpu(line, &h)) return {};
  return h;
}

double steal_share(const HostCpu& a, const HostCpu& b) {
  if (b.busy < a.busy || b.steal < a.steal) return 0;
  const double steal = static_cast<double>(b.steal - a.steal);
  const double demand = static_cast<double>(b.busy - a.busy) + steal;
  return demand > 0 ? steal / demand : 0;
}

std::vector<std::size_t> least_stolen(const std::vector<double>& shares,
                                      double tolerance, std::size_t min_keep) {
  std::vector<std::size_t> order(shares.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return shares[a] < shares[b];
  });
  std::size_t keep = 0;
  while (keep < order.size() &&
         (keep < min_keep || shares[order[keep]] <= shares[order[0]] + tolerance)) {
    ++keep;
  }
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

Usage usage_now() {
  Usage u;
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return u;
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  u.cpu_s = secs(ru.ru_utime) + secs(ru.ru_stime);
  u.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
  u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw) +
                   static_cast<std::uint64_t>(ru.ru_nivcsw);
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

double peak_rss_mb() { return usage_now().peak_rss_mb; }

double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
