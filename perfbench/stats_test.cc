// Self-test of the benchmark's own statistics (stats.h, phases.h). Plain
// checks that stay on in every build type; exits non-zero on the first
// failure.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "phases.h"
#include "stats.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b, double eps = 1e-9) {
  return std::fabs(a - b) <= eps;
}

void test_percentiles() {
  using perfbench::percentile;
  // 1..100: interpolated ranks as in marlin::LatencyHistogram.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // order must not matter
  check(near(percentile(v, 50), 50.5), "p50 of 1..100 is 50.5");
  check(near(percentile(v, 90), 90.1), "p90 of 1..100 is 90.1");
  check(near(percentile(v, 0), 1) && near(percentile(v, 100), 100),
        "p0/p100 are min/max");
  check(near(perfbench::median({3, 1, 2}), 2), "median of odd count");
  check(near(perfbench::median({4, 1, 3, 2}), 2.5), "median of even count");
  check(percentile({}, 50) == 0, "empty set reads 0");
}

void test_sample_count_rule() {
  using perfbench::percentile_supported;
  using perfbench::samples_beyond;
  check(samples_beyond(100, 90) == 10, "100 samples: 10 beyond p90");
  check(samples_beyond(1000, 99) == 10, "1000 samples: 10 beyond p99");
  check(percentile_supported(100, 90), "p90 reportable from 100 samples");
  check(!percentile_supported(99, 90), "p90 not reportable from 99");
  check(!percentile_supported(999, 99.1), "p99.1 not reportable from 999");
  check(percentile_supported(20, 50), "p50 reportable from 20");
  check(!percentile_supported(0, 50), "nothing reportable from 0");
}

void test_per_op() {
  using perfbench::per_op;
  check(near(per_op(300, 100), 3), "300 over 100 ops is 3");
  check(per_op(5, 0) == 0, "zero ops normalise to 0, not inf");

  // Windows: rates and CPU per op are medians over windows, so one
  // stalled window does not move them.
  const std::vector<perfbench::Window> windows = {
      {1.0, 1000, 0.5}, {1.0, 1000, 0.5},
      {1.0, 100, 0.9},  // stall: 100 ops, 0.9 s CPU
      {1.0, 1000, 0.5}, {1.0, 1000, 0.5}};
  check(near(perfbench::median_rate(windows), 1000), "median window rate");
  check(near(perfbench::median_cpu_per_op(windows), 0.0005),
        "median window CPU per op");
  // Unequal windows: a rate is ops over that window's own duration.
  const std::vector<perfbench::Window> uneven = {{2.0, 1000, 0}, {0.5, 250, 0}};
  check(near(perfbench::median_rate(uneven), 500), "rate per own duration");
  check(near(perfbench::median_cpu_per_op({{1.0, 0, 1.0}, {1.0, 4, 2.0}}), 0.5),
        "windows without ops are skipped");
}

void test_warmup_cutoff() {
  perfbench::WarmupCutoff cut(1000);
  // However long it waits, the window stays shut below the count...
  check(!cut.observe(0) && !cut.observe(999), "closed below the target");
  // ...opens at the first observation at or past it, and stays open.
  check(cut.observe(1004), "opens at the first count >= target");
  check(cut.observe(10), "stays open");
  check(perfbench::WarmupCutoff(5).observe(5), "the target itself opens");
}

void test_steal_selection() {
  perfbench::HostCpu a, b;
  check(perfbench::parse_proc_stat_cpu(
            "cpu  100 5 20 900 3 1 4 30 0 0", &a) &&
            a.busy == 130 && a.steal == 30,
        "parses busy (user+nice+system+irq+softirq) and steal");
  check(!perfbench::parse_proc_stat_cpu("cpu0 1 2 3 4 5 6 7 8", &b),
        "only the aggregate line");
  check(!perfbench::parse_proc_stat_cpu("cpu 1 2", &b), "short line rejected");
  perfbench::parse_proc_stat_cpu("cpu  160 5 20 950 3 1 4 50 0 0", &b);
  check(near(perfbench::steal_share(a, b), 0.25), "20 stolen of 80 demanded");
  check(perfbench::steal_share(b, a) == 0, "counters going back read 0");

  using perfbench::least_stolen;
  const std::vector<std::size_t> all = {0, 1, 2, 3, 4};
  check(least_stolen({0, 0, 0, 0, 0}, 0.02, 3) == all, "no steal keeps all");
  check(least_stolen({0.30, 0.01, 0.33, 0.0, 0.02}, 0.02, 2) ==
            std::vector<std::size_t>({1, 3, 4}),
        "keeps the clean windows, in order");
  check(least_stolen({0.30, 0.25, 0.33, 0.31, 0.5}, 0.02, 3) ==
            std::vector<std::size_t>({0, 1, 3}),
        "tops up with the least stolen");
}

void test_peak_rss_is_own_process() {
  const double before = perfbench::peak_rss_mb();
  check(before > 0, "peak RSS is read");
  // A child that touches 96 MiB must not move the parent's peak...
  const pid_t pid = fork();
  if (pid == 0) {
    const std::size_t len = std::size_t{96} << 20;
    char* p = static_cast<char*>(std::malloc(len));
    if (p != nullptr) std::memset(p, 1, len);
    _exit(p != nullptr && perfbench::peak_rss_mb() >= 96 ? 0 : 1);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  check(WIFEXITED(status) && WEXITSTATUS(status) == 0,
        "the child sees its own 96 MiB peak");
  check(perfbench::peak_rss_mb() < before + 32, "a child's memory is not ours");
  // ...while memory this process touches does.
  const std::size_t len = std::size_t{64} << 20;
  std::vector<char> mine(len, 1);
  check(perfbench::peak_rss_mb() >= before + 60 || perfbench::peak_rss_mb() >= 64,
        "our own 64 MiB shows in the peak");
  check(mine[len / 2] == 1, "touched");
}

void test_phase_split() {
  using marlin::Duration;
  using marlin::TimePoint;
  using marlin::obs::EventType;
  using marlin::obs::TraceEvent;
  auto at = [](int ms) { return TimePoint{} + Duration::millis(ms); };
  std::vector<TraceEvent> ev;
  auto add = [&](int ms, EventType t, std::uint32_t node, std::uint64_t block,
                 std::uint64_t a = 0, std::uint64_t b = 0) {
    TraceEvent e;
    // One sink per node, as on metal: each node numbers its own events.
    e.seq = static_cast<std::uint64_t>(
        std::count_if(ev.begin(), ev.end(),
                      [node](const TraceEvent& x) { return x.node == node; }));
    e.at = at(ms);
    e.type = t;
    e.node = node;
    e.block = block;
    e.a = a;
    e.b = b;
    ev.push_back(e);
  };
  // Request 1 of client 0: submit 10, dequeued 14, proposed 14, QCs at 20
  // and 26, commits at 27, 28, 31, accepted 33 (quorum 2 → commit 28).
  add(10, EventType::kClientSubmit, 4, 0, 1, 0);
  add(14, EventType::kBatchDequeued, 0, 77);
  add(14, EventType::kProposalSent, 0, 77);
  add(20, EventType::kQcFormed, 0, 77);
  add(26, EventType::kQcFormed, 0, 77);
  add(27, EventType::kCommit, 0, 77);
  add(28, EventType::kCommit, 1, 77);
  add(30, EventType::kQcFormed, 0, 77);  // after commit: not on the path
  add(31, EventType::kCommit, 2, 77);
  add(33, EventType::kReplyAccepted, 4, 77, 1, 0);
  const perfbench::PhaseSplit s = perfbench::split_phases(ev, at(0), at(100), 2);
  check(s.requests == 1, "one request split");
  check(near(s.txpool_wait_ms, 4), "txpool wait 4 ms");
  check(near(s.propose_to_qc_ms, 12), "propose to last QC 12 ms");
  check(near(s.qc_to_commit_ms, 2), "QC to quorum commit 2 ms");
  check(near(s.reply_ms, 5), "commit to reply 5 ms");
  check(near(s.txpool_wait_ms + s.propose_to_qc_ms + s.qc_to_commit_ms +
                 s.reply_ms,
             23),
        "phases sum to the request's latency");
  check(perfbench::split_phases(ev, at(40), at(100), 2).requests == 0,
        "replies outside the window are not counted");
  check(!perfbench::trace_wrapped(ev), "a full trace is not wrapped");
  ev.erase(ev.begin());
  check(perfbench::trace_wrapped(ev), "a node missing seq 0 is wrapped");
}

}  // namespace

int main() {
  test_percentiles();
  test_sample_count_rule();
  test_per_op();
  test_warmup_cutoff();
  test_steal_selection();
  test_peak_rss_is_own_process();
  test_phase_split();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
