// chaos_search — randomized fault-plan sweeps over the simulated testbed.
//
// Draws N fault plans from a seeded rng (faults/chaos.h), runs each one
// against a cluster, and checks the two protocol invariants after every
// run: safety (no local violation, committed prefixes consistent) and
// liveness (commits resume once the plan quiesces). One JSONL verdict per
// (protocol, plan) goes to stdout; the sweep exits non-zero if any verdict
// fails.
//
// Every verdict is replayable: plan index i is generated from seed + i, so
//
//   chaos_search --plans 50 --protocol marlin --seed 1
//   chaos_search --protocol marlin --seed 1 --replay 17
//                --plan-out plan17.json --trace-out run17.trace.jsonl
//
// re-runs schedule 17 bit-identically and dumps its plan + golden trace.
// A dumped plan replays through `marlin_run --backend=sim --faults
// plan17.json` or via --replay ... --plan plan17.json (which proves the
// artifact, not the generator, drives the run).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_flags.h"
#include "faults/chaos.h"
#include "faults/safety_oracle.h"
#include "obs/export.h"
#include "runtime/experiment.h"

using namespace marlin;

namespace {

struct Options {
  std::uint32_t plans = 20;
  std::uint32_t jobs = 1;
  std::string protocol = "both";  // marlin | hotstuff | both
  std::uint64_t seed = 1;
  std::uint32_t f = 1;
  std::int64_t horizon_ms = 8000;
  std::string out;        // also write the JSONL verdicts here
  std::int64_t replay = -1;   // run only this plan index
  std::string plan_in;    // --replay: load the plan from JSON instead
  std::string plan_out;   // --replay: dump the plan JSON here
  std::string trace_out;  // --replay: dump the golden trace here
  bool determinism_check = false;  // --replay: run twice, compare traces
  bool help = false;
};

void usage() {
  std::printf(
      "chaos_search — randomized fault-plan sweep with invariant checks\n\n"
      "  --plans=N            schedules per protocol (default 20)\n"
      "  --jobs=N             run schedules on N worker threads (default 1).\n"
      "                       Each schedule owns its own simulator, so per-\n"
      "                       plan determinism and the verdict order (sorted\n"
      "                       by protocol, then seed) are unchanged\n"
      "  --protocol=NAME      marlin | hotstuff | both (default both)\n"
      "  --seed=N             base seed; plan i uses seed+i (default 1)\n"
      "  --f=N                fault threshold; n = 3f+1 (default 1)\n"
      "  --horizon-ms=N       all transient faults quiesce by here (8000)\n"
      "  --out=PATH           also append the JSONL verdicts to PATH\n"
      "  --replay=I           run only plan index I (single protocol)\n"
      "  --plan=PATH          with --replay: load this plan JSON instead\n"
      "                       of regenerating from the seed\n"
      "  --plan-out=PATH      with --replay: dump the plan as JSON\n"
      "  --trace-out=PATH     with --replay: dump the golden trace JSONL\n"
      "  --determinism-check  with --replay: run the schedule twice and\n"
      "                       require bit-identical traces\n\n"
      "Every run (sweep and replay) also passes the cross-restart safety\n"
      "oracle: no honest replica may double-vote or commit conflicting\n"
      "blocks across restart/wipe_disk incarnations.\n");
}

bool parse_options(int argc, char** argv, Options* opt) {
  cli::ArgCursor args(argc, argv);
  while (args.next()) {
    if (args.flag("--help")) {
      opt->help = true;
    } else if (args.u32("--plans", &opt->plans)) {
    } else if (args.u32("--jobs", &opt->jobs)) {
      if (opt->jobs == 0) opt->jobs = 1;
    } else if (args.str("--protocol", &opt->protocol)) {
    } else if (args.u64("--seed", &opt->seed)) {
    } else if (args.u32("--f", &opt->f)) {
    } else if (args.i64("--horizon-ms", &opt->horizon_ms)) {
    } else if (args.str("--out", &opt->out)) {
    } else if (args.i64("--replay", &opt->replay)) {
    } else if (args.str("--plan-out", &opt->plan_out)) {
    } else if (args.str("--plan", &opt->plan_in)) {
    } else if (args.str("--trace-out", &opt->trace_out)) {
    } else if (args.flag("--determinism-check")) {
      opt->determinism_check = true;
    } else {
      args.fail_unknown();
    }
  }
  if (!args.ok()) return false;
  if (opt->protocol != "marlin" && opt->protocol != "hotstuff" &&
      opt->protocol != "both") {
    std::fprintf(stderr, "unknown protocol '%s'\n", opt->protocol.c_str());
    return false;
  }
  if (opt->replay >= 0 && opt->protocol == "both") {
    std::fprintf(stderr, "--replay needs a single --protocol\n");
    return false;
  }
  // Replay-only flags must not be silently ignored: a sweep that "ran" a
  // hand-edited plan which never loaded is a false all-clear.
  if (opt->replay < 0) {
    const char* stray = nullptr;
    if (!opt->plan_in.empty()) stray = "--plan";
    else if (!opt->plan_out.empty()) stray = "--plan-out";
    else if (!opt->trace_out.empty()) stray = "--trace-out";
    else if (opt->determinism_check) stray = "--determinism-check";
    if (stray != nullptr) {
      std::fprintf(stderr,
                   "%s only applies to replay mode; add --replay=I "
                   "(sweep mode would ignore it)\n",
                   stray);
      return false;
    }
  }
  return true;
}

/// The plan for schedule index i: a pure function of (seed, i, f, horizon).
faults::FaultPlan plan_for(const Options& opt, std::uint32_t index) {
  Rng rng(opt.seed + index);
  faults::ChaosOptions copt;
  copt.f = opt.f;
  copt.horizon = Duration::millis(opt.horizon_ms);
  faults::FaultPlan plan = faults::random_plan(rng, copt);
  char name[64];
  std::snprintf(name, sizeof name, "chaos-s%llu-%u",
                static_cast<unsigned long long>(opt.seed), index);
  plan.name = name;
  return plan;
}

/// Replicas the plan makes Byzantine — excluded from the safety oracle
/// (an equivocator double-votes by design).
std::vector<std::uint32_t> byzantine_nodes(const faults::FaultPlan& plan) {
  std::vector<std::uint32_t> out;
  for (const faults::FaultAction& a : plan.actions) {
    if (a.kind == faults::FaultKind::kByzantine &&
        a.mode != faults::ByzantineMode::kHonest) {
      out.push_back(a.replica);
    }
  }
  return out;
}

/// Sweep-mode sink: only the event types the safety oracle consumes, so a
/// long schedule cannot evict the early votes the cross-restart check
/// needs.
void enable_oracle_events_only(obs::TraceSink& sink) {
  for (std::size_t t = 0; t < obs::kEventTypeCount; ++t) {
    const auto type = static_cast<obs::EventType>(t);
    sink.set_enabled(type, type == obs::EventType::kVoteSent ||
                               type == obs::EventType::kCommit);
  }
}

runtime::ExperimentReport run_one(const Options& opt, runtime::ProtocolKind protocol,
                                  std::uint32_t index,
                                  const faults::FaultPlan& plan,
                                  obs::TraceSink* trace) {
  runtime::ClusterConfig cfg;
  cfg.f = opt.f;
  cfg.seed = opt.seed + index;
  cfg.consensus.protocol = protocol;
  cfg.consensus.pacemaker.base_timeout = Duration::millis(600);
  // Symmetry-breaking timeout skew: without it, crash plans that leave
  // exactly a quorum of correct replicas can pin the survivors one view
  // apart in deterministic lockstep forever (see PacemakerConfig). The
  // backoff cap stays commensurate with the short horizon so a desynced
  // cluster gets several (jittered) re-election attempts before the run
  // ends instead of one 30-second view.
  cfg.consensus.pacemaker.timeout_jitter = 0.25;
  cfg.consensus.pacemaker.max_timeout = Duration::millis(1500);
  cfg.clients.count = 4;
  cfg.clients.window = 8;
  cfg.faults = plan;
  cfg.trace = trace;

  runtime::ExperimentOptions exp = runtime::throughput_options(
      cfg, Duration::millis(500),
      Duration::millis(opt.horizon_ms) - Duration::millis(500));
  exp.check_liveness = true;
  return runtime::run_experiment(exp);
}

/// Runs the cross-restart safety oracle over a finished run's trace.
/// Violation descriptions are appended to *errs (the caller decides when to
/// emit them — sweep workers buffer so parallel jobs don't interleave).
/// Returns true when the trace is clean.
bool oracle_clean(const obs::TraceSink& trace, const faults::FaultPlan& plan,
                  const char* protocol, std::uint32_t index,
                  std::string* errs) {
  const auto violations =
      faults::check_cross_restart_safety(trace.events(), byzantine_nodes(plan));
  for (const faults::SafetyViolation& v : violations) {
    char buf[512];
    std::snprintf(buf, sizeof buf, "ORACLE %s plan %u: %s\n", protocol, index,
                  v.describe().c_str());
    *errs += buf;
  }
  return violations.empty();
}

std::string verdict_line(const Options& opt, const char* protocol,
                         std::uint32_t index, const faults::FaultPlan& plan,
                         const runtime::ExperimentReport& rep,
                         bool oracle_ok) {
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "{\"index\":%u,\"protocol\":\"%s\",\"seed\":%llu,\"plan\":\"%s\","
      "\"actions\":%zu,\"safety_ok\":%s,\"consistent\":%s,\"oracle_ok\":%s,"
      "\"liveness_ok\":%s,\"commits_at_quiesce\":%llu,"
      "\"commits_at_end\":%llu,\"final_view\":%llu,\"ok\":%s}",
      index, protocol, static_cast<unsigned long long>(opt.seed + index),
      plan.name.c_str(), plan.actions.size(), rep.safety_ok ? "true" : "false",
      rep.consistent ? "true" : "false", oracle_ok ? "true" : "false",
      rep.liveness.progressed ? "true" : "false",
      static_cast<unsigned long long>(rep.liveness.commits_at_quiesce),
      static_cast<unsigned long long>(rep.liveness.commits_at_end),
      static_cast<unsigned long long>(rep.final_view),
      rep.ok() && oracle_ok ? "true" : "false");
  return buf;
}

/// One (protocol, plan-index) schedule of the sweep.
struct SweepItem {
  runtime::ProtocolKind protocol;
  const char* pname;
  std::uint32_t index;
};

struct SweepResult {
  std::string line;   // verdict JSONL
  std::string errs;   // buffered stderr (oracle violations, replay hint)
  bool ok = false;
  std::size_t restart_actions = 0;
  std::size_t wipe_actions = 0;
};

/// Runs one schedule end-to-end. Self-contained: its own plan, Simulator,
/// and TraceSink, with all diagnostics buffered — safe to call from worker
/// threads.
SweepResult run_sweep_item(const Options& opt, const SweepItem& item) {
  SweepResult res;
  const faults::FaultPlan plan = plan_for(opt, item.index);
  for (const faults::FaultAction& a : plan.actions) {
    if (a.kind == faults::FaultKind::kRestart) ++res.restart_actions;
    if (a.kind == faults::FaultKind::kWipeDisk) ++res.wipe_actions;
  }
  obs::TraceSink trace{1 << 18};
  enable_oracle_events_only(trace);
  const auto rep = run_one(opt, item.protocol, item.index, plan, &trace);
  const bool oracle_ok =
      oracle_clean(trace, plan, item.pname, item.index, &res.errs);
  res.line = verdict_line(opt, item.pname, item.index, plan, rep, oracle_ok);
  res.ok = rep.ok() && oracle_ok;
  if (!res.ok) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "FAIL %s plan %u — replay with: chaos_search "
                  "--protocol=%s --seed=%llu --f=%u --horizon-ms=%lld "
                  "--replay=%u\n",
                  item.pname, item.index, item.pname,
                  static_cast<unsigned long long>(opt.seed), opt.f,
                  static_cast<long long>(opt.horizon_ms), item.index);
    res.errs += buf;
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, &opt)) return 2;
  if (opt.help) {
    usage();
    return 0;
  }

  std::ofstream out;
  if (!opt.out.empty()) {
    out.open(opt.out, std::ios::app);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", opt.out.c_str());
      return 2;
    }
  }

  std::vector<runtime::ProtocolKind> protocols;
  if (opt.protocol != "hotstuff") protocols.push_back(runtime::ProtocolKind::kMarlin);
  if (opt.protocol != "marlin") protocols.push_back(runtime::ProtocolKind::kHotStuff);

  // -- replay mode: one schedule, full artifacts --------------------------
  if (opt.replay >= 0) {
    const auto index = static_cast<std::uint32_t>(opt.replay);
    faults::FaultPlan plan;
    if (!opt.plan_in.empty()) {
      std::string body;
      if (!obs::read_text_file(opt.plan_in, &body)) {
        std::fprintf(stderr, "cannot read fault plan %s\n",
                     opt.plan_in.c_str());
        return 2;
      }
      auto parsed = faults::FaultPlan::from_json(body);
      if (!parsed.is_ok()) {
        std::fprintf(stderr, "bad fault plan %s: %s\n", opt.plan_in.c_str(),
                     parsed.status().message().c_str());
        return 2;
      }
      plan = std::move(parsed).take();
    } else {
      plan = plan_for(opt, index);
    }
    obs::TraceSink trace{1 << 18};
    const auto rep = run_one(opt, protocols[0], index, plan, &trace);
    std::string oracle_errs;
    const bool oracle_ok =
        oracle_clean(trace, plan, opt.protocol.c_str(), index, &oracle_errs);
    std::fputs(oracle_errs.c_str(), stderr);
    if (opt.determinism_check) {
      // Same seed + same plan must drive a byte-identical event stream —
      // restart/wipe_disk revivals included. CI pins this for a schedule
      // that contains both.
      obs::TraceSink again{1 << 18};
      (void)run_one(opt, protocols[0], index, plan, &again);
      const std::string a = obs::trace_to_jsonl(trace);
      const std::string b = obs::trace_to_jsonl(again);
      if (a != b) {
        std::fprintf(stderr, "determinism check FAILED: %zu vs %zu trace bytes\n",
                     a.size(), b.size());
        return 1;
      }
      std::fprintf(stderr, "determinism ok: %zu events, %zu trace bytes\n",
                   trace.events().size(), a.size());
    }
    const std::string line =
        verdict_line(opt, opt.protocol.c_str(), index, plan, rep, oracle_ok);
    std::printf("%s\n", line.c_str());
    if (out) out << line << "\n";
    if (!opt.plan_out.empty() &&
        !obs::write_text_file(opt.plan_out, plan.to_json())) {
      std::fprintf(stderr, "failed to write %s\n", opt.plan_out.c_str());
      return 2;
    }
    if (!opt.trace_out.empty()) {
      if (!obs::write_text_file(opt.trace_out, obs::trace_to_jsonl(trace))) {
        std::fprintf(stderr, "failed to write %s\n", opt.trace_out.c_str());
        return 2;
      }
    }
    return rep.ok() && oracle_ok ? 0 : 1;
  }

  // -- sweep mode ---------------------------------------------------------
  // The item list fixes the verdict order (protocol-major, then plan index
  // == ascending seed); workers may finish out of order but results are
  // emitted by item position, so --jobs N output is identical to --jobs 1.
  std::vector<SweepItem> items;
  for (runtime::ProtocolKind protocol : protocols) {
    const char* pname =
        protocol == runtime::ProtocolKind::kMarlin ? "marlin" : "hotstuff";
    for (std::uint32_t i = 0; i < opt.plans; ++i) {
      items.push_back(SweepItem{protocol, pname, i});
    }
  }

  std::vector<SweepResult> results(items.size());
  const std::uint32_t jobs =
      std::min<std::uint32_t>(opt.jobs, static_cast<std::uint32_t>(items.size()));

  // Progress heartbeat: long sweeps print a stderr line every couple of
  // seconds (plans done/total, rate, verdict counts) so a CI log or a
  // terminal shows the sweep is alive. stderr only — stdout and --out stay
  // byte-identical across --jobs values and heartbeat timing.
  const auto sweep_start = std::chrono::steady_clock::now();
  auto emit_heartbeat = [&](std::size_t done_count, std::uint32_t fail_count) {
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      sweep_start)
            .count();
    std::fprintf(stderr, "progress: %zu/%zu plans (%.1f plans/s, ok=%zu "
                         "fail=%u)\n",
                 done_count, items.size(), secs > 0 ? done_count / secs : 0.0,
                 done_count - fail_count, fail_count);
  };
  constexpr auto kHeartbeatPeriod = std::chrono::seconds(2);

  if (jobs <= 1) {
    // Sequential: stream each verdict as it lands.
    auto last_beat = sweep_start;
    std::uint32_t fail_count = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      results[i] = run_sweep_item(opt, items[i]);
      if (!results[i].ok) ++fail_count;
      std::printf("%s\n", results[i].line.c_str());
      std::fflush(stdout);
      std::fputs(results[i].errs.c_str(), stderr);
      if (out) out << results[i].line << "\n";
      if (const auto now = std::chrono::steady_clock::now();
          now - last_beat >= kHeartbeatPeriod && i + 1 < items.size()) {
        emit_heartbeat(i + 1, fail_count);
        last_beat = now;
      }
    }
  } else {
    // Parallel: every schedule owns its Simulator, cluster, and TraceSink;
    // shared crypto memos are thread_local or per-suite, so jobs never
    // share mutable state. Claim items off an atomic cursor, then emit in
    // item order after the join. The main thread doubles as the heartbeat
    // monitor while workers run.
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<std::uint32_t> failed{0};
    std::vector<std::thread> workers;
    workers.reserve(jobs);
    for (std::uint32_t w = 0; w < jobs; ++w) {
      workers.emplace_back([&]() {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= items.size()) return;
          results[i] = run_sweep_item(opt, items[i]);
          if (!results[i].ok) failed.fetch_add(1);
          done.fetch_add(1);
        }
      });
    }
    auto last_beat = sweep_start;
    while (done.load() < items.size()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (const auto now = std::chrono::steady_clock::now();
          now - last_beat >= kHeartbeatPeriod) {
        emit_heartbeat(done.load(), failed.load());
        last_beat = now;
      }
    }
    for (std::thread& w : workers) w.join();
    for (const SweepResult& r : results) {
      std::printf("%s\n", r.line.c_str());
      std::fputs(r.errs.c_str(), stderr);
      if (out) out << r.line << "\n";
    }
    std::fflush(stdout);
  }

  std::uint32_t failures = 0;
  std::size_t plans_with_restart = 0, plans_with_wipe = 0;
  for (const SweepResult& r : results) {
    if (!r.ok) ++failures;
    plans_with_restart += r.restart_actions;
    plans_with_wipe += r.wipe_actions;
  }
  if (failures > 0) {
    std::fprintf(stderr, "%u/%zu schedules failed\n", failures,
                 static_cast<std::size_t>(opt.plans) * protocols.size());
    return 1;
  }
  // Coverage footer (action counts over both protocol passes): CI pins
  // that a smoke sweep actually exercised restart and wipe_disk revivals.
  std::fprintf(stderr, "action coverage: restart=%zu wipe_disk=%zu\n",
               plans_with_restart, plans_with_wipe);
  std::fprintf(stderr, "all %zu schedules ok\n",
               static_cast<std::size_t>(opt.plans) * protocols.size());
  return 0;
}
