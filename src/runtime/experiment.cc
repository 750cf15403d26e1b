#include "runtime/experiment.h"

#include <algorithm>
#include <string>

namespace marlin::runtime {

namespace {

/// Earliest crash action in the plan (what measure_view_change anchors on).
const faults::FaultAction* earliest_crash(const faults::FaultPlan& plan) {
  const faults::FaultAction* best = nullptr;
  for (const faults::FaultAction& a : plan.actions) {
    if (a.kind != faults::FaultKind::kCrash &&
        a.kind != faults::FaultKind::kCrashLeader) {
      continue;
    }
    if (!best || a.at < best->at) best = &a;
  }
  return best;
}

void measure_view_change(Deployment& d, const ExperimentOptions& opt,
                         ViewChangeReport& out) {
  Cluster& cluster = *d.simulated();
  const faults::FaultAction* crash = earliest_crash(cluster.config().faults);
  if (!crash) return;  // nothing to anchor on

  // Run up to (and through) the crash; the controller records the resolved
  // target and the view it fired in.
  d.advance_to(crash->at);
  const faults::ExecutedAction* fired = cluster.faults().first_crash();
  if (!fired) return;
  const ReplicaId old_leader = fired->target;
  const ViewNumber old_view = fired->view;

  // Run until every correct replica commits in a higher view (or deadline).
  const Duration deadline = d.now() + opt.view_change_deadline;
  while (d.now() < deadline) {
    d.advance_to(d.now() + Duration::millis(50));
    bool all_committed = true;
    for (ReplicaId r : d.meter().correct_replicas()) {
      const auto& rp = cluster.replica(r);
      if (rp.protocol().current_view() <= old_view ||
          !rp.committed_in_current_view()) {
        all_committed = false;
        break;
      }
    }
    if (all_committed) break;
  }

  double total_ms = 0;
  std::uint32_t counted = 0;
  bool resolved = true;
  for (ReplicaId r : d.meter().correct_replicas()) {
    const auto& rp = cluster.replica(r);
    if (!rp.committed_in_current_view() ||
        rp.protocol().current_view() <= old_view) {
      resolved = false;
      continue;
    }
    total_ms +=
        (rp.first_commit_in_view() - rp.last_view_entry()).as_millis_f();
    ++counted;
  }
  out.resolved = resolved && counted > 0;
  out.mean_latency_ms = counted ? total_ms / counted : 0;
  out.new_view = cluster.max_view();
  const ReplicaId new_leader = cluster.current_leader();
  if (new_leader != old_leader) {
    auto& lp = cluster.replica(new_leader);
    if (lp.committed_in_current_view()) {
      out.leader_latency_ms =
          (lp.first_commit_in_view() - lp.last_view_entry()).as_millis_f();
    }
    if (auto* m = lp.marlin()) {
      out.unhappy_path = m->unhappy_view_changes() > 0;
    }
  }
}

void check_liveness(Deployment& d, const ExperimentOptions& opt,
                    LivenessReport& out) {
  out.checked = true;

  // Run to the quiesce point: every transient disruption over, only
  // persistent faults (≤ f crashes / Byzantine modes) remain.
  const Duration quiesce = opt.cluster.faults.quiesce_time();
  if (d.now() < quiesce) d.advance_to(quiesce);

  const std::vector<ReplicaId> correct = d.meter().correct_replicas();
  const std::vector<Height> base = d.committed_heights();
  for (ReplicaId r : correct) out.commits_at_quiesce += base[r];

  // Liveness resumed iff every correct replica commits a new block in the
  // fault-free tail (recovering replicas catch up via fetch).
  const Duration deadline = quiesce + opt.liveness_deadline;
  std::vector<Height> heights = base;
  while (d.now() < deadline) {
    d.advance_to(d.now() + Duration::millis(100));
    heights = d.committed_heights();
    bool all_advanced = true;
    for (ReplicaId r : correct) {
      if (heights[r] <= base[r]) {
        all_advanced = false;
        break;
      }
    }
    if (all_advanced) {
      out.progressed = true;
      break;
    }
  }
  for (ReplicaId r : correct) out.commits_at_end += heights[r];
}

}  // namespace

SimDeployment::SimDeployment(const ExperimentOptions& options,
                             std::size_t trace_capacity) {
  ClusterConfig config = options.cluster;
  const bool own_trace = trace_capacity > 0 && config.trace == nullptr;
  if (options.shards > 1) {
    sim::ShardedSimulator::Config ecfg;
    ecfg.seed = config.seed;
    ecfg.shards = options.shards;
    ecfg.workers = options.workers;
    ecfg.lookahead = config.net.one_way_delay;
    sharded_.emplace(ecfg);
    if (own_trace) sharded_->enable_tracing(trace_capacity);
    cluster_.emplace(*sharded_, std::move(config));
  } else {
    if (own_trace) config.trace = &trace_.emplace(trace_capacity);
    simulator_.emplace(config.seed);
    cluster_.emplace(*simulator_, std::move(config));
  }
}

void SimDeployment::start(Duration window_start, Duration window_end) {
  cluster_->set_measurement_window(TimePoint::origin() + window_start,
                                   TimePoint::origin() + window_end);
  cluster_->start();
}

Duration SimDeployment::now() const {
  return (simulator_ ? simulator_->now() : sharded_->now()) -
         TimePoint::origin();
}

void SimDeployment::advance_to(Duration t) {
  // On the sharded engine the clock stops at window barriers, where the
  // cluster is quiescent: mid-run reads are bit-deterministic.
  const TimePoint at = TimePoint::origin() + t;
  if (simulator_) {
    simulator_->run_until(at);
  } else {
    sharded_->run_until(at);
  }
}

std::vector<Height> SimDeployment::committed_heights() {
  std::vector<Height> out(cluster_->n());
  for (ReplicaId r = 0; r < cluster_->n(); ++r) {
    out[r] = cluster_->replica(r).protocol().committed_height();
  }
  return out;
}

obs::MetricsRegistry SimDeployment::metrics() {
  obs::MetricsRegistry reg;
  cluster_->export_metrics(reg);
  return reg;
}

std::vector<const obs::TraceSink*> SimDeployment::trace_sinks() const {
  // With the sharded engine tracing, the cluster's config trace is the
  // engine's control-lane sink, one of its sinks.
  if (sharded_ && sharded_->tracing()) return sharded_->trace_sinks();
  if (const obs::TraceSink* sink = cluster_->config().trace) return {sink};
  return {};
}

std::string SimDeployment::engine() const {
  if (!sharded_) return "sim";
  return "sim: " + std::to_string(sharded_->shards()) + " shards x " +
         std::to_string(sharded_->workers()) + " workers (lookahead " +
         sharded_->lookahead().to_string() + ")";
}

std::uint64_t SimDeployment::events_executed() const {
  return simulator_ ? simulator_->events_executed()
                    : sharded_->events_executed();
}

Result<std::vector<obs::TraceEvent>> Deployment::trace() const {
  const std::vector<const obs::TraceSink*> sinks = trace_sinks();
  if (sinks.empty()) {
    return error(ErrorCode::kUnavailable, "tracing is off");
  }
  return obs::merge_traces(sinks);
}

std::uint64_t Deployment::trace_evicted() const {
  return obs::evicted_events(trace_sinks());
}

ExperimentReport run_experiment(const ExperimentOptions& options,
                                Deployment& d) {
  ExperimentReport rep;
  rep.status = d.ok();
  if (rep.status.is_ok() && options.measure_view_change && !d.simulated()) {
    rep.status = error(ErrorCode::kInvalidArgument,
                       "measure_view_change runs only on the simulator (it "
                       "reads replica state mid-run)");
  }
  if (!rep.status.is_ok()) return rep;

  const Duration w_end = options.warmup + options.measure;
  d.start(options.warmup, w_end);
  if (options.measure_view_change) {
    measure_view_change(d, options, rep.view_change);
  }
  if (options.check_liveness) {
    check_liveness(d, options, rep.liveness);
  }
  if (options.on_sample && options.sample_every > Duration::zero()) {
    for (Duration t = options.sample_every; t < w_end;
         t += options.sample_every) {
      d.advance_to(t);
      options.on_sample(d.now(), d.metrics());
    }
  }
  const Duration run_to = w_end + options.drain;
  if (d.now() < run_to) d.advance_to(run_to);
  d.stop();

  const ClusterMetrology& m = d.meter();
  rep.throughput_ops = m.client_throughput();
  rep.mean_latency_ms = m.mean_latency_ms();
  rep.p50_latency_ms = m.latency_ms(50);
  rep.p95_latency_ms = m.latency_ms(95);
  rep.total_completed = m.total_completed();
  rep.safety_ok = !m.any_safety_violation();
  rep.consistent = m.committed_heights_consistent();
  rep.final_view = m.max_view();
  rep.fault_log = d.fault_log();
  rep.status = d.ok();
  if (options.metrics) *options.metrics = d.metrics();
  return rep;
}

ExperimentReport run_experiment(const ExperimentOptions& options) {
  SimDeployment d(options);
  return run_experiment(options, d);
}

ExperimentOptions throughput_options(ClusterConfig cluster, Duration warmup,
                                     Duration measure) {
  ExperimentOptions opt;
  opt.cluster = std::move(cluster);
  opt.warmup = warmup;
  opt.measure = measure;
  opt.drain = Duration::seconds(2);
  return opt;
}

ExperimentOptions view_change_options(ClusterConfig cluster,
                                      bool force_unhappy, Duration crash_at) {
  ExperimentOptions opt;
  opt.cluster = std::move(cluster);
  opt.cluster.consensus.disable_happy_path = force_unhappy;
  // A short, predictable timeout: the paper measures from VC start (timer
  // firing), so the timeout itself is excluded either way.
  opt.cluster.consensus.pacemaker.base_timeout = Duration::millis(600);
  opt.cluster.consensus.allow_empty_blocks = false;
  opt.cluster.faults.actions.push_back(
      faults::FaultAction::crash_leader(crash_at));
  opt.measure_view_change = true;
  // The pre-crash traffic is the measurement window; drain is unused (the
  // view-change poll runs the clock well past it).
  opt.warmup = Duration::millis(500);
  opt.measure = crash_at - Duration::millis(500);
  opt.drain = Duration::zero();
  return opt;
}

}  // namespace marlin::runtime
