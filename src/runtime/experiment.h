// The one experiment procedure shared by every benchmark binary, test, and
// CLI tool, on every backend: build a deployment from a ClusterConfig (fault
// plan included), run it, and measure. One run_experiment() drives the
// single-queue simulator, the sharded engine and metal (src/realnet) through
// the Deployment seam below, whose implementations differ only in transport
// and clock; its options select which measurements are taken, and fault
// scenarios are data (faults::FaultPlan), not bespoke driver code. A
// simulated run is deterministic given its options (seed included).
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "runtime/cluster.h"

namespace marlin::runtime {

struct ExperimentOptions {
  /// Deployment under test, including the fault plan to execute.
  ClusterConfig cluster;

  /// Throughput/latency measurement window: [warmup, warmup + measure),
  /// with `drain` of extra run time past the window end.
  Duration warmup = Duration::seconds(2);
  Duration measure = Duration::seconds(10);
  Duration drain = Duration::seconds(2);

  /// Measure view-change latency around the plan's first crash (paper
  /// Fig. 10i methodology): after the crash fires, run until every correct
  /// replica commits in a view above the crash view, up to the deadline.
  /// Requires a crash/crash_leader action in the plan. Simulator only: it
  /// reads replica state mid-run, which metal allows only while stopped.
  bool measure_view_change = false;
  Duration view_change_deadline = Duration::seconds(30);

  /// Check that commits resume after the plan quiesces (all transient
  /// disruptions over): every correct replica must commit a block it had
  /// not committed at quiesce time, within `liveness_deadline` of it.
  /// Extends the run past the quiesce point as needed.
  bool check_liveness = false;
  Duration liveness_deadline = Duration::seconds(20);

  /// When non-null, the cluster's full metrics snapshot is exported into
  /// it after the run (pair with cluster.trace for the event stream).
  obs::MetricsRegistry* metrics = nullptr;

  /// Simulated engine: 1 = the single-queue Simulator; K > 1 = the sharded
  /// engine with K shards on `workers` threads (0 = one per core), whose
  /// lookahead is cluster.net.one_way_delay (must be positive).
  std::uint32_t shards = 1;
  std::uint32_t workers = 0;

  /// When set, called with the run time and a metrics snapshot every
  /// `sample_every` of run time before the window end (a metric series).
  std::function<void(Duration at, const obs::MetricsRegistry&)> on_sample;
  Duration sample_every = Duration::seconds(1);
};

struct ViewChangeReport {
  bool resolved = false;  // every correct replica committed in a new view
  /// Mean over correct replicas of (first commit after VC − VC start).
  double mean_latency_ms = 0;
  double leader_latency_ms = 0;  // measured at the new leader
  ViewNumber new_view = 0;
  bool unhappy_path = false;  // the new leader ran PRE-PREPARE
};

struct LivenessReport {
  bool checked = false;
  bool progressed = false;  // all correct replicas committed post-quiesce
  /// Committed blocks across correct replicas at quiesce / at run end.
  std::uint64_t commits_at_quiesce = 0;
  std::uint64_t commits_at_end = 0;
};

struct ExperimentReport {
  // Measurement-window metrics (closed-loop clients).
  double throughput_ops = 0;  // completed ops / second in window
  double mean_latency_ms = 0;
  double p50_latency_ms = 0;
  double p95_latency_ms = 0;
  std::uint64_t total_completed = 0;

  // Invariants, checked after every run.
  bool safety_ok = true;    // no replica flagged a local safety violation
  bool consistent = true;   // committed prefixes agree across live replicas
  ViewNumber final_view = 0;

  ViewChangeReport view_change;  // populated iff measure_view_change
  LivenessReport liveness;       // populated iff check_liveness

  /// The fault actions that actually fired, with resolved targets.
  std::vector<faults::ExecutedAction> fault_log;

  /// Why the run could not start or a fault action failed (a bind error, a
  /// plan the backend cannot execute, a relaunch that did not recover).
  Status status;

  bool ok() const {
    return status.is_ok() && safety_ok && consistent &&
           (!liveness.checked || liveness.progressed);
  }
};

/// One deployment as the experiment procedure sees it: the seam between
/// run_experiment and a backend. It moves the run's clock, fires the fault
/// plan's actions as their times pass, and hands out what the cluster-level
/// reads need: the metrology (ClusterMetrology, whose correct-replica rule
/// is written once for both backends), a metrics snapshot and the trace
/// sinks, which trace() merges with obs::merge_traces on every backend.
/// SimDeployment below implements it on the simulator;
/// realnet::MetalDeployment on 127.0.0.1 TCP.
class Deployment {
 public:
  virtual ~Deployment() = default;

  /// Construction and fault-action errors so far; run_experiment starts
  /// nothing while this fails.
  virtual Status ok() const = 0;
  /// Sets the measurement window [window_start, window_end) of run time,
  /// arms the plan and starts every node; run time 0 is this call.
  virtual void start(Duration window_start, Duration window_end) = 0;
  /// Run time reached so far.
  virtual Duration now() const = 0;
  /// Moves the clock to run time `t` (never back), firing every plan
  /// action whose time passes.
  virtual void advance_to(Duration t) = 0;
  /// Stops every node; the metrology below needs it on metal.
  virtual void stop() {}

  /// Every replica's committed height, by id; readable mid-run.
  virtual std::vector<Height> committed_heights() = 0;

  virtual const ClusterMetrology& meter() const = 0;
  virtual obs::MetricsRegistry metrics() = 0;
  /// The trace rings the nodes record into; empty when tracing is off.
  virtual std::vector<const obs::TraceSink*> trace_sinks() const = 0;
  /// Every sink's events, merged by obs::merge_traces; fails when tracing
  /// is off, rather than passing for a run in which nothing happened.
  Result<std::vector<obs::TraceEvent>> trace() const;
  /// Events the trace rings evicted (lost from trace()).
  std::uint64_t trace_evicted() const;
  virtual std::vector<faults::ExecutedAction> fault_log() const = 0;
  /// One-line engine description for run summaries.
  virtual std::string engine() const = 0;

  /// The simulated cluster, for measurements that read replica state
  /// mid-run (the view-change stopwatch); null on metal.
  virtual Cluster* simulated() { return nullptr; }
};

/// The simulator backend: options.shards picks the single-queue Simulator
/// or the sharded engine. With `trace_capacity` > 0 and no
/// options.cluster.trace, the deployment traces into its own ring(s) of
/// that size (one per shard on the sharded engine); trace() reads them.
class SimDeployment final : public Deployment {
 public:
  explicit SimDeployment(const ExperimentOptions& options,
                         std::size_t trace_capacity = 0);

  Status ok() const override { return Status::ok(); }
  void start(Duration window_start, Duration window_end) override;
  Duration now() const override;
  void advance_to(Duration t) override;
  std::vector<Height> committed_heights() override;
  const ClusterMetrology& meter() const override { return *cluster_; }
  obs::MetricsRegistry metrics() override;
  std::vector<const obs::TraceSink*> trace_sinks() const override;
  std::vector<faults::ExecutedAction> fault_log() const override {
    return cluster_->faults().log();
  }
  std::string engine() const override;
  Cluster* simulated() override { return &*cluster_; }

  std::uint64_t events_executed() const;
  /// Threads the engine runs on (1 for the single-queue Simulator).
  std::uint32_t workers() const { return sharded_ ? sharded_->workers() : 1; }

 private:
  std::optional<obs::TraceSink> trace_;
  std::optional<sim::Simulator> simulator_;
  std::optional<sim::ShardedSimulator> sharded_;
  std::optional<Cluster> cluster_;
};

/// Starts the deployment, runs the plan, measures, and stops it: how every
/// tool and figure bench runs a deployment, on either backend. Only code
/// that times or probes the run phase alone (bench_selfperf, Table I,
/// tests) drives a Deployment or a Cluster by hand.
ExperimentReport run_experiment(const ExperimentOptions& options,
                                Deployment& deployment);
/// run_experiment on a SimDeployment built from `options`.
ExperimentReport run_experiment(const ExperimentOptions& options);

/// Options for a plain warmup + measure throughput run.
ExperimentOptions throughput_options(ClusterConfig cluster, Duration warmup,
                                     Duration measure);

/// Options for the Fig. 10i leader-crash view-change run: commits traffic
/// for `crash_at`, crashes the then-current leader via the plan, and
/// measures view-change latency. `force_unhappy` disables Marlin's happy
/// path (and pins a short, predictable pacemaker timeout either way — the
/// paper measures from VC start, so the timeout itself is excluded).
ExperimentOptions view_change_options(ClusterConfig cluster,
                                      bool force_unhappy,
                                      Duration crash_at =
                                          Duration::seconds(3));

}  // namespace marlin::runtime
