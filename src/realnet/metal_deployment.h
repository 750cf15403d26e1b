// The metal backend of runtime::run_experiment: a RealCluster on 127.0.0.1
// TCP behind the runtime::Deployment seam, on the monotonic clock. The
// procedure's clock moves by sleeping in 20 ms polls, and the plan's
// actions fire as their times pass: `crash` kills a replica, `restart`
// kills it and relaunches it from its data dir after `duration` (it must
// come back recovered). Every other action kind is rejected at
// construction, before any thread starts.
#pragma once

#include <memory>
#include <vector>

#include "realnet/real_cluster.h"
#include "runtime/experiment.h"

namespace marlin::realnet {

class MetalDeployment final : public runtime::Deployment {
 public:
  explicit MetalDeployment(const runtime::ExperimentOptions& options,
                           RealClusterOptions real = {});

  Status ok() const override { return status_; }
  void start(Duration window_start, Duration window_end) override;
  Duration now() const override;
  void advance_to(Duration t) override;
  void stop() override { cluster_->stop(); }
  std::vector<Height> committed_heights() override;
  const runtime::ClusterMetrology& meter() const override {
    return *cluster_;
  }
  obs::MetricsRegistry metrics() override {
    return cluster_->sample_metrics();
  }
  std::vector<const obs::TraceSink*> trace_sinks() const override {
    return cluster_->trace_sinks();
  }
  /// One entry per fired action, at its kill time; `view` stays 0.
  std::vector<faults::ExecutedAction> fault_log() const override {
    return log_;
  }
  std::string engine() const override { return "metal: 127.0.0.1 TCP"; }

  /// Null when the plan was rejected.
  RealCluster* cluster() { return cluster_.get(); }

 private:
  /// A kill or a relaunch, at run time `at`, of plan action `index`.
  struct Step {
    Duration at;
    std::size_t index;
    bool relaunch;
  };
  void fire(const Step& step, Duration now);

  faults::FaultPlan plan_;
  Status status_;
  std::unique_ptr<RealCluster> cluster_;
  std::vector<Step> steps_;  // by time
  std::size_t next_step_ = 0;
  TimePoint t0_;
  std::vector<faults::ExecutedAction> log_;
};

}  // namespace marlin::realnet
