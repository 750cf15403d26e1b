#include "realnet/metal_deployment.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

namespace marlin::realnet {

namespace {

/// Why metal cannot execute `a` (ok when it can).
Status check_action(const faults::FaultAction& a, std::uint32_t n,
                    const RealClusterOptions& real) {
  const auto bad = [&a](const std::string& why) {
    return error(ErrorCode::kInvalidArgument, std::string("fault action ") +
                                                  fault_kind_name(a.kind) +
                                                  why);
  };
  const bool restart = a.kind == faults::FaultKind::kRestart;
  if (a.kind != faults::FaultKind::kCrash && !restart) {
    return bad(" has no metal implementation (crash and restart do)");
  }
  if (a.replica >= n) {
    return bad(": replica " + std::to_string(a.replica) +
               " out of range (n=" + std::to_string(n) + ")");
  }
  if (restart && real.data_dir.empty()) {
    return bad(" needs a data dir (an in-memory replica has nothing to "
               "recover from)");
  }
  return Status::ok();
}

}  // namespace

MetalDeployment::MetalDeployment(const runtime::ExperimentOptions& options,
                                 RealClusterOptions real)
    : plan_(options.cluster.faults) {
  const std::uint32_t n = 3 * options.cluster.f + 1;
  for (std::size_t i = 0; i < plan_.actions.size(); ++i) {
    const faults::FaultAction& a = plan_.actions[i];
    status_ = check_action(a, n, real);
    if (!status_.is_ok()) return;
    steps_.push_back(Step{a.at, i, false});
    if (a.kind == faults::FaultKind::kRestart) {
      steps_.push_back(Step{a.at + a.duration, i, true});
    }
  }
  std::stable_sort(steps_.begin(), steps_.end(),
                   [](const Step& a, const Step& b) { return a.at < b.at; });
  cluster_ = std::make_unique<RealCluster>(options.cluster, std::move(real));
  status_ = cluster_->ok();
}

void MetalDeployment::start(Duration window_start, Duration window_end) {
  t0_ = mono_now();
  cluster_->set_measurement_window(t0_ + window_start, t0_ + window_end);
  cluster_->start();
}

Duration MetalDeployment::now() const { return mono_now() - t0_; }

void MetalDeployment::advance_to(Duration t) {
  for (;;) {
    const Duration now = this->now();
    while (next_step_ < steps_.size() && steps_[next_step_].at <= now) {
      fire(steps_[next_step_++], now);
    }
    if (now >= t) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

void MetalDeployment::fire(const Step& step, Duration now) {
  const faults::FaultAction& a = plan_.actions[step.index];
  if (!step.relaunch) {
    cluster_->kill_replica(a.replica);
    log_.push_back(faults::ExecutedAction{step.index, a.kind, a.replica,
                                          TimePoint::origin() + now, 0});
    return;
  }
  const std::string r = std::to_string(a.replica);
  Status s = cluster_->relaunch_replica(a.replica);
  if (!s.is_ok()) {
    s = error(s.code(), "relaunch " + r + " failed: " + s.message());
  } else if (!cluster_->replica(a.replica).recovered()) {
    s = error(ErrorCode::kInternal,
              "relaunch " + r + " came back with no recovered state");
  }
  if (status_.is_ok()) status_ = s;
}

std::vector<Height> MetalDeployment::committed_heights() {
  const obs::MetricsRegistry reg = cluster_->sample_metrics();
  std::vector<Height> out(cluster_->n());
  for (ReplicaId r = 0; r < cluster_->n(); ++r) {
    out[r] = static_cast<Height>(reg.gauge_value(
        "replica.committed_height", "replica=" + std::to_string(r)));
  }
  return out;
}

}  // namespace marlin::realnet
