// The three benchmark workloads and the one procedure that runs them:
// build the cluster through its public API, warm up to a fixed count of
// committed ops, measure a wall-clock window, then gate on correctness.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;  // "metal-n4", "metal-n4-4k" or "sim-n40"
  std::uint64_t seed = 1;
  double seconds = 10;   // measured windows in total, wall clock
  bool trace = false;    // TraceSink on; phase split and allocation count
  bool probes = false;   // time the layer probes after the run
  std::string scratch_dir = "perfbench-scratch";  // probe files, removed
  /// Heap allocations so far, when the binary links the counting
  /// allocator (traced runs); empty otherwise.
  std::function<std::uint64_t()> allocations;
};

struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  // values the metric summarises (0 = a ratio)
};

struct RunResult {
  bool correct = false;
  std::vector<std::string> errors;  // failed correctness checks
  std::uint64_t attempted = 0;      // client requests issued
  std::uint64_t failed = 0;         // issued, neither completed nor pending
  std::map<std::string, Metric> metrics;
  /// sim-n40 only: committed ops, committed height and events executed at
  /// the warm-up cut-off — identical for every run of one build and seed.
  std::string fingerprint;

  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
  void fail(std::string why) { errors.push_back(std::move(why)); }
};

bool known_workload(const std::string& name);

/// Runs one workload in this process. Never throws; failures land in
/// result.errors and result.correct stays false.
RunResult run_workload(const RunOptions& options);

/// The result as one JSON object line.
std::string result_json(const RunOptions& options, const RunResult& result);

}  // namespace perfbench
