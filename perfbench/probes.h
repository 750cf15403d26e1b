// Layer probes: direct timed calls to the public functions of crypto,
// types, common, storage and simnet, with inputs sized from the
// workload's own run (its n, n−f, request size and mean ops per block).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "workloads.h"

namespace perfbench {

struct ProbeInputs {
  std::uint32_t n = 4;
  std::uint32_t quorum = 3;       // n − f: signatures in a QC
  std::size_t payload = 150;      // request bytes
  std::size_t ops_per_block = 1;  // the run's mean
  std::uint64_t seed = 1;
  std::string scratch_dir;        // posix-env store; removed afterwards

  static ProbeInputs from_run(std::uint32_t n, std::size_t payload,
                              const RunOptions& options,
                              const RunResult& result);
};

/// Times every probe and stores `<layer>.<probe>` metrics in `out`.
void run_probes(const ProbeInputs& in, RunResult& out);

}  // namespace perfbench
