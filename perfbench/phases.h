// Splits each traced commit into txpool wait, propose→QC, QC→commit and
// commit→reply, using only events the program already emits:
// client_submit, batch_dequeued, proposal_sent, qc_formed, commit and
// reply_accepted. Times are the sink clock: mono time on metal, simulated
// time on the simulator.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct PhaseSplit {
  std::uint64_t requests = 0;  // requests with every milestone in the window
  // Medians over those requests, ms.
  double txpool_wait_ms = 0;    // submit → batch dequeued at the leader
  double propose_to_qc_ms = 0;  // proposal sent → last QC of the block
  double qc_to_commit_ms = 0;   // last QC → commit at the (quorum)th replica
  double reply_ms = 0;          // that commit → client accepts the reply
};

/// Requests accepted in [open, close]. `commit_quorum` is the number of
/// replica commits the client's reply quorum needs (f + 1).
PhaseSplit split_phases(const std::vector<marlin::obs::TraceEvent>& events,
                        marlin::TimePoint open, marlin::TimePoint close,
                        std::uint32_t commit_quorum);

/// True when some sink's ring evicted events: a node's sequence numbers do
/// not start at 0.
bool trace_wrapped(const std::vector<marlin::obs::TraceEvent>& events);

}  // namespace perfbench
