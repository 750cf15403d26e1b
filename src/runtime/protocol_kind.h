// Which consensus protocol a replica host runs. Shared by both backends'
// configuration (runtime::ConsensusConfig) and the hosts that build it.
#pragma once

namespace marlin::runtime {

enum class ProtocolKind { kMarlin, kHotStuff };

}  // namespace marlin::runtime
