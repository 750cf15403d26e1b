#include "faults/byzantine.h"

namespace marlin::faults {

namespace {
constexpr std::string_view kModeNames[] = {
    "honest", "equivocate", "silent_voter", "stale_vote_replayer",
    "invalid_sig_sender",
};
constexpr std::size_t kModeCount = sizeof kModeNames / sizeof kModeNames[0];
}  // namespace

const char* byzantine_mode_name(ByzantineMode m) {
  const auto i = static_cast<std::size_t>(m);
  return i < kModeCount ? kModeNames[i].data() : "unknown";
}

std::optional<ByzantineMode> byzantine_mode_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kModeCount; ++i) {
    if (name == kModeNames[i]) return static_cast<ByzantineMode>(i);
  }
  return std::nullopt;
}

ByzantineBox::WireEffect ByzantineBox::transform_wire(
    const types::Envelope& env, ReplicaId self, ReplicaId to) {
  // `mutated=false` paths return the input untouched — the caller may keep
  // sharing an already-serialized buffer for those destinations.
  const auto pass = [&env]() { return WireEffect{env, false}; };
  switch (mode_) {
    case ByzantineMode::kHonest:
      return pass();

    case ByzantineMode::kEquivocate: {
      // Equivocate only on single-entry PREPARE proposals, and only toward
      // odd-id peers (self keeps the honest variant so the local state
      // machine stays consistent). Tampering with the batch changes the
      // block hash: two valid-looking blocks at one (view, height).
      if (env.kind() != types::MsgKind::kProposal || to == self ||
          to % 2 == 0) {
        return pass();
      }
      // A plain decode: the box mutates the block, so it must not carry
      // the frame's pinned digest.
      auto msg = decode_from_bytes<types::ProposalMsg>(env.body());
      if (!msg.is_ok()) return pass();
      types::ProposalMsg m = std::move(msg).take();
      if (m.entries.size() != 1) return pass();  // leave shadow pairs alone
      types::Block& b = m.entries[0].block;
      if (b.ops.empty()) {
        b.ops.push_back(types::Operation{~0u, ~0ull, Bytes{0xeb}});
      } else {
        b.ops[0].payload.push_back(0xeb);
      }
      ++interventions_;
      return {types::make_envelope(types::MsgKind::kProposal, m), true};
    }

    case ByzantineMode::kSilentVoter:
      if (env.kind() != types::MsgKind::kVote) return pass();
      ++interventions_;
      return {std::nullopt, true};

    case ByzantineMode::kStaleVoteReplayer: {
      if (env.kind() != types::MsgKind::kVote) return pass();
      if (!stale_vote_) {
        stale_vote_ = env;  // first vote flows honestly (and is remembered)
        return pass();
      }
      ++interventions_;
      return {*stale_vote_, true};
    }

    case ByzantineMode::kInvalidSigSender: {
      if (env.kind() != types::MsgKind::kVote) return pass();
      auto msg = types::open_envelope<types::VoteMsg>(env);
      if (!msg.is_ok()) return pass();
      types::VoteMsg m = std::move(msg).take();
      if (m.parsig.sig.empty()) return pass();
      m.parsig.sig[0] ^= 0xff;
      ++interventions_;
      return {types::make_envelope(types::MsgKind::kVote, m), true};
    }
  }
  return pass();
}

}  // namespace marlin::faults
