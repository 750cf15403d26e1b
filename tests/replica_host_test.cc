// The shared replica host's storage-failure policy, driven through a third
// backend: n hosts over a FIFO bus, the simulator only as a clock that is
// never run (so no timer fires). A store that fails under the host must
// leave the replica dead and silent — never voting from state it could not
// read or write. The same bus pins the zero-copy frame path: a broadcast
// shares one buffer, and ingress (replica and client) decodes straight out
// of the received frame.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <string_view>
#include <vector>

#include "common/alloc_hook.h"
#include "runtime/client_process.h"
#include "runtime/replica_host.h"
#include "simnet/simulator.h"
#include "storage/env.h"

namespace marlin::runtime {
namespace {

struct Frame {
  std::uint32_t from;
  std::uint32_t to;
  Payload wire;
  /// The sender's store had already failed when the frame was sent.
  bool after_failure;
};

/// Mem env whose appends start failing after `budget` successes.
class FailingEnv final : public storage::Env {
 public:
  explicit FailingEnv(std::size_t budget) : budget_(budget) {}

  /// A write of the persisted consensus state has failed.
  bool state_write_failed() const { return state_write_failed_; }

  Result<std::unique_ptr<storage::AppendFile>> create_append(
      const std::string& name) override {
    auto file = base_->create_append(name);
    if (!file.is_ok()) return file.status();
    return std::unique_ptr<storage::AppendFile>(
        std::make_unique<File>(*this, std::move(file).take()));
  }
  Result<Bytes> read_file(const std::string& name) const override {
    return base_->read_file(name);
  }
  Status write_file_atomic(const std::string& name, BytesView data) override {
    return base_->write_file_atomic(name, data);
  }
  Status remove_file(const std::string& name) override {
    return base_->remove_file(name);
  }
  bool file_exists(const std::string& name) const override {
    return base_->file_exists(name);
  }
  std::vector<std::string> list_files() const override {
    return base_->list_files();
  }

 private:
  class File final : public storage::AppendFile {
   public:
    File(FailingEnv& env, std::unique_ptr<storage::AppendFile> inner)
        : env_(env), inner_(std::move(inner)) {}
    Status append(BytesView data) override {
      if (env_.budget_ == 0) {
        const std::string_view key = "meta/pstate";
        env_.state_write_failed_ |=
            std::search(data.begin(), data.end(), key.begin(), key.end()) !=
            data.end();
        return error(ErrorCode::kIoError, "injected append failure");
      }
      --env_.budget_;
      return inner_->append(data);
    }
    Status sync() override { return inner_->sync(); }
    std::uint64_t size() const override { return inner_->size(); }

   private:
    FailingEnv& env_;
    std::unique_ptr<storage::AppendFile> inner_;
  };

  std::unique_ptr<storage::Env> base_ = storage::make_mem_env();
  std::size_t budget_;
  bool state_write_failed_ = false;
};

class BusReplica final : public ReplicaHost {
 public:
  BusReplica(sim::Simulator& clock, const crypto::SignatureSuite& suite,
             ReplicaHostConfig config, std::unique_ptr<storage::Env> env,
             std::deque<Frame>& bus, const FailingEnv* failing)
      : ReplicaHost(suite, std::move(config), std::move(env)),
        clock_(clock),
        bus_(bus),
        failing_(failing) {
    opened_ = open();
  }

  Status opened() const { return opened_; }
  TimePoint now() const override { return clock_.now(); }

 protected:
  void transmit(std::uint32_t to, Payload wire) override {
    const bool after_failure =
        failing_ != nullptr && failing_->state_write_failed();
    bus_.push_back(
        Frame{config().replica.id, to, std::move(wire), after_failure});
  }
  marlin::Scheduler& timers() override { return clock_; }
  Duration spend(consensus::Cost, std::uint64_t) override {
    return Duration::zero();
  }
  void run_step(std::function<void()> step) override { step(); }

 private:
  sim::Simulator& clock_;
  std::deque<Frame>& bus_;
  const FailingEnv* failing_;
  Status opened_ = Status::ok();
};

constexpr std::uint32_t kF = 1;
constexpr std::uint32_t kN = 3 * kF + 1;

ReplicaHostConfig host_config(ReplicaId id) {
  ReplicaHostConfig rc;
  rc.replica.id = id;
  rc.replica.quorum = QuorumParams::for_f(kF);
  rc.client_base = kN;
  return rc;
}

Payload client_request(RequestId id) {
  types::ClientRequestMsg msg;
  msg.ops.push_back(types::Operation{0, id, to_bytes("op")});
  return types::make_envelope(types::MsgKind::kClientRequest, msg).serialize();
}

types::MsgKind kind_of(const Payload& wire) {
  return types::Envelope::parse(wire).value().kind();
}

class ReplicaHostStorage : public ::testing::Test {
 protected:
  ReplicaHostStorage()
      : suite_(crypto::make_fast_suite(kN, to_bytes("host-test"))) {}

  void add_replica(std::unique_ptr<storage::Env> env,
                   const FailingEnv* failing = nullptr) {
    const auto id = static_cast<ReplicaId>(replicas_.size());
    replicas_.push_back(std::make_unique<BusReplica>(
        clock_, *suite_, host_config(id), std::move(env), bus_, failing));
  }

  /// Delivers queued frames (client replies are dropped) until the bus is
  /// idle; every delivered frame is logged.
  void pump() {
    while (!bus_.empty()) {
      Frame f = std::move(bus_.front());
      bus_.pop_front();
      if (f.to < replicas_.size()) {
        replicas_[f.to]->handle_message(f.from, f.wire);
      }
      log_.push_back(std::move(f));
    }
  }

  sim::Simulator clock_{1};
  std::unique_ptr<crypto::SignatureSuite> suite_;
  std::deque<Frame> bus_;
  std::vector<Frame> log_;
  std::vector<std::unique_ptr<BusReplica>> replicas_;
};

TEST_F(ReplicaHostStorage, UndecodablePersistedStateKeepsTheReplicaDead) {
  auto env = storage::make_mem_env();
  {
    auto db = storage::KVStore::open(*env);
    ASSERT_TRUE(db.is_ok());
    ASSERT_TRUE(db.value()->put("meta/pstate", to_bytes("garbage")).is_ok());
  }
  add_replica(std::move(env));
  BusReplica& r = *replicas_[0];
  EXPECT_EQ(r.opened().code(), ErrorCode::kCorruption);

  const Status s = r.restart(/*wipe=*/false);
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kCorruption) << s.message();
  EXPECT_TRUE(r.stopped());
  EXPECT_FALSE(r.recovered());
  EXPECT_EQ(r.metrics().counter_value("recovery.failures"), 2u);

  // Dead means silent: neither starting nor traffic makes it send.
  r.start();
  r.handle_message(kN, client_request(1));
  EXPECT_TRUE(bus_.empty());
}

TEST_F(ReplicaHostStorage, NoVoteFollowsAFailedStateWrite) {
  // Replica 2 (a follower in view 1) persists a few states, then its store
  // refuses every further append.
  auto failing = std::make_unique<FailingEnv>(/*budget=*/4);
  const FailingEnv* probe = failing.get();
  for (ReplicaId r = 0; r < kN; ++r) {
    if (r == 2) {
      add_replica(std::move(failing), probe);
    } else {
      add_replica(storage::make_mem_env());
    }
  }
  for (auto& r : replicas_) r->start();
  pump();
  for (RequestId id = 1; id <= 12; ++id) {
    for (ReplicaId r = 0; r < kN; ++r) {
      replicas_[r]->handle_message(kN, client_request(id));
    }
    pump();
  }

  ASSERT_TRUE(probe->state_write_failed());
  const BusReplica& failed = *replicas_[2];
  EXPECT_TRUE(failed.stopped());
  EXPECT_EQ(failed.metrics().counter_value("storage.pstate_write_failures"),
            1u);
  std::size_t votes_before = 0;
  for (const Frame& f : log_) {
    if (f.from != 2) continue;
    if (!f.after_failure) {
      votes_before += kind_of(f.wire) == types::MsgKind::kVote;
      continue;
    }
    ADD_FAILURE() << "replica 2 sent kind "
                  << static_cast<int>(kind_of(f.wire))
                  << " to " << f.to << " after its state write failed";
  }
  EXPECT_GT(votes_before, 0u);
  // The other three still form quorums and keep committing.
  EXPECT_GT(replicas_[0]->protocol().committed_height(), 1u);
}

// ---------------------------------------------------------------------------
// Zero-copy frames
// ---------------------------------------------------------------------------

using ReplicaHostFrames = ReplicaHostStorage;

TEST_F(ReplicaHostFrames, BroadcastSharesOneFrame) {
  for (ReplicaId r = 0; r < kN; ++r) add_replica(storage::make_mem_env());
  for (auto& r : replicas_) r->start();
  pump();
  for (ReplicaId r = 0; r < kN; ++r) {
    replicas_[r]->handle_message(kN, client_request(1));
  }
  // The leader's proposal sits on the bus once per destination (its own
  // loopback included), every copy the one buffer the envelope encoded.
  std::vector<Payload> proposals;
  for (const Frame& f : bus_) {
    if (kind_of(f.wire) == types::MsgKind::kProposal) {
      proposals.push_back(f.wire);
    }
  }
  ASSERT_EQ(proposals.size(), kN);
  for (const Payload& p : proposals) {
    EXPECT_TRUE(p.shares_buffer(proposals.front()));
  }
  // Bus copies plus the local vector's copies: nothing else holds it.
  EXPECT_EQ(proposals.front().use_count(), static_cast<long>(2 * kN));
  pump();
  EXPECT_GE(replicas_[0]->protocol().committed_height(), 1u);
}

TEST_F(ReplicaHostFrames, IngressDecodesOutOfTheFrame) {
  for (ReplicaId r = 0; r < kN; ++r) add_replica(storage::make_mem_env());
  // One 64 KiB op: decoding copies it once into the pool. Copying the
  // frame's body before decoding (as the envelope once did) would double
  // what the handler allocates.
  types::ClientRequestMsg msg;
  msg.ops.push_back(types::Operation{0, 1, Bytes(64u << 10, 0x5a)});
  const Payload frame =
      types::make_envelope(types::MsgKind::kClientRequest, msg).serialize();
  alloc_hook::reset();
  replicas_[1]->handle_message(kN, frame);
  const std::uint64_t allocated = alloc_hook::bytes();
  EXPECT_GE(allocated, frame.size() - 64);
  EXPECT_LT(allocated, frame.size() * 3 / 2);
  EXPECT_EQ(replicas_[1]->protocol().pool().pending(), 1u);
}

/// Hands `op` to every replica; the view-1 leader proposes it.
void submit_everywhere(std::vector<std::unique_ptr<BusReplica>>& replicas,
                       const types::Operation& op) {
  types::ClientRequestMsg msg;
  msg.ops.push_back(op);
  const Payload frame =
      types::make_envelope(types::MsgKind::kClientRequest, msg).serialize();
  for (auto& r : replicas) r->handle_message(kN, frame);
}

TEST_F(ReplicaHostFrames, BroadcastHashesItsBlockOnce) {
  for (ReplicaId r = 0; r < kN; ++r) add_replica(storage::make_mem_env());
  for (auto& r : replicas_) r->start();
  pump();
  const std::uint64_t before = types::Block::digests_computed;
  submit_everywhere(replicas_, types::Operation{0, 1, Bytes(64u << 10, 7)});
  pump();
  // The leader digests its frame after sending it; the n receivers (its
  // own loopback included) and every later use of the block reuse that.
  EXPECT_EQ(types::Block::digests_computed - before, 1u);
  for (auto& r : replicas_) EXPECT_EQ(r->protocol().committed_height(), 1u);
}

TEST_F(ReplicaHostFrames, LoopbackProposalIsNotDecoded) {
  for (ReplicaId r = 0; r < kN; ++r) add_replica(storage::make_mem_env());
  for (auto& r : replicas_) r->start();
  pump();
  submit_everywhere(replicas_, types::Operation{0, 1, Bytes(64u << 10, 7)});
  const ReplicaId leader = 1;  // of view 1
  std::vector<Frame> proposals;
  for (Frame& f : bus_) {
    if (kind_of(f.wire) == types::MsgKind::kProposal) proposals.push_back(f);
  }
  bus_.clear();
  ASSERT_EQ(proposals.size(), kN);
  for (const Frame& f : proposals) {
    ASSERT_EQ(f.from, leader);
    alloc_hook::reset();
    replicas_[f.to]->handle_message(f.from, f.wire);
    const std::uint64_t allocated = alloc_hook::bytes();
    if (f.to == leader) {
      // The block is already stored under the frame's digest: no decode,
      // no copy of the 64 KiB op, no hash.
      EXPECT_LT(allocated, f.wire.size() / 8);
    } else {
      EXPECT_GE(allocated, f.wire.size() - 64) << "follower " << f.to;
    }
  }
  // The loopback still votes, like every follower.
  std::size_t votes = 0;
  for (const Frame& f : bus_) {
    votes += kind_of(f.wire) == types::MsgKind::kVote && f.to == leader;
  }
  EXPECT_EQ(votes, kN);
  pump();
  EXPECT_EQ(replicas_[leader]->protocol().committed_height(), 1u);
}

/// A closed-loop client on the same bus: transmits are dropped, replies
/// are handed in by the test.
class BusClient final : public ClientProcess {
 public:
  BusClient(sim::Simulator& clock, ClientProcessConfig config)
      : ClientProcess(config, Rng(7)), clock_(clock) {}

 protected:
  TimePoint now() const override { return clock_.now(); }
  marlin::Scheduler& timers() override { return clock_; }
  void transmit(std::uint32_t, Payload) override {}

 private:
  sim::Simulator& clock_;
};

TEST_F(ReplicaHostFrames, ClientDecodesRepliesOutOfTheFrame) {
  ClientProcessConfig cc;
  cc.quorum = QuorumParams::for_f(kF);
  cc.window = 1;
  BusClient client(clock_, cc);
  client.start();
  // A reply padded to 64 KiB: decoding copies the padding once.
  types::ClientReplyMsg reply;
  reply.client = 0;
  reply.view = 1;
  reply.height = 1;
  reply.requests = {1};
  reply.result = Bytes(8, 0xab);
  reply.padding = Bytes(64u << 10, 0xcd);
  for (ReplicaId r = 0; r < cc.quorum.reply_quorum(); ++r) {
    reply.replica = r;
    const Payload frame =
        types::make_envelope(types::MsgKind::kClientReply, reply).serialize();
    alloc_hook::reset();
    client.handle_message(r, frame);
    const std::uint64_t allocated = alloc_hook::bytes();
    EXPECT_GE(allocated, reply.padding.size());
    EXPECT_LT(allocated, frame.size() * 3 / 2) << "reply from " << r;
  }
  EXPECT_EQ(client.completed().total(), 1u);
}

TEST_F(ReplicaHostFrames, ReplyCountTheFrameCannotHoldAllocatesLittle) {
  ClientProcessConfig cc;
  cc.quorum = QuorumParams::for_f(kF);
  BusClient client(clock_, cc);
  // A 29-byte reply whose request count claims 4 Mi ids (the decoder's
  // cap): reserving the claim would take 32 MiB.
  Writer w;
  w.u8(static_cast<std::uint8_t>(types::MsgKind::kClientReply));
  w.u32(0);
  w.u32(1);
  w.u64(1);
  w.u64(1);
  w.varint(1u << 22);
  const Payload frame(std::move(w).take());
  alloc_hook::reset();
  client.handle_message(1, frame);
  EXPECT_LT(alloc_hook::bytes(), 1024u);
}

}  // namespace
}  // namespace marlin::runtime
