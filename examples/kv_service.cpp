// A replicated key-value service built directly on the consensus library —
// the way a downstream system would embed Marlin.
//
// Four MarlinReplica state machines run in one process, wired through a
// tiny in-memory bus (an implementation of consensus::ProtocolEnv). Each
// replica applies committed operations to its own storage::KVStore (the
// repo's LevelDB-class engine), so at the end all four stores hold
// identical data — state machine replication in ~200 lines.
//
//   ./build/examples/kv_service
#include <cstdio>
#include <deque>
#include <memory>
#include <vector>

#include "consensus/marlin.h"
#include "storage/kvstore.h"

using namespace marlin;

namespace {

// ---------------------------------------------------------------------------
// Application operations: PUT <key> <value> / DEL <key>, serialized into
// the opaque payload consensus carries.
// ---------------------------------------------------------------------------

types::Operation make_put(ClientId client, RequestId id,
                          const std::string& key, const std::string& value) {
  Writer w;
  w.u8('P');
  w.str(key);
  w.str(value);
  return types::Operation{client, id, std::move(w).take()};
}

types::Operation make_del(ClientId client, RequestId id,
                          const std::string& key) {
  Writer w;
  w.u8('D');
  w.str(key);
  return types::Operation{client, id, std::move(w).take()};
}

void apply(storage::KVStore& store, const types::Operation& op) {
  Reader r(op.payload);
  std::uint8_t tag = 0;
  std::string key, value;
  if (!r.u8(tag).is_ok() || !r.str(key).is_ok()) return;
  if (tag == 'P' && r.str(value).is_ok()) {
    (void)store.put(key, to_bytes(value));
  } else if (tag == 'D') {
    (void)store.del(key);
  }
}

// ---------------------------------------------------------------------------
// In-process bus: the ProtocolEnv a replica needs, backed by one shared
// FIFO queue. (The simulation runtime in src/runtime does the same job
// with latency/bandwidth/CPU models; this is the minimal embedding.)
// ---------------------------------------------------------------------------

struct Node;

struct Bus {
  struct Msg {
    ReplicaId from, to;
    types::Envelope env;
  };
  std::deque<Msg> queue;
  std::vector<Node*> nodes;

  void pump();
};

struct Node : consensus::ProtocolEnv {
  Bus& bus;
  ReplicaId id;
  std::unique_ptr<storage::Env> db_env = storage::make_mem_env();
  std::unique_ptr<storage::KVStore> db;
  std::unique_ptr<consensus::MarlinReplica> replica;
  std::uint64_t applied = 0;

  Node(Bus& bus, ReplicaId id, const crypto::SignatureSuite& suite)
      : bus(bus), id(id) {
    db = storage::KVStore::open(*db_env).take();
    consensus::ReplicaConfig cfg;
    cfg.id = id;
    cfg.quorum = QuorumParams::for_f(1);
    replica = std::make_unique<consensus::MarlinReplica>(cfg, suite, *this);
  }

  // ProtocolEnv: route messages onto the bus, apply commits to the store.
  void send(ReplicaId to, const types::Envelope& env) override {
    bus.queue.push_back({id, to, env});
  }
  void broadcast(const types::Envelope& env) override {
    for (ReplicaId r = 0; r < 4; ++r) bus.queue.push_back({id, r, env});
  }
  void deliver(
      const types::Block& block,
      const std::vector<const types::Operation*>& executable) override {
    for (const types::Operation* op : executable) {
      apply(*db, *op);
      ++applied;
    }
    (void)block;
  }
  void entered_view(ViewNumber) override {}
  void progressed() override {}
};

void Bus::pump() {
  while (!queue.empty()) {
    Msg m = std::move(queue.front());
    queue.pop_front();
    nodes[m.to]->replica->handle_message(m.from, m.env);
  }
}

std::string get_or(storage::KVStore& store, const std::string& key,
                   const std::string& fallback) {
  auto v = store.get(key);
  if (!v.is_ok()) return fallback;
  return std::string(v.value().begin(), v.value().end());
}

}  // namespace

int main() {
  auto suite = crypto::make_ecdsa_suite(4, to_bytes("kv-service-demo"));
  Bus bus;
  std::vector<std::unique_ptr<Node>> nodes;
  for (ReplicaId r = 0; r < 4; ++r) {
    nodes.push_back(std::make_unique<Node>(bus, r, *suite));
    bus.nodes.push_back(nodes.back().get());
  }
  for (auto& n : nodes) n->replica->start();
  bus.pump();

  // Drive the service: a series of writes agreed through consensus.
  RequestId next = 1;
  auto submit = [&](types::Operation op) {
    for (auto& n : nodes) n->replica->submit(op);
    bus.pump();  // run consensus to completion for this batch
  };

  std::printf("replicated KV service over Marlin (n=4, real ECDSA)\n\n");
  submit(make_put(1, next++, "user:alice", "balance=100"));
  submit(make_put(1, next++, "user:bob", "balance=40"));
  submit(make_put(1, next++, "user:alice", "balance=75"));  // overwrite
  submit(make_put(1, next++, "user:carol", "balance=10"));
  submit(make_del(1, next++, "user:carol"));

  // Every replica's store must now be identical.
  for (ReplicaId r = 0; r < 4; ++r) {
    auto& n = *nodes[r];
    std::printf("replica %u (height %llu, %llu ops applied):\n", r,
                static_cast<unsigned long long>(
                    n.replica->committed_height()),
                static_cast<unsigned long long>(n.applied));
    std::printf("    user:alice = %s\n",
                get_or(*n.db, "user:alice", "<missing>").c_str());
    std::printf("    user:bob   = %s\n",
                get_or(*n.db, "user:bob", "<missing>").c_str());
    std::printf("    user:carol = %s (deleted)\n",
                get_or(*n.db, "user:carol", "<missing>").c_str());
  }

  // Cross-check.
  bool identical = true;
  for (ReplicaId r = 1; r < 4; ++r) {
    for (const char* key : {"user:alice", "user:bob", "user:carol"}) {
      if (get_or(*nodes[r]->db, key, "<missing>") !=
          get_or(*nodes[0]->db, key, "<missing>")) {
        identical = false;
      }
    }
  }
  std::printf("\nall replicas identical: %s\n", identical ? "yes" : "NO");
  return identical ? 0 : 1;
}
