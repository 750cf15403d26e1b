// Partitioned discrete-event engine for large clusters (n = 100..1000).
// Replica/client nodes are assigned round-robin to K shards; each shard
// owns a local event queue (common/event_queue.h) and clock, and the shards
// advance in lock-step lookahead windows executed by a worker pool:
//
//   barrier T:  run control-lane events due <= T (faults, GST — shards
//               quiescent, so they may mutate global network state), then
//               drain every shard's cross-shard inbox into its heap;
//   window:     shards run their events with T <= when < T + W in
//               parallel, W = the minimum one-way link delay (lookahead);
//   barrier T+W, repeat.
//
// The window rule is conservative PDES synchronization (cf. Berger et
// al.'s phase-accurate BFT simulations): every cross-node message arrives
// at least one link delay after it was sent, so an event executing in
// window [T, T+W) can only schedule onto another shard at times >= T + W —
// never into the window being executed. Cross-shard posts go through a
// mutex-protected inbox merged at the next barrier; intra-shard posts go
// straight into the local heap, allocation-free, exactly like the
// single-queue engine.
//
// Determinism: every event carries a globally deterministic key
// (when, origin node, origin sequence) — the origin counter is advanced
// only by the origin's own execution, which is itself deterministic — and
// shard heaps pop in strict key order. The executed schedule is therefore
// a pure function of the seed: invariant across shard counts K and worker
// counts (the k-invariance the determinism suite pins). It is a DIFFERENT
// deterministic schedule than the legacy single-queue engine's (when, seq)
// order; --shards 1 runs map to sim::Simulator, whose byte-identical
// golden traces stay the contract for the classic configurations.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/event_queue.h"
#include "common/rng.h"
#include "common/scheduler.h"
#include "common/sim_time.h"
#include "obs/trace.h"
#include "simnet/simulator.h"

namespace marlin::sim {

using NodeId = std::uint32_t;

class ShardedSimulator;

/// Per-node Scheduler facade: the handle a replica/client process (and the
/// network, for deliveries to that node) schedules through. Routes to the
/// node's home shard — directly when called from that shard's thread or a
/// quiescent barrier phase, through the inbox when called cross-shard.
class NodeScheduler final : public marlin::Scheduler {
 public:
  TimePoint now() const override;
  void post_at(TimePoint when, EventFn fn) override;
  TimerHandle schedule_at(TimePoint when, EventFn fn) override;

  NodeId node() const { return node_; }
  std::uint32_t shard() const { return shard_; }

 private:
  friend class ShardedSimulator;
  NodeScheduler(ShardedSimulator* engine, std::uint32_t shard, NodeId node)
      : engine_(engine), shard_(shard), node_(node) {}

  ShardedSimulator* engine_;
  std::uint32_t shard_;
  NodeId node_;
  /// Origin sequence for events this node posts; advanced only by the home
  /// shard's thread (or quiescent phases), so no synchronization needed.
  std::uint64_t out_seq_ = 0;
};

class ShardedSimulator {
 public:
  struct Config {
    std::uint64_t seed = 42;
    std::uint32_t shards = 2;
    /// Worker threads executing shard windows; 0 = min(shards, hardware
    /// concurrency). 1 runs windows inline on the driving thread (still
    /// the same schedule: execution order is worker-count-invariant).
    std::uint32_t workers = 0;
    /// Conservative lookahead: must be > 0 and <= the minimum one-way
    /// network delay of the deployment it drives.
    Duration lookahead = Duration::millis(40);
  };

  explicit ShardedSimulator(const Config& config);
  ~ShardedSimulator();
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  /// Setup-time randomness (forked by Cluster in a fixed order). Shares
  /// the seeding scheme with the legacy engine, so a sharded run issues
  /// the same client workload streams as a legacy run of the same seed.
  Rng& rng() { return control_.rng(); }

  std::uint32_t shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  std::uint32_t workers() const { return workers_; }
  Duration lookahead() const { return lookahead_; }

  /// The node's home-shard facade (created on first use; node % shards).
  /// Stable for the engine's lifetime.
  NodeScheduler* node_scheduler(NodeId node);

  /// Control lane: fault plans, and anything else that must run with every
  /// shard quiescent. Events here execute at window barriers (quantized UP
  /// to the next barrier), with their scheduled time on the clock.
  marlin::Scheduler& control() { return control_; }

  // -- tracing ---------------------------------------------------------------
  /// Creates one sink per shard plus a control-lane sink, each bound to
  /// its own clock, so recording stays single-writer under parallel
  /// windows. Call before running.
  void enable_tracing(std::size_t capacity_per_shard);
  bool tracing() const { return !shard_sinks_.empty(); }
  obs::TraceSink* shard_trace(std::uint32_t shard) {
    return shard_sinks_.empty() ? nullptr : shard_sinks_[shard].get();
  }
  obs::TraceSink* node_trace(NodeId node) {
    return shard_sinks_.empty() ? nullptr
                                : shard_sinks_[node % shards()].get();
  }
  obs::TraceSink* control_trace() { return control_sink_.get(); }
  /// The shard sinks, then the control-lane sink (empty without tracing).
  std::vector<const obs::TraceSink*> trace_sinks() const;
  /// obs::merge_traces over trace_sinks(): the same total order for every
  /// (K, workers) combination that produced the same schedule.
  std::vector<obs::TraceEvent> merged_trace() const;

  // -- driving ---------------------------------------------------------------
  /// Barrier time: every shard clock and the control clock have reached
  /// this point; no event before it remains anywhere.
  TimePoint now() const { return barrier_; }
  /// Advances in lookahead windows until `deadline` (inclusive, matching
  /// Simulator::run_until: events exactly at the deadline do run). A
  /// deadline before now() is a no-op.
  void run_until(TimePoint deadline);
  void run_for(Duration d) { run_until(barrier_ + d); }

  std::uint64_t events_executed() const;
  std::size_t pending_events() const;

  /// Pre-sizes every shard's event queue (and the inboxes) so steady
  /// state never grows them inside a window.
  void reserve(std::size_t events_per_shard, std::size_t timers_per_shard);

 private:
  friend class NodeScheduler;

  /// Origin id for events posted outside any node's execution (setup code,
  /// control-lane callbacks). Highest id: external ties run after node
  /// events at the same instant.
  static constexpr std::uint32_t kExternalOrigin = 0xffffffffu;

  struct Event {
    TimePoint when;
    std::uint32_t origin;  // posting node (kExternalOrigin outside nodes)
    std::uint32_t slot;    // cancellation slab index or kNoSlot
    std::uint64_t oseq;    // per-origin sequence number
    NodeScheduler* exec;   // facade this event was posted through
    EventFn fn;

    /// Strict (when, origin, oseq) order: unique, globally deterministic,
    /// independent of which shard/worker inserted the event when.
    static bool earlier(const Event& a, const Event& b) {
      if (a.when != b.when) return a.when < b.when;
      if (a.origin != b.origin) return a.origin < b.origin;
      return a.oseq < b.oseq;
    }
  };

  struct Shard {
    EventQueue<Event> events_;
    TimePoint clock_;
    std::uint64_t executed_ = 0;

    std::mutex inbox_mu_;
    std::vector<Event> inbox_;  // cross-shard arrivals, merged at barriers

    void drain_inbox();
  };

  void post_event(NodeScheduler* target, TimePoint when, std::uint32_t slot,
                  EventFn fn);
  /// Runs one shard's window up to `end` (exclusive, or inclusive for the
  /// final deadline pass) and leaves its clock at `end`.
  void run_window(Shard& shard, TimePoint end, bool inclusive);
  /// Dispatches run_window for every shard across the worker pool (or
  /// inline when workers == 1) and joins.
  void execute_windows(TimePoint end, bool inclusive);
  void worker_main();

  /// Execution context of the current thread: which shard's window is
  /// running and which node's event is executing. Null outside windows
  /// (setup, control-lane callbacks, barriers) — those phases are
  /// single-threaded and post with the external origin.
  static thread_local Shard* tls_shard_;
  static thread_local NodeScheduler* tls_node_;

  Simulator control_;  // control lane: single-queue engine at barriers
  Duration lookahead_;
  TimePoint barrier_;
  std::uint64_t external_seq_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<NodeScheduler>> facades_;  // index = node id
  std::vector<std::unique_ptr<obs::TraceSink>> shard_sinks_;
  std::unique_ptr<obs::TraceSink> control_sink_;

  // Worker pool (spawned only when workers_ > 1).
  std::uint32_t workers_ = 1;
  std::vector<std::thread> threads_;
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;
  TimePoint window_end_;
  bool window_inclusive_ = false;
  std::atomic<std::uint32_t> next_shard_{0};
  std::uint32_t done_count_ = 0;
  bool shutdown_ = false;
};

}  // namespace marlin::sim
