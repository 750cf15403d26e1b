// Deterministic discrete-event simulator: a virtual clock plus an ordered
// event queue. Everything in the testbed (network transmission, CPU
// charging, protocol timers) is an event here, so whole cluster runs replay
// bit-identically from a seed.
//
// The engine is allocation-lean by design (see docs/PERFORMANCE.md): events
// live in the shared marlin::EventQueue (common/event_queue.h), moved and
// never copied; callbacks are small-buffer EventFns; and post()ed events
// carry no cancellation state at all.
// Ordering is the strict (when, seq) total order the golden traces pin;
// post and schedule share one seq counter, so replacing the queue/handle
// machinery cannot reorder anything.
//
// Simulator is the single-queue implementation of marlin::Scheduler
// (common/scheduler.h); hosts written against Scheduler& run unchanged on
// the sharded engine (simnet/sharded.h) and the realnet EventLoop.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "common/event_queue.h"
#include "common/rng.h"
#include "common/scheduler.h"
#include "common/sim_time.h"

namespace marlin::sim {

class Simulator final : public marlin::Scheduler {
 public:
  explicit Simulator(std::uint64_t seed) : rng_(seed) {}

  TimePoint now() const override { return now_; }
  Rng& rng() { return rng_; }

  /// schedule()/post() (delay-relative, negative clamps to zero) are
  /// inherited from Scheduler and funnel into the two overrides below.
  TimerHandle schedule_at(TimePoint when, EventFn fn) override;

  /// Fire-and-forget scheduling: no cancellation handle, no slab slot, and
  /// (for inline-storable callbacks) no allocation at all.
  void post_at(TimePoint when, EventFn fn) override;

  /// Pre-sizes the event heap and cancellation slab so steady state never
  /// grows them in the hot loop. Sizing heuristic lives with the caller
  /// (Cluster knows n and fanout); extra calls only ever grow capacity.
  void reserve(std::size_t events, std::size_t timers) {
    queue_.reserve(events, timers);
  }

  /// Runs the earliest pending event; returns false when the queue is empty.
  bool step();

  /// Runs events until the clock would pass `deadline` (inclusive); events
  /// scheduled exactly at the deadline do run.
  void run_until(TimePoint deadline);
  void run_for(Duration d) { run_until(now_ + d); }

  /// Drains the queue completely. Guard against livelock with max_events.
  void run(std::uint64_t max_events = ~0ull);

  std::uint64_t events_executed() const { return executed_; }
  std::size_t pending_events() const { return queue_.size(); }

 private:
  void push_event(TimePoint when, std::uint32_t slot, EventFn fn) {
    assert(when >= now_ && "cannot schedule into the past");
    queue_.push(FifoEvent{when, next_seq_++, slot, std::move(fn)});
  }

  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  EventQueue<FifoEvent> queue_;
  Rng rng_;
};

}  // namespace marlin::sim
