// Deterministic discrete-event simulator: a virtual clock plus an ordered
// event queue. Everything in the testbed (network transmission, CPU
// charging, protocol timers) is an event here, so whole cluster runs replay
// bit-identically from a seed.
//
// The engine is allocation-lean by design (see docs/PERFORMANCE.md):
//  - events live in a 4-ary min-heap over a plain vector, moved (never
//    copied) during sifts, so pooled heap storage is reused across events;
//  - callbacks are stored in a small-buffer-optimized EventFn, so typical
//    captures need no heap allocation;
//  - cancellation state is lazy: post()/post_at() events carry none at all,
//    and schedule()/schedule_at() events borrow a slot from a generation-
//    counted slab that is recycled when the event fires.
// Ordering is the strict (when, seq) total order the golden traces pin;
// post and schedule share one seq counter, so replacing the queue/handle
// machinery cannot reorder anything.
//
// Simulator is the single-queue implementation of marlin::Scheduler
// (common/scheduler.h); hosts written against Scheduler& run unchanged on
// the sharded engine (simnet/sharded.h) and the realnet timer wheel.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/scheduler.h"
#include "common/sim_time.h"

namespace marlin::sim {

/// Scheduled-event handles are the shared generation-counted kind; the
/// alias keeps the historical sim::TimerHandle spelling working.
using TimerHandle = marlin::TimerHandle;

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
  void reserve(std::size_t events, std::size_t timers);

  /// Runs the earliest pending event; returns false when the queue is empty.
  bool step();

  /// Runs events until the clock would pass `deadline` (inclusive); events
  /// scheduled exactly at the deadline do run.
  void run_until(TimePoint deadline);
  void run_for(Duration d) { run_until(now_ + d); }

  /// Drains the queue completely. Guard against livelock with max_events.
  void run(std::uint64_t max_events = ~0ull);

  std::uint64_t events_executed() const { return executed_; }
  std::size_t pending_events() const { return heap_.size(); }

 protected:
  void cancel_timer(std::uint32_t slot, std::uint32_t gen) override {
    Slot& s = slots_[slot];
    if (s.gen == gen && s.pending) s.cancelled = true;
  }
  bool timer_active(std::uint32_t slot, std::uint32_t gen) const override {
    const Slot& s = slots_[slot];
    return s.gen == gen && s.pending && !s.cancelled;
  }

 private:
  static constexpr std::uint32_t kNoSlot = ~0u;

  struct Event {
    TimePoint when;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    std::uint32_t slot;  // kNoSlot for post()ed events
    EventFn fn;
  };

  /// Cancellation slab entry. `gen` bumps every time the slot is recycled,
  /// invalidating stale TimerHandles without any per-handle allocation.
  struct Slot {
    std::uint32_t gen = 0;
    bool pending = false;
    bool cancelled = false;
  };

  /// Strict (when, seq) order — both keys combined are unique, so the heap
  /// pop order is a total order independent of heap internals.
  static bool earlier(const Event& a, const Event& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  void push_event(TimePoint when, std::uint32_t slot, EventFn fn);
  Event pop_event();
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  bool slot_cancelled(const Event& ev) const {
    return ev.slot != kNoSlot && slots_[ev.slot].cancelled;
  }

  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Event> heap_;  // 4-ary min-heap, see simulator.cc
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Rng rng_;
};

}  // namespace marlin::sim
