// Backend-neutral scheduling surface. ProtocolEnv implementations, the
// network model, the virtual-CPU processor, and fault/telemetry plumbing
// all need "what time is it" plus "run this later (maybe cancellable)" —
// and nothing else. Scheduler is that contract, implemented by:
//  - sim::Simulator            (legacy single-queue discrete-event engine)
//  - sim::NodeScheduler        (a node's facade on the sharded engine:
//                               per-shard clocks, lookahead windows)
//  - realnet::LoopScheduler    (the timers of an epoll EventLoop)
// All three keep their events in the one marlin::EventQueue
// (common/event_queue.h). Callers hold a Scheduler& and stop naming the
// backend type, so the same host code runs on one global clock, a
// shard-local clock, or wall time.
//
// TimerHandle (common/event_queue.h) points at its queue's generation-
// counted slab: cancel() on a fired/stale handle is a no-op, detected via
// the slot's generation counter. A TimerHandle must not outlive its
// Scheduler.
#pragma once

#include <utility>

#include "common/event_fn.h"
#include "common/event_queue.h"
#include "common/sim_time.h"

namespace marlin {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Current time on this scheduler's clock: virtual sim time for the
  /// simulated backends, the monotonic clock for realnet.
  virtual TimePoint now() const = 0;

  /// Fire-and-forget scheduling: no cancellation handle, no slab slot.
  /// Negative delays clamp to zero. Prefer this when the handle would be
  /// dropped — it is the allocation-free hot path on the sim backends.
  void post(Duration delay, EventFn fn) {
    if (delay < Duration::zero()) delay = Duration::zero();
    post_at(now() + delay, std::move(fn));
  }
  virtual void post_at(TimePoint when, EventFn fn) = 0;

  /// Schedules `fn` and returns a cancellation handle (costs a slab slot).
  /// Negative delays clamp to zero.
  TimerHandle schedule(Duration delay, EventFn fn) {
    if (delay < Duration::zero()) delay = Duration::zero();
    return schedule_at(now() + delay, std::move(fn));
  }
  virtual TimerHandle schedule_at(TimePoint when, EventFn fn) = 0;
};

}  // namespace marlin
