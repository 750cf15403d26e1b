// The one event queue under every marlin::Scheduler (common/scheduler.h):
// sim::Simulator, each shard of sim::ShardedSimulator, and the timers of
// realnet::EventLoop. The engines differ only in their event type, i.e. in
// the ordering key and what an event carries besides its callback:
//  - sim::Simulator and realnet::EventLoop: FifoEvent, (when, seq)
//  - sim::ShardedSimulator: (when, origin, oseq), plus the node facade
//    the event runs as
//
// The queue is a 4-ary min-heap in a flat vector. Relative to a binary
// std::priority_queue, sift paths are about half as deep, the backing store
// is reused across events (no allocation per event once warm), and sifts
// and pop MOVE events through a hole instead of copying them, so a callback
// that captured a payload is never duplicated on its way to execution.
//
// Cancellation is lazy. post()ed events carry kNoSlot and no slab state at
// all; schedule()d events borrow a slot of a generation-counted TimerSlab.
// A cancelled event stays in the heap until it reaches the head, where
// peek() drops it, so cancelling costs O(1) and never walks the queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/event_fn.h"
#include "common/sim_time.h"

namespace marlin {

class TimerSlab;

/// Cancellation handle for a scheduled event. Default-constructed handles
/// are inert; cancelling an already-fired event (or one whose slot was
/// recycled for a newer event) is a no-op. A handle must not outlive the
/// scheduler whose slab minted it.
class TimerHandle {
 public:
  TimerHandle() = default;
  inline void cancel();
  inline bool active() const;

 private:
  friend class TimerSlab;
  TimerHandle(TimerSlab* slab, std::uint32_t slot, std::uint32_t gen)
      : slab_(slab), slot_(slot), gen_(gen) {}
  TimerSlab* slab_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// Cancellation state of the scheduled events in one queue. A slot's
/// generation bumps each time the slot is released, so a stale handle can
/// never cancel the slot's next tenant, and no handle allocates.
class TimerSlab {
 public:
  static constexpr std::uint32_t kNoSlot = ~0u;

  /// Borrows a slot for an event about to be queued.
  std::uint32_t acquire() {
    if (free_.empty()) {
      slots_.push_back(Slot{0, true, false});
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    slots_[slot].pending = true;
    return slot;
  }
  /// Returns the slot once its event has left the queue (fired or dropped).
  void release(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.pending = false;
    s.cancelled = false;
    ++s.gen;  // invalidate every outstanding handle before reuse
    free_.push_back(slot);
  }
  TimerHandle handle(std::uint32_t slot) {
    return TimerHandle(this, slot, slots_[slot].gen);
  }
  void cancel(std::uint32_t slot, std::uint32_t gen) {
    Slot& s = slots_[slot];
    if (s.gen == gen && s.pending) s.cancelled = true;
  }
  bool active(std::uint32_t slot, std::uint32_t gen) const {
    const Slot& s = slots_[slot];
    return s.gen == gen && s.pending && !s.cancelled;
  }
  bool cancelled(std::uint32_t slot) const {
    return slot != kNoSlot && slots_[slot].cancelled;
  }
  void reserve(std::size_t timers) {
    if (slots_.capacity() < timers) {
      slots_.reserve(timers);
      free_.reserve(timers);
    }
  }

 private:
  struct Slot {
    std::uint32_t gen = 0;
    bool pending = false;
    bool cancelled = false;
  };
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
};

inline void TimerHandle::cancel() {
  if (slab_ != nullptr) slab_->cancel(slot_, gen_);
}

inline bool TimerHandle::active() const {
  return slab_ != nullptr && slab_->active(slot_, gen_);
}

/// An event ordered by (when, seq), where seq is the scheduler's insertion
/// counter: events due at the same instant run in the order they were
/// scheduled.
struct FifoEvent {
  TimePoint when;
  std::uint64_t seq;
  std::uint32_t slot;  // TimerSlab::kNoSlot for post()ed events
  EventFn fn;

  static bool earlier(const FifoEvent& a, const FifoEvent& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
};

/// `Event` is default-constructible and movable, has a `std::uint32_t
/// slot` (kNoSlot for post()ed events), and defines a static
/// `earlier(a, b)` that is a strict total order: then the pop order is a
/// pure function of the pushed keys, independent of heap internals.
template <typename Event>
class EventQueue {
 public:
  TimerSlab& slab() { return slab_; }

  void push(Event ev) {
    // Sift up with a hole: move parents down until the new event's
    // position is found, then place it once.
    std::size_t hole = heap_.size();
    heap_.emplace_back();
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (!Event::earlier(ev, heap_[parent])) break;
      heap_[hole] = std::move(heap_[parent]);
      hole = parent;
    }
    heap_[hole] = std::move(ev);
  }

  /// Drops cancelled events at the head, releasing their slots, and
  /// returns the earliest live event, or nullptr when none is left.
  const Event* peek() {
    while (!heap_.empty() && slab_.cancelled(heap_.front().slot)) {
      slab_.release(pop_head().slot);
    }
    return heap_.empty() ? nullptr : &heap_.front();
  }

  /// Removes the event peek() returned and releases its slot.
  Event pop() {
    Event ev = pop_head();
    if (ev.slot != TimerSlab::kNoSlot) slab_.release(ev.slot);
    return ev;
  }

  /// Queued events, cancelled ones not yet dropped included.
  std::size_t size() const { return heap_.size(); }

  /// Extra calls only ever grow capacity.
  void reserve(std::size_t events, std::size_t timers) {
    if (heap_.capacity() < events) heap_.reserve(events);
    slab_.reserve(timers);
  }

 private:
  static constexpr std::size_t kArity = 4;

  Event pop_head() {
    Event top = std::move(heap_.front());
    Event last = std::move(heap_.back());
    heap_.pop_back();
    if (heap_.empty()) return top;
    // Sift down with a hole at the root, placing `last` at its final spot.
    std::size_t hole = 0;
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = hole * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (Event::earlier(heap_[c], heap_[best])) best = c;
      }
      if (!Event::earlier(heap_[best], last)) break;
      heap_[hole] = std::move(heap_[best]);
      hole = best;
    }
    heap_[hole] = std::move(last);
    return top;
  }

  std::vector<Event> heap_;
  TimerSlab slab_;
};

}  // namespace marlin
