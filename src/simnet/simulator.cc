#include "simnet/simulator.h"

namespace marlin::sim {

TimerHandle Simulator::schedule_at(TimePoint when, EventFn fn) {
  const std::uint32_t slot = queue_.slab().acquire();
  push_event(when, slot, std::move(fn));
  return queue_.slab().handle(slot);
}

void Simulator::post_at(TimePoint when, EventFn fn) {
  push_event(when, TimerSlab::kNoSlot, std::move(fn));
}

bool Simulator::step() {
  if (queue_.peek() == nullptr) return false;
  FifoEvent ev = queue_.pop();
  assert(ev.when >= now_);
  now_ = ev.when;
  ++executed_;
  ev.fn();
  return true;
}

void Simulator::run_until(TimePoint deadline) {
  // peek() skips cancelled heads without advancing time.
  while (const FifoEvent* head = queue_.peek()) {
    if (head->when > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
}

}  // namespace marlin::sim
