// Tests for the one event queue under every marlin::Scheduler
// (common/event_queue.h). One contract script runs on each implementation:
// the single-queue simulator, a node facade of the sharded engine with one
// and with two shards (two worker threads), and the timers of a live
// EventLoop driven by run_once on real time. Also pins that a steady-state
// EventLoop iteration with a posted task allocates nothing (this binary
// links marlin_alloc_hook, whose counting operator new underpins it).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/alloc_hook.h"
#include "common/scheduler.h"
#include "realnet/event_loop.h"
#include "simnet/sharded.h"
#include "simnet/simulator.h"

namespace marlin {
namespace {

// A driver owns one Scheduler implementation: sched() is the scheduler
// under test, run_until(t) runs every event due by t (inclusive). On a
// virtual clock an event runs exactly at its deadline; on real time, no
// earlier than it.

struct SimDriver {
  static constexpr const char* kName = "Simulator";
  static constexpr bool kVirtualClock = true;
  sim::Simulator sim{1};
  Scheduler& sched() { return sim; }
  void run_until(TimePoint t) { sim.run_until(t); }
};

template <std::uint32_t K>
struct ShardedDriver {
  static constexpr const char* kName =
      K == 1 ? "NodeSchedulerK1" : "NodeSchedulerK2";
  static constexpr bool kVirtualClock = true;
  sim::ShardedSimulator engine{sim::ShardedSimulator::Config{
      .seed = 1, .shards = K, .workers = K, .lookahead = Duration::millis(1)}};
  // The last node lives on the last shard.
  Scheduler& sched() { return *engine.node_scheduler(K - 1); }
  void run_until(TimePoint t) { engine.run_until(t); }
};

struct LoopDriver {
  static constexpr const char* kName = "EventLoop";
  static constexpr bool kVirtualClock = false;
  realnet::EventLoop loop;
  Scheduler& sched() { return loop.scheduler(); }
  // Real time: iterate the loop until its clock stamp reaches `t`. At least
  // one iteration, so events due at the current instant run too.
  void run_until(TimePoint t) {
    do {
      loop.run_once(t - loop.scheduler().now());
    } while (loop.scheduler().now() < t);
  }
};

template <typename Driver>
class SchedulerContract : public ::testing::Test {
 protected:
  Driver driver;
  Scheduler& sched() { return driver.sched(); }
  void run_for(Duration d) { driver.run_until(sched().now() + d); }
  void expect_ran_at(TimePoint ran, TimePoint deadline) {
    if (Driver::kVirtualClock) {
      EXPECT_EQ(ran, deadline);
    } else {
      EXPECT_GE(ran, deadline);
    }
  }
};

struct DriverName {
  template <typename Driver>
  static std::string GetName(int) {
    return Driver::kName;
  }
};

using Drivers =
    ::testing::Types<SimDriver, ShardedDriver<1>, ShardedDriver<2>, LoopDriver>;
TYPED_TEST_SUITE(SchedulerContract, Drivers, DriverName);

TYPED_TEST(SchedulerContract, EqualDeadlinesFireFifo) {
  Scheduler& s = this->sched();
  const TimePoint due = s.now() + Duration::millis(5);
  std::vector<int> order;
  TimerHandle kept;
  for (int i = 0; i < 6; ++i) {
    // Handle-free posts and cancellable timers share one FIFO order.
    if (i % 2 == 0) {
      s.post_at(due, [&order, i] { order.push_back(i); });
    } else {
      kept = s.schedule_at(due, [&order, i] { order.push_back(i); });
    }
  }
  this->driver.run_until(due);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TYPED_TEST(SchedulerContract, StaleHandleCannotCancelRecycledSlot) {
  Scheduler& s = this->sched();
  int fired = 0;
  TimerHandle first = s.schedule(Duration::millis(1), [&] { ++fired; });
  this->run_for(Duration::millis(1));
  ASSERT_EQ(fired, 1);
  EXPECT_FALSE(first.active());
  // The slot is free again; the next timer may reuse it, and the first
  // handle's generation is stale.
  TimerHandle second = s.schedule(Duration::millis(1), [&] { ++fired; });
  first.cancel();
  EXPECT_TRUE(second.active());
  this->run_for(Duration::millis(1));
  EXPECT_EQ(fired, 2);
}

TYPED_TEST(SchedulerContract, CancelAfterFireIsANoOp) {
  Scheduler& s = this->sched();
  int fired = 0;
  TimerHandle h = s.schedule(Duration::millis(1), [&] { ++fired; });
  this->run_for(Duration::millis(1));
  ASSERT_EQ(fired, 1);
  h.cancel();
  h.cancel();
  EXPECT_FALSE(h.active());
  EXPECT_FALSE(TimerHandle().active());
  TimerHandle().cancel();
  s.schedule(Duration::millis(1), [&] { ++fired; });
  this->run_for(Duration::millis(1));
  EXPECT_EQ(fired, 2);
}

TYPED_TEST(SchedulerContract, NegativeDelayClampsToZero) {
  Scheduler& s = this->sched();
  const TimePoint at = s.now();
  std::vector<TimePoint> fired_at;
  s.post(Duration::millis(-5), [&] { fired_at.push_back(s.now()); });
  s.schedule(Duration::millis(-5), [&] { fired_at.push_back(s.now()); });
  this->driver.run_until(at);
  ASSERT_EQ(fired_at.size(), 2u);
  this->expect_ran_at(fired_at[0], at);
  this->expect_ran_at(fired_at[1], at);
}

TYPED_TEST(SchedulerContract, CancelledHeadNeverDelaysALaterLiveEvent) {
  Scheduler& s = this->sched();
  const TimePoint t0 = s.now();
  bool dead_fired = false;
  std::vector<TimePoint> live_at;
  std::vector<TimerHandle> dead;
  for (int i = 1; i <= 100; ++i) {
    dead.push_back(
        s.schedule(Duration::micros(10 * i), [&] { dead_fired = true; }));
  }
  s.schedule(Duration::millis(3), [&] { live_at.push_back(s.now()); });
  for (TimerHandle& h : dead) h.cancel();
  this->driver.run_until(t0 + Duration::millis(3));
  EXPECT_FALSE(dead_fired);
  ASSERT_EQ(live_at.size(), 1u);
  this->expect_ran_at(live_at[0], t0 + Duration::millis(3));
}

// ---------------------------------------------------------------------------
// EventLoop allocation behaviour
// ---------------------------------------------------------------------------

TEST(EventLoopAlloc, SteadyStateIterationWithAPostedTaskAllocatesNothing) {
  realnet::EventLoop loop;
  int ran = 0;
  // Small enough for std::function's inline storage.
  auto task = [&ran] { ++ran; };
  // Warmup grows both posted-task buffers to steady-state capacity.
  for (int i = 0; i < 16; ++i) {
    loop.post(task);
    loop.run_once(Duration::zero());
  }
  alloc_hook::reset();
  for (int i = 0; i < 1000; ++i) {
    loop.post(task);
    loop.run_once(Duration::zero());
  }
  EXPECT_EQ(alloc_hook::allocations(), 0u);
  EXPECT_EQ(ran, 1016);
}

}  // namespace
}  // namespace marlin
