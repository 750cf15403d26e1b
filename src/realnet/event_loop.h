// Single-threaded epoll reactor: fd readiness, monotonic timers on the
// shared event queue (common/event_queue.h), and a thread-safe post()
// queue (eventfd wakeup). Each replica/client host owns one EventLoop on
// its own thread; everything that host does — consensus callbacks,
// timers, socket I/O — runs on that loop thread, so hosts need no
// internal locking (the same single-threaded discipline the simulator
// enforces globally, applied per node).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/event_queue.h"
#include "common/histogram.h"
#include "common/scheduler.h"
#include "common/sim_time.h"
#include "realnet/clock.h"

namespace marlin::realnet {

/// The loop's timers: the realnet implementation of marlin::Scheduler, a
/// (deadline, seq) queue of FifoEvents. Owned and driven by one EventLoop,
/// on its thread. now() is the loop's clock stamp: the loop stamps it from
/// mono_now() right after epoll_wait returns and again just before timers
/// fire, so a relative timer armed by an fd handler, a posted task or a
/// timer callback measures from a fresh clock read.
class LoopScheduler final : public marlin::Scheduler {
 public:
  TimePoint now() const override { return now_; }

  /// Past deadlines clamp to now(): they fire on the next advance(), never
  /// synchronously.
  TimerHandle schedule_at(TimePoint when, EventFn fn) override;
  void post_at(TimePoint when, EventFn fn) override;

  /// Moves the clock to `now` (never backwards).
  void stamp(TimePoint now) {
    if (now_ < now) now_ = now;
  }
  /// Stamps `now`, then fires every live timer due by then in (deadline,
  /// seq) order. Callbacks may schedule and cancel freely.
  void advance(TimePoint now);

  /// Nanoseconds from `now` until the earliest live deadline, clamped to
  /// >= 0; -1 when no timer is pending (epoll_wait's "block forever").
  /// Drops the cancelled timers at the head of the queue on the way.
  std::int64_t next_timeout_ns(TimePoint now);

  /// Queued timers, cancelled ones not yet dropped included.
  std::size_t pending() const { return queue_.size(); }

  /// Total timers fired (cancelled ones excluded).
  std::uint64_t fired() const { return fired_; }

  /// When set, every fired timer records `advance_now - deadline` (how late
  /// the loop ran it). Non-owning; the histogram must outlive the loop or
  /// be detached with nullptr.
  void set_fire_drift_histogram(LatencyHistogram* h) { drift_hist_ = h; }

 private:
  void push(TimePoint when, std::uint32_t slot, EventFn fn);

  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  EventQueue<FifoEvent> queue_;
  std::uint64_t fired_ = 0;
  LatencyHistogram* drift_hist_ = nullptr;
};

/// Receiver of fd readiness events (a socket, a listener). Non-owning
/// registration: the handler must outlive its registration.
class FdHandler {
 public:
  virtual ~FdHandler() = default;
  /// `events` is the epoll bitmask (EPOLLIN | EPOLLOUT | ...).
  virtual void on_fd_event(int fd, std::uint32_t events) = 0;
};

class EventLoop {
 public:
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // -- fd registration (loop thread only) ------------------------------------
  void add_fd(int fd, std::uint32_t events, FdHandler* handler);
  void mod_fd(int fd, std::uint32_t events);
  void del_fd(int fd);

  // -- timers (loop thread only) ---------------------------------------------
  /// The loop's timers. As a marlin::Scheduler they let hosts written
  /// against Scheduler& run on the real transport.
  LoopScheduler& scheduler() { return timers_; }

  // -- cross-thread ----------------------------------------------------------
  /// Enqueues `fn` to run on the loop thread; safe from any thread and
  /// from within loop callbacks. The loop is woken if blocked in epoll.
  /// (Not Scheduler::post, which takes a delay and is loop-thread only:
  /// that one is scheduler().post.)
  void post(std::function<void()> fn);

  /// Requests run() to return after the current iteration (any thread).
  void stop();

  // -- driving ---------------------------------------------------------------
  /// Runs until stop(). Must be called from the thread that owns the loop.
  void run();

  /// Single iteration with bounded wait; exposed for tests and for drain
  /// loops ("run until this condition or deadline").
  void run_once(Duration max_wait);

  /// True when called from the thread currently inside run()/run_once().
  bool on_loop_thread() const;

  /// Installed once per loop (loop thread only, or before it starts):
  /// invoked at the end of every run_once iteration, after fd handlers,
  /// timers, and posted tasks — the egress-coalescing point where the
  /// transport flushes everything the iteration queued, just before the
  /// loop blocks again. Pass nullptr to uninstall.
  void set_tick_handler(std::function<void()> fn) { tick_ = std::move(fn); }

  // -- instrumentation -------------------------------------------------------
  // Non-owning histogram hooks (loop-thread writes only): the caller wires
  // them to registry-owned histograms before the loop thread starts and
  // must keep them alive until the loop stops. Left unset, recording is
  // skipped entirely.
  /// Active time per run_once iteration (epoll return → iteration end),
  /// decimated 1-in-8 so long runs don't grow an unbounded sample vector.
  void set_iteration_histogram(LatencyHistogram* h) { iter_hist_ = h; }
  /// post() enqueue → callback run latency (eventfd wake-to-run).
  void set_wake_histogram(LatencyHistogram* h) { wake_hist_ = h; }
  /// Forwards to the timers' fire-drift histogram.
  void set_timer_drift_histogram(LatencyHistogram* h) {
    timers_.set_fire_drift_histogram(h);
  }

  std::uint64_t iterations() const { return iterations_; }
  std::uint64_t posted_tasks_run() const { return posted_run_; }
  std::uint64_t timers_fired() const { return timers_.fired(); }

 private:
  struct PostedTask {
    TimePoint enqueued;
    std::function<void()> fn;
  };

  void drain_posted();
  void wake();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd
  LoopScheduler timers_;
  std::unordered_map<int, FdHandler*> handlers_;

  std::mutex posted_mu_;
  std::vector<PostedTask> posted_;
  /// The batch drain_posted() runs: swapped with posted_ under the lock,
  /// so the two buffers keep their capacity and draining never allocates.
  std::vector<PostedTask> running_;
  std::function<void()> tick_;

  std::atomic<bool> stop_{false};
  std::atomic<const void*> loop_thread_{nullptr};

  LatencyHistogram* iter_hist_ = nullptr;
  LatencyHistogram* wake_hist_ = nullptr;
  std::uint64_t iterations_ = 0;
  std::uint64_t posted_run_ = 0;
};

}  // namespace marlin::realnet
