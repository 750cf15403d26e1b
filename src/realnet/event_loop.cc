#include "realnet/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstring>

namespace marlin::realnet {

// -- LoopScheduler -----------------------------------------------------------

void LoopScheduler::push(TimePoint when, std::uint32_t slot, EventFn fn) {
  queue_.push(
      FifoEvent{std::max(when, now_), next_seq_++, slot, std::move(fn)});
}

TimerHandle LoopScheduler::schedule_at(TimePoint when, EventFn fn) {
  const std::uint32_t slot = queue_.slab().acquire();
  push(when, slot, std::move(fn));
  return queue_.slab().handle(slot);
}

void LoopScheduler::post_at(TimePoint when, EventFn fn) {
  push(when, TimerSlab::kNoSlot, std::move(fn));
}

void LoopScheduler::advance(TimePoint now) {
  stamp(now);
  while (const FifoEvent* head = queue_.peek()) {
    if (head->when > now_) break;
    FifoEvent ev = queue_.pop();
    ++fired_;
    if (drift_hist_ != nullptr) drift_hist_->record(now_ - ev.when);
    ev.fn();
  }
}

std::int64_t LoopScheduler::next_timeout_ns(TimePoint now) {
  const FifoEvent* head = queue_.peek();
  if (head == nullptr) return -1;
  return std::max<std::int64_t>((head->when - now).as_nanos(), 0);
}

// -- EventLoop ---------------------------------------------------------------

namespace {
thread_local const void* tls_thread_token = nullptr;

const void* thread_token() {
  // Address of a thread_local: unique per live thread, no TID syscall.
  return &tls_thread_token;
}
}  // namespace

EventLoop::EventLoop() {
  timers_.stamp(mono_now());
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  assert(epoll_fd_ >= 0);
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  assert(wake_fd_ >= 0);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) close(wake_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

void EventLoop::add_fd(int fd, std::uint32_t events, FdHandler* handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0) {
    handlers_[fd] = handler;
  }
}

void EventLoop::mod_fd(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void EventLoop::del_fd(int fd) {
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    posted_.push_back(PostedTask{mono_now(), std::move(fn)});
  }
  // Posts from the loop thread itself (loopback sends, rescheduling
  // closures) need no eventfd syscall: the loop is not blocked in
  // epoll_wait right now, and run_once checks posted_ before choosing the
  // next timeout, so the task runs this iteration or immediately after.
  if (!on_loop_thread()) wake();
}

void EventLoop::stop() {
  stop_.store(true, std::memory_order_release);
  wake();
}

void EventLoop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = write(wake_fd_, &one, sizeof one);
}

void EventLoop::drain_posted() {
  // Swap under the lock, run outside it: posted callbacks may post again.
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    running_.swap(posted_);
  }
  if (running_.empty()) return;
  // One clock read covers the whole batch: wake-to-run latency is dominated
  // by the epoll wakeup, not intra-batch ordering.
  const TimePoint now = wake_hist_ != nullptr ? mono_now() : TimePoint();
  for (auto& task : running_) {
    if (wake_hist_ != nullptr) wake_hist_->record(now - task.enqueued);
    ++posted_run_;
    task.fn();
  }
  running_.clear();
}

bool EventLoop::on_loop_thread() const {
  return loop_thread_.load(std::memory_order_acquire) == thread_token();
}

void EventLoop::run_once(Duration max_wait) {
  loop_thread_.store(thread_token(), std::memory_order_release);

  std::int64_t timeout_ns = timers_.next_timeout_ns(mono_now());
  const std::int64_t cap = max_wait.as_nanos();
  if (timeout_ns < 0 || timeout_ns > cap) timeout_ns = cap;
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    if (!posted_.empty()) timeout_ns = 0;
  }
  const int timeout_ms =
      static_cast<int>((timeout_ns + 999'999) / 1'000'000);  // round up

  epoll_event events[64];
  const int n = epoll_wait(epoll_fd_, events, 64, timeout_ms);
  timers_.stamp(mono_now());

  // Active-time measurement starts after the (intentional) epoll block;
  // decimated 1-in-8 so the end-of-iteration clock reads and sample growth
  // stay negligible on hot loops.
  ++iterations_;
  const bool time_this = iter_hist_ != nullptr && (iterations_ & 7) == 0;
  const TimePoint iter_start = timers_.now();

  drain_posted();
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == wake_fd_) {
      std::uint64_t drain = 0;
      [[maybe_unused]] const auto r = read(wake_fd_, &drain, sizeof drain);
      continue;
    }
    // Re-look-up per event: an earlier handler may have closed this fd.
    auto it = handlers_.find(fd);
    if (it != handlers_.end()) it->second->on_fd_event(fd, events[i].events);
  }
  timers_.advance(mono_now());
  drain_posted();
  if (tick_) tick_();
  if (time_this) iter_hist_->record(mono_now() - iter_start);
}

void EventLoop::run() {
  stop_.store(false, std::memory_order_release);
  while (!stop_.load(std::memory_order_acquire)) {
    run_once(Duration::millis(100));
  }
  loop_thread_.store(nullptr, std::memory_order_release);
}

}  // namespace marlin::realnet
