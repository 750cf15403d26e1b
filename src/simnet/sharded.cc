#include "simnet/sharded.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace marlin::sim {

thread_local ShardedSimulator::Shard* ShardedSimulator::tls_shard_ = nullptr;
thread_local NodeScheduler* ShardedSimulator::tls_node_ = nullptr;

// -- NodeScheduler -----------------------------------------------------------

TimePoint NodeScheduler::now() const {
  // "Now" is the calling context's time: inside a window that is the
  // executing shard's clock (so a relative post() onto ANOTHER node's
  // facade is relative to the caller's present, exactly like the global
  // clock it replaces), outside windows every clock sits at the barrier.
  ShardedSimulator::Shard* cur = ShardedSimulator::tls_shard_;
  if (cur != nullptr) return cur->clock_;
  return engine_->shards_[shard_]->clock_;
}

void NodeScheduler::post_at(TimePoint when, EventFn fn) {
  engine_->post_event(this, when, TimerSlab::kNoSlot, std::move(fn));
}

TimerHandle NodeScheduler::schedule_at(TimePoint when, EventFn fn) {
  TimerSlab& slab = engine_->shards_[shard_]->events_.slab();
  // Timers touch the home slab directly, so they may only be armed (and
  // cancelled) from the home shard's own execution or a quiescent phase —
  // which is exactly who arms protocol timers (the node itself, setup, or
  // a control-lane fault).
  assert(ShardedSimulator::tls_shard_ == nullptr ||
         ShardedSimulator::tls_shard_ == engine_->shards_[shard_].get());
  const std::uint32_t slot = slab.acquire();
  engine_->post_event(this, when, slot, std::move(fn));
  return slab.handle(slot);
}

void ShardedSimulator::Shard::drain_inbox() {
  std::lock_guard<std::mutex> guard(inbox_mu_);
  for (Event& ev : inbox_) events_.push(std::move(ev));
  inbox_.clear();
}

// -- engine ------------------------------------------------------------------

ShardedSimulator::ShardedSimulator(const Config& config)
    : control_(config.seed), lookahead_(config.lookahead) {
  assert(config.shards >= 1);
  assert(lookahead_ > Duration::zero());
  shards_.reserve(config.shards);
  for (std::uint32_t s = 0; s < config.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  std::uint32_t workers = config.workers;
  if (workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = hw == 0 ? 1u : static_cast<std::uint32_t>(hw);
  }
  workers_ = std::min(workers, config.shards);
  if (workers_ > 1) {
    threads_.reserve(workers_);
    for (std::uint32_t w = 0; w < workers_; ++w) {
      threads_.emplace_back([this] { worker_main(); });
    }
  }
}

ShardedSimulator::~ShardedSimulator() {
  if (!threads_.empty()) {
    {
      std::lock_guard<std::mutex> guard(pool_mu_);
      shutdown_ = true;
    }
    pool_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
}

NodeScheduler* ShardedSimulator::node_scheduler(NodeId node) {
  if (node >= facades_.size()) facades_.resize(node + 1);
  if (!facades_[node]) {
    facades_[node].reset(
        new NodeScheduler(this, node % shards(), node));
  }
  return facades_[node].get();
}

void ShardedSimulator::enable_tracing(std::size_t capacity_per_shard) {
  assert(shard_sinks_.empty());
  shard_sinks_.reserve(shards_.size());
  for (auto& shard : shards_) {
    auto sink = std::make_unique<obs::TraceSink>(capacity_per_shard);
    sink->set_clock([s = shard.get()] { return s->clock_; });
    shard_sinks_.push_back(std::move(sink));
  }
  control_sink_ = std::make_unique<obs::TraceSink>(capacity_per_shard);
  control_sink_->set_clock([this] { return control_.now(); });
}

std::vector<const obs::TraceSink*> ShardedSimulator::trace_sinks() const {
  std::vector<const obs::TraceSink*> sinks;
  for (const auto& sink : shard_sinks_) sinks.push_back(sink.get());
  if (control_sink_) sinks.push_back(control_sink_.get());
  return sinks;
}

std::vector<obs::TraceEvent> ShardedSimulator::merged_trace() const {
  return obs::merge_traces(trace_sinks());
}

void ShardedSimulator::post_event(NodeScheduler* target, TimePoint when,
                                  std::uint32_t slot, EventFn fn) {
  Event ev;
  ev.when = when;
  ev.slot = slot;
  ev.exec = target;
  ev.fn = std::move(fn);
  if (ShardedSimulator::tls_node_ != nullptr) {
    ev.origin = ShardedSimulator::tls_node_->node_;
    ev.oseq = ShardedSimulator::tls_node_->out_seq_++;
  } else {
    // Setup / control-lane / barrier phases are single-threaded.
    ev.origin = kExternalOrigin;
    ev.oseq = external_seq_++;
  }
  Shard& home = *shards_[target->shard_];
  if (ShardedSimulator::tls_shard_ != nullptr && ShardedSimulator::tls_shard_ != &home) {
    // Cross-shard: the lookahead contract guarantees the event is due no
    // earlier than the window being executed ends, so deferring the heap
    // insert to the next barrier drain cannot miss its deadline.
    assert(when >= window_end_);
    std::lock_guard<std::mutex> guard(home.inbox_mu_);
    home.inbox_.push_back(std::move(ev));
    return;
  }
  assert(when >= home.clock_);
  home.events_.push(std::move(ev));
}

void ShardedSimulator::run_window(Shard& shard, TimePoint end, bool inclusive) {
  shard.drain_inbox();
  ShardedSimulator::tls_shard_ = &shard;
  // peek() drops cancelled heads before the deadline check, so a dead
  // timer parked past `end` never stalls the window early.
  while (const Event* head = shard.events_.peek()) {
    if (inclusive ? head->when > end : head->when >= end) break;
    Event ev = shard.events_.pop();
    shard.clock_ = ev.when;
    ShardedSimulator::tls_node_ = ev.exec;
    ++shard.executed_;
    ev.fn();
  }
  ShardedSimulator::tls_node_ = nullptr;
  ShardedSimulator::tls_shard_ = nullptr;
  shard.clock_ = end;
}

void ShardedSimulator::execute_windows(TimePoint end, bool inclusive) {
  if (workers_ <= 1 || shards_.size() == 1) {
    window_end_ = end;  // the cross-shard lookahead assert reads this
    for (auto& shard : shards_) run_window(*shard, end, inclusive);
    return;
  }
  std::unique_lock<std::mutex> lock(pool_mu_);
  window_end_ = end;
  window_inclusive_ = inclusive;
  next_shard_.store(0, std::memory_order_relaxed);
  done_count_ = 0;
  ++epoch_;
  pool_cv_.notify_all();
  done_cv_.wait(lock, [this] { return done_count_ == workers_; });
}

void ShardedSimulator::worker_main() {
  std::uint64_t seen = 0;
  for (;;) {
    TimePoint end;
    bool inclusive;
    {
      std::unique_lock<std::mutex> lock(pool_mu_);
      pool_cv_.wait(lock, [&] { return shutdown_ || epoch_ != seen; });
      if (shutdown_) return;
      seen = epoch_;
      end = window_end_;
      inclusive = window_inclusive_;
    }
    for (;;) {
      const std::uint32_t i = next_shard_.fetch_add(1, std::memory_order_relaxed);
      if (i >= shards_.size()) break;
      run_window(*shards_[i], end, inclusive);
    }
    std::lock_guard<std::mutex> guard(pool_mu_);
    if (++done_count_ == workers_) done_cv_.notify_one();
  }
}

void ShardedSimulator::run_until(TimePoint deadline) {
  // The clock never moves back (as in Simulator::run_until): a deadline
  // before the barrier has already passed.
  if (deadline < barrier_) return;
  // Window loop: control lane first (shards quiescent at barrier_), then
  // all shards advance one lookahead window in parallel. Windows are
  // half-open [T, T+W) so a cross-shard arrival at exactly T+W lands in
  // the next window after its inbox drain.
  while (barrier_ < deadline) {
    control_.run_until(barrier_);
    const TimePoint end = std::min(barrier_ + lookahead_, deadline);
    execute_windows(end, /*inclusive=*/false);
    barrier_ = end;
  }
  // Final inclusive pass: Simulator::run_until runs events exactly at the
  // deadline, and callers (experiments, faults at t == horizon) rely on it.
  control_.run_until(deadline);
  execute_windows(deadline, /*inclusive=*/true);
  barrier_ = deadline;
}

std::uint64_t ShardedSimulator::events_executed() const {
  std::uint64_t total = control_.events_executed();
  for (const auto& shard : shards_) total += shard->executed_;
  return total;
}

std::size_t ShardedSimulator::pending_events() const {
  std::size_t total = control_.pending_events();
  for (const auto& shard : shards_) {
    total += shard->events_.size() + shard->inbox_.size();
  }
  return total;
}

void ShardedSimulator::reserve(std::size_t events_per_shard,
                               std::size_t timers_per_shard) {
  control_.reserve(events_per_shard, timers_per_shard);
  for (auto& shard : shards_) {
    shard->events_.reserve(events_per_shard, timers_per_shard);
    // Inboxes see at most a window's worth of cross-shard traffic.
    if (shard->inbox_.capacity() < events_per_shard / 4) {
      shard->inbox_.reserve(events_per_shard / 4);
    }
  }
}

}  // namespace marlin::sim
