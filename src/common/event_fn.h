// Small-buffer-optimized, move-only callable for scheduler events.
// std::function heap-allocates any capturing lambda beyond ~16 trivially
// copyable bytes, which made every scheduled network delivery (capturing a
// payload plus routing metadata) cost an allocation. EventFn stores
// callables up to kInlineSize bytes inline — enough for every hot-path
// event in this repo — and only falls back to the heap for oversized or
// over-aligned captures. Move-only, so events can also capture move-only
// state.
//
// Lives in common/ because it is the callable type of the backend-neutral
// marlin::Scheduler interface (common/scheduler.h): every implementation
// (the simulated engine, the sharded engine, and the realnet EventLoop's
// timers) stores EventFns in the one marlin::EventQueue
// (common/event_queue.h).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace marlin {

class EventFn {
 public:
  /// Fits the fattest hot-path capture (network delivery: this + route +
  /// timing attribution + a refcounted Payload) with headroom.
  static constexpr std::size_t kInlineSize = 64;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  EventFn() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  EventFn(F&& f) {  // NOLINT: implicit by design (callable wrapper)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize && alignof(Fn) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  void operator()() { ops_->invoke(storage_); }
  explicit operator bool() const { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs the callable into `dst` and destroys the source.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static Fn* as_inline(void* s) {
    return std::launder(reinterpret_cast<Fn*>(s));
  }
  template <typename Fn>
  static Fn** as_heap(void* s) {
    return std::launder(reinterpret_cast<Fn**>(s));
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* s) { (*as_inline<Fn>(s))(); },
      [](void* dst, void* src) {
        Fn* f = as_inline<Fn>(src);
        ::new (dst) Fn(std::move(*f));
        f->~Fn();
      },
      [](void* s) { as_inline<Fn>(s)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* s) { (**as_heap<Fn>(s))(); },
      [](void* dst, void* src) { ::new (dst) Fn*(*as_heap<Fn>(src)); },
      [](void* s) { delete *as_heap<Fn>(s); },
  };

  void move_from(EventFn& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(storage_, other.storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace marlin
