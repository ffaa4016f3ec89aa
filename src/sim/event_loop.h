// Discrete-event loop: the heart of the simulator.
//
// Events are (time, callback) pairs kept in a binary min-heap. Events that
// share a timestamp fire in FIFO order of scheduling, which makes runs
// deterministic given deterministic inputs. Scheduled events can be
// cancelled or moved to a new time through the returned handle.
//
// Hot-path layout: callbacks live in a slab of generation-tagged slots
// reached directly by index (no hash lookup), an EventId encodes
// (generation << 32 | slot) so stale handles are rejected for free, and
// small callables are stored inline in the slot (no per-event heap
// allocation). The heap is indexed: each slot records where its entry
// sits, so cancel() removes the entry at once and reschedule() moves it in
// place. The heap holds exactly the pending events, so schedule/cancel or
// re-arm churn never grows it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace xlink::sim {

/// Identifies a scheduled event so it can be cancelled. Zero is never used.
using EventId = std::uint64_t;

/// Move-only type-erased callable with inline storage for small captures.
/// Callables larger than kInlineBytes fall back to a single heap cell.
class EventCallback {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  EventCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback>>>
  EventCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  EventCallback(EventCallback&& other) noexcept { move_from(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  void operator()() { ops_->invoke(&storage_); }

  void reset() {
    if (ops_) {
      ops_->destroy(&storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-constructs dst from src's storage, then destroys src's value.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename F>
  struct InlineOps {
    static void invoke(void* p) { (*static_cast<F*>(p))(); }
    static void relocate(void* dst, void* src) {
      ::new (dst) F(std::move(*static_cast<F*>(src)));
      static_cast<F*>(src)->~F();
    }
    static void destroy(void* p) { static_cast<F*>(p)->~F(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename F>
  struct HeapOps {
    static F*& ptr(void* p) { return *static_cast<F**>(p); }
    static void invoke(void* p) { (*ptr(p))(); }
    static void relocate(void* dst, void* src) { ::new (dst) F*(ptr(src)); }
    static void destroy(void* p) { delete ptr(p); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (&storage_) D(std::forward<F>(f));
      ops_ = &InlineOps<D>::ops;
    } else {
      ::new (&storage_) D*(new D(std::forward<F>(f)));
      ops_ = &HeapOps<D>::ops;
    }
  }

  void move_from(EventCallback& other) {
    ops_ = other.ops_;
    if (ops_) {
      ops_->relocate(&storage_, &other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class EventLoop {
 public:
  using Callback = EventCallback;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `cb` to run at absolute time `at` (clamped to >= now).
  EventId schedule_at(Time at, Callback cb);

  /// Schedules `cb` to run `delay` after the current time.
  EventId schedule_in(Duration delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event. Cancelling an already-fired or unknown id is a
  /// harmless no-op (returns false).
  bool cancel(EventId id);

  /// Moves a pending event to absolute time `at` (clamped to >= now),
  /// keeping its id and callback. It then fires exactly as if it had been
  /// cancelled and scheduled anew: after every event already scheduled for
  /// the same time. An already-fired or unknown id is a no-op (false).
  bool reschedule(EventId id, Time at);

  /// Runs events until the queue is empty or `stop()` is called.
  void run();

  /// Runs events with time <= `deadline`, then sets now() to `deadline`.
  void run_until(Time deadline);

  /// Requests `run()`/`run_until()` to return after the current event.
  void stop() { stopped_ = true; }

  /// Number of events that have fired so far (useful in tests).
  std::uint64_t events_fired() const { return fired_; }

  /// Number of events still pending (scheduled and not cancelled).
  std::size_t pending() const { return heap_.size(); }

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;  // tie-break: FIFO for equal timestamps
    std::uint32_t slot;
  };
  // Every entry has its own seq, so this is a strict total order.
  static bool earlier(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  struct Slot {
    EventCallback cb;
    std::uint32_t generation = 1;  // bumped on release; never 0
    std::uint32_t heap_index = 0;  // where its entry sits while pending
    std::uint32_t next_free = kNilSlot;
  };
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) | slot;
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  // Pending iff the generation is current and the slot's heap entry points
  // back at it (a free slot has no entry, whatever its heap_index says).
  bool is_live(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    if (slot >= slots_.size() || slots_[slot].generation != generation_of(id))
      return false;
    const std::uint32_t i = slots_[slot].heap_index;
    return i < heap_.size() && heap_[i].slot == slot;
  }

  // Returns the slot to the free list and invalidates outstanding ids.
  void release(std::uint32_t slot);
  // Writes `e` at heap index `i` and records that index in its slot.
  void place(std::size_t i, const Entry& e);
  // Moves the entry at `i` up or down until the heap is ordered again.
  void sift(std::size_t i);
  void remove_at(std::size_t i);
  // Removes the earliest entry, advances now() to it and runs it.
  void fire_next();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  bool stopped_ = false;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
};

}  // namespace xlink::sim
