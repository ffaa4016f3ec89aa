// Differential test: the indexed-heap EventLoop against a reference copy of
// the lazy-cancel loop it replaced (tombstoned heap entries skipped when
// popped, compaction once they dominate). Both are driven by the same
// seeded random steps -- schedules at equal and past times, cancels of
// live, fired and stale ids, reschedules, run_until and run, and callbacks
// that schedule, cancel, reschedule and stop() -- and must agree on every
// fired (time, tag), every return value, pending() and now().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_loop.h"
#include "sim/rng.h"

namespace xlink::sim {
namespace {

/// The lazy-cancel loop as it was: cancel leaves the heap entry behind,
/// pop skips it, and the heap is rebuilt once dead entries dominate. Its
/// reschedule is cancel + schedule_at, done by the driver below.
class LazyEventLoop {
 public:
  Time now() const { return now_; }

  EventId schedule_at(Time at, EventCallback cb) {
    std::uint32_t slot;
    if (free_head_ != kNilSlot) {
      slot = free_head_;
      free_head_ = slots_[slot].next_free;
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.cb = std::move(cb);
    s.live = true;
    ++live_;
    const EventId id = make_id(slot, s.generation);
    heap_.push_back(Entry{std::max(at, now_), next_seq_++, id});
    std::push_heap(heap_.begin(), heap_.end(), FiresAfter{});
    return id;
  }

  bool cancel(EventId id) {
    if (!is_live(id)) return false;
    release(slot_of(id));
    ++dead_in_heap_;
    if (dead_in_heap_ >= 64 && dead_in_heap_ * 2 >= heap_.size()) compact();
    return true;
  }

  void run() {
    stopped_ = false;
    Entry e;
    while (!stopped_ && pop_next(e)) {
      now_ = e.at;
      fire(e.id);
    }
  }

  void run_until(Time deadline) {
    stopped_ = false;
    while (!stopped_) {
      Entry e;
      if (!pop_next(e)) break;
      if (e.at > deadline) {
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(), FiresAfter{});
        break;
      }
      now_ = e.at;
      fire(e.id);
    }
    now_ = std::max(now_, deadline);
  }

  void stop() { stopped_ = true; }
  std::uint64_t events_fired() const { return fired_; }
  std::size_t pending() const { return live_; }

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;
    EventId id;
  };
  struct FiresAfter {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    EventCallback cb;
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNilSlot;
    bool live = false;
  };
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) | slot;
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  bool is_live(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    return slot < slots_.size() && slots_[slot].live &&
           slots_[slot].generation == static_cast<std::uint32_t>(id >> 32);
  }

  void release(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.cb.reset();
    s.live = false;
    if (++s.generation == 0) s.generation = 1;
    s.next_free = free_head_;
    free_head_ = slot;
    --live_;
  }

  bool pop_next(Entry& out) {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), FiresAfter{});
      const Entry e = heap_.back();
      heap_.pop_back();
      if (!is_live(e.id)) {
        --dead_in_heap_;
        continue;
      }
      out = e;
      return true;
    }
    return false;
  }

  void fire(EventId id) {
    const std::uint32_t slot = slot_of(id);
    EventCallback cb = std::move(slots_[slot].cb);
    release(slot);
    ++fired_;
    cb();
  }

  void compact() {
    std::erase_if(heap_, [this](const Entry& e) { return !is_live(e.id); });
    std::make_heap(heap_.begin(), heap_.end(), FiresAfter{});
    dead_in_heap_ = 0;
  }

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  bool stopped_ = false;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::size_t live_ = 0;
  std::size_t dead_in_heap_ = 0;
};

constexpr std::size_t kMaxTags = 4000;  // caps what callbacks schedule

/// Applies one loop's side of the steps. Every event gets a tag (its index
/// in `ids`), which survives a reschedule; each firing runs a script drawn
/// from the seed and the tag, so both loops' callbacks act alike as long
/// as the loops fire alike.
template <typename Loop>
class Driver {
 public:
  explicit Driver(std::uint64_t seed) : seed_(seed) {}

  Loop loop;
  std::vector<std::pair<Time, std::size_t>> fired;  // (now, tag) per firing
  std::vector<std::uint64_t> results;               // every return value

  std::size_t tags() const { return ids_.size(); }

  void schedule(Time at) {
    const std::size_t tag = ids_.size();
    ids_.push_back(loop.schedule_at(at, [this, tag] { on_fire(tag); }));
  }
  void cancel(std::size_t tag) { results.push_back(loop.cancel(ids_[tag])); }
  void reschedule(std::size_t tag, Time at) {
    if constexpr (std::is_same_v<Loop, LazyEventLoop>) {
      const bool live = loop.cancel(ids_[tag]);
      if (live)
        ids_[tag] = loop.schedule_at(at, [this, tag] { on_fire(tag); });
      results.push_back(live);
    } else {
      results.push_back(loop.reschedule(ids_[tag], at));
    }
  }

 private:
  void on_fire(std::size_t tag) {
    fired.emplace_back(loop.now(), tag);
    Rng script(seed_ * 0x9e3779b97f4a7c15ULL + tag);
    const Time now = loop.now();
    for (std::uint64_t n = script.uniform(3); n > 0; --n) {
      const std::uint64_t op = script.uniform(100);
      const Time at = now - std::min<Time>(now, 2) + script.uniform(12);
      const std::size_t target =
          script.chance(0.3) ? tag : script.uniform(ids_.size());
      if (op < 30) {
        if (ids_.size() < kMaxTags) schedule(at);
      } else if (op < 55) {
        cancel(target);
      } else if (op < 90) {
        reschedule(target, at);
      } else {
        loop.stop();
      }
    }
  }

  std::uint64_t seed_;
  std::vector<EventId> ids_;
};

TEST(EventLoopReference, FiresLikeTheLazyCancelLoop) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Driver<EventLoop> fast(seed);
    Driver<LazyEventLoop> ref(seed);
    Rng steps(seed);
    for (int step = 0; step < 3000; ++step) {
      SCOPED_TRACE(step);
      const std::uint64_t op = steps.uniform(100);
      const Time now = ref.loop.now();
      // Times cluster within a few ticks of now, so equal timestamps are
      // common, and start before now, so the clamp is exercised.
      const Time at = now - std::min<Time>(now, 3) + steps.uniform(40);
      const std::size_t tag =
          ref.tags() ? steps.uniform(ref.tags()) : std::size_t{0};
      if (op < 35 || ref.tags() == 0) {
        fast.schedule(at);
        ref.schedule(at);
      } else if (op < 50) {
        fast.cancel(tag);
        ref.cancel(tag);
      } else if (op < 75) {
        fast.reschedule(tag, at);
        ref.reschedule(tag, at);
      } else if (op < 98) {
        fast.loop.run_until(at);
        ref.loop.run_until(at);
      } else {
        fast.loop.run();
        ref.loop.run();
      }
      ASSERT_EQ(fast.fired, ref.fired);
      ASSERT_EQ(fast.results, ref.results);
      ASSERT_EQ(fast.loop.pending(), ref.loop.pending());
      ASSERT_EQ(fast.loop.now(), ref.loop.now());
      ASSERT_EQ(fast.loop.events_fired(), ref.loop.events_fired());
      fast.fired.clear();
      ref.fired.clear();
      fast.results.clear();
      ref.results.clear();
    }
    // Drain: stop() from a callback ends a run() early, so run to empty.
    while (ref.loop.pending() > 0) {
      fast.loop.run();
      ref.loop.run();
      ASSERT_EQ(fast.fired, ref.fired);
      ASSERT_EQ(fast.results, ref.results);
      ASSERT_EQ(fast.loop.pending(), ref.loop.pending());
    }
    EXPECT_EQ(fast.loop.pending(), 0u);
    EXPECT_EQ(fast.loop.events_fired(), ref.loop.events_fired());
  }
}

}  // namespace
}  // namespace xlink::sim
