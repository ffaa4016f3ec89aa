#include "sim/event_loop.h"

#include <algorithm>

namespace xlink::sim {

EventId EventLoop::schedule_at(Time at, Callback cb) {
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
  heap_.push_back(Entry{std::max(at, now_), next_seq_++, slot});
  sift(heap_.size() - 1);
  return make_id(slot, s.generation);
}

bool EventLoop::cancel(EventId id) {
  if (!is_live(id)) return false;
  const std::uint32_t slot = slot_of(id);
  remove_at(slots_[slot].heap_index);
  release(slot);
  return true;
}

bool EventLoop::reschedule(EventId id, Time at) {
  if (!is_live(id)) return false;
  // A fresh seq, as cancel + schedule_at would take: the moved event fires
  // after everything already scheduled for its new time.
  const std::size_t i = slots_[slot_of(id)].heap_index;
  heap_[i].at = std::max(at, now_);
  heap_[i].seq = next_seq_++;
  sift(i);
  return true;
}

void EventLoop::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb.reset();
  if (++s.generation == 0) s.generation = 1;  // keep ids nonzero on wrap
  s.next_free = free_head_;
  free_head_ = slot;
}

void EventLoop::place(std::size_t i, const Entry& e) {
  heap_[i] = e;
  slots_[e.slot].heap_index = static_cast<std::uint32_t>(i);
}

void EventLoop::sift(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0 && earlier(e, heap_[(i - 1) / 2])) {
    place(i, heap_[(i - 1) / 2]);
    i = (i - 1) / 2;
  }
  // An entry that moved up is already earlier than its new children, so
  // this loop stops at once for it.
  for (std::size_t c = 2 * i + 1; c < heap_.size(); c = 2 * i + 1) {
    if (c + 1 < heap_.size() && earlier(heap_[c + 1], heap_[c])) ++c;
    if (!earlier(heap_[c], e)) break;
    place(i, heap_[c]);
    i = c;
  }
  place(i, e);
}

void EventLoop::remove_at(std::size_t i) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // it was the last entry
  heap_[i] = last;
  sift(i);
}

void EventLoop::fire_next() {
  const Entry e = heap_.front();
  remove_at(0);
  now_ = e.at;
  // Move the callback out and free the slot first, so the callback can
  // schedule new events (possibly reusing this very slot) and cancelling
  // the fired id from inside the callback is a no-op.
  EventCallback cb = std::move(slots_[e.slot].cb);
  release(e.slot);
  ++fired_;
  cb();
}

void EventLoop::run() {
  stopped_ = false;
  while (!stopped_ && !heap_.empty()) fire_next();
}

void EventLoop::run_until(Time deadline) {
  stopped_ = false;
  while (!stopped_ && !heap_.empty() && heap_.front().at <= deadline)
    fire_next();
  now_ = std::max(now_, deadline);
}

}  // namespace xlink::sim
