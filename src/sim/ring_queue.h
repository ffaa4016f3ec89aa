// FIFO over a power-of-two circular buffer.
//
// Unlike std::deque -- whose steady-state push/pop churns 512-byte map
// nodes through the allocator -- a RingQueue grows geometrically and then
// reuses its storage forever, so hot-path queues (link transmit queues) are
// allocation free once warm. pop_front() resets the vacated slot so any
// resource the element held (a pooled packet buffer) is returned
// immediately rather than when the slot is next overwritten.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace xlink::sim {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }

  /// The i-th element from the front (i < size()).
  T& operator[](std::size_t i) { return slots_[(head_ + i) & mask_]; }
  const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & mask_];
  }

  void push_back(T value) {
    if (count_ == slots_.size()) grow();
    slots_[(head_ + count_) & mask_] = std::move(value);
    ++count_;
  }

  void pop_front() {
    slots_[head_] = T{};
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  void clear() {
    while (!empty()) pop_front();
  }

 private:
  static constexpr std::size_t kInitialCapacity = 16;

  void grow() {
    const std::size_t next =
        slots_.empty() ? kInitialCapacity : slots_.size() * 2;
    std::vector<T> bigger(next);
    for (std::size_t i = 0; i < count_; ++i)
      bigger[i] = std::move(slots_[(head_ + i) & mask_]);
    slots_ = std::move(bigger);
    head_ = 0;
    mask_ = slots_.size() - 1;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace xlink::sim
