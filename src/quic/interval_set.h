// Half-open interval set over byte offsets, the bookkeeping primitive for
// stream send/ack tracking and receive-side reassembly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>

namespace xlink::quic {

/// Maintains a set of disjoint half-open intervals [begin, end).
class IntervalSet {
 public:
  /// Adds [begin, end), merging with neighbours.
  void add(std::uint64_t begin, std::uint64_t end);

  /// True if [begin, end) is fully covered.
  bool contains(std::uint64_t begin, std::uint64_t end) const;

  /// True if any byte of [begin, end) is covered.
  bool intersects(std::uint64_t begin, std::uint64_t end) const;

  /// Lowest offset >= `from` that is NOT covered.
  std::uint64_t next_gap(std::uint64_t from) const;

  /// Total covered bytes.
  std::uint64_t covered_bytes() const;

  /// Merges adjacent intervals -- smallest separating gap first -- until at
  /// most `max_intervals` remain; each swallowed gap becomes covered.
  /// Returns the phantom bytes synthesized. Bounds the memory an adversary
  /// can pin with a fragmentation spray (every interval is a map node).
  std::uint64_t collapse_to(std::size_t max_intervals);

  bool empty() const { return intervals_.empty(); }
  std::size_t interval_count() const { return intervals_.size(); }

  const std::map<std::uint64_t, std::uint64_t>& intervals() const {
    return intervals_;  // begin -> end
  }

 private:
  std::map<std::uint64_t, std::uint64_t> intervals_;
};

inline void IntervalSet::add(std::uint64_t begin, std::uint64_t end) {
  if (begin >= end) return;
  // Find the first interval that could overlap or touch [begin, end).
  auto it = intervals_.upper_bound(begin);
  if (it != intervals_.begin() && std::prev(it)->second >= begin) {
    // Grow the predecessor in place (no node churn: in-order appends, the
    // common case, never allocate), then swallow what it now reaches.
    auto prev = std::prev(it);
    prev->second = std::max(prev->second, end);
    while (it != intervals_.end() && it->first <= prev->second) {
      prev->second = std::max(prev->second, it->second);
      it = intervals_.erase(it);
    }
    return;
  }
  while (it != intervals_.end() && it->first <= end) {
    end = std::max(end, it->second);
    it = intervals_.erase(it);
  }
  intervals_.emplace_hint(it, begin, end);
}

inline bool IntervalSet::contains(std::uint64_t begin, std::uint64_t end) const {
  if (begin >= end) return true;
  auto it = intervals_.upper_bound(begin);
  if (it == intervals_.begin()) return false;
  --it;
  return it->first <= begin && it->second >= end;
}

inline bool IntervalSet::intersects(std::uint64_t begin,
                                    std::uint64_t end) const {
  if (begin >= end) return false;
  auto it = intervals_.upper_bound(begin);
  if (it != intervals_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > begin) return true;
  }
  return it != intervals_.end() && it->first < end;
}

inline std::uint64_t IntervalSet::next_gap(std::uint64_t from) const {
  auto it = intervals_.upper_bound(from);
  if (it == intervals_.begin()) return from;
  --it;
  return it->second > from ? it->second : from;
}

inline std::uint64_t IntervalSet::covered_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [b, e] : intervals_) total += e - b;
  return total;
}

inline std::uint64_t IntervalSet::collapse_to(std::size_t max_intervals) {
  if (max_intervals == 0) max_intervals = 1;
  std::uint64_t phantom = 0;
  while (intervals_.size() > max_intervals) {
    auto best = intervals_.begin();
    std::uint64_t best_gap = ~std::uint64_t{0};
    for (auto it = intervals_.begin(); std::next(it) != intervals_.end();
         ++it) {
      const std::uint64_t gap = std::next(it)->first - it->second;
      if (gap < best_gap) {
        best_gap = gap;
        best = it;
      }
    }
    auto nx = std::next(best);
    phantom += nx->first - best->second;
    best->second = nx->second;
    intervals_.erase(nx);
  }
  return phantom;
}

}  // namespace xlink::quic
