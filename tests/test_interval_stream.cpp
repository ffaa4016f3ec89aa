// Unit tests: interval set and stream send/receive state.
#include <gtest/gtest.h>

#include "quic/interval_set.h"
#include "quic/stream.h"

namespace xlink::quic {
namespace {

/// Reads up to `max` bytes from `s` into a fresh vector.
std::vector<std::uint8_t> read(RecvStream& s, std::size_t max) {
  std::vector<std::uint8_t> out(max);
  out.resize(s.read(out));
  return out;
}

TEST(IntervalSet, AddAndContains) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  s.add(10, 20);
  EXPECT_TRUE(s.contains(10, 20));
  EXPECT_TRUE(s.contains(12, 15));
  EXPECT_FALSE(s.contains(9, 11));
  EXPECT_FALSE(s.contains(19, 21));
  EXPECT_EQ(s.covered_bytes(), 10u);
}

TEST(IntervalSet, MergesAdjacentAndOverlapping) {
  IntervalSet s;
  s.add(0, 10);
  s.add(10, 20);  // adjacent
  EXPECT_EQ(s.interval_count(), 1u);
  s.add(30, 40);
  s.add(25, 35);  // overlaps
  EXPECT_EQ(s.interval_count(), 2u);
  s.add(15, 28);  // bridges both
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_TRUE(s.contains(0, 40));
}

TEST(IntervalSet, EmptyRangeIgnored) {
  IntervalSet s;
  s.add(5, 5);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.contains(7, 7));  // empty query is vacuously covered
}

TEST(IntervalSet, NextGap) {
  IntervalSet s;
  s.add(0, 10);
  s.add(20, 30);
  EXPECT_EQ(s.next_gap(0), 10u);
  EXPECT_EQ(s.next_gap(5), 10u);
  EXPECT_EQ(s.next_gap(10), 10u);
  EXPECT_EQ(s.next_gap(20), 30u);
  EXPECT_EQ(s.next_gap(50), 50u);
}

TEST(IntervalSet, Intersects) {
  IntervalSet s;
  s.add(10, 20);
  EXPECT_TRUE(s.intersects(15, 25));
  EXPECT_TRUE(s.intersects(5, 11));
  EXPECT_FALSE(s.intersects(0, 10));   // half-open: touches only
  EXPECT_FALSE(s.intersects(20, 30));
  EXPECT_FALSE(s.intersects(30, 30));
}

TEST(SendStream, WriteReturnsOffsets) {
  SendStream s(4);
  EXPECT_EQ(s.write({1, 2, 3}, false), 0u);
  EXPECT_EQ(s.write({4, 5}, true), 3u);
  EXPECT_EQ(s.total_written(), 5u);
  EXPECT_TRUE(s.fin_written());
}

TEST(SendStream, ViewRangeClampsToWritten) {
  SendStream s(4);
  s.write({10, 11, 12, 13}, false);
  const auto bytes = [&s](std::uint64_t offset, std::size_t len) {
    const auto view = s.view_range(offset, len);
    return std::vector<std::uint8_t>(view.begin(), view.end());
  };
  EXPECT_EQ(bytes(1, 2), (std::vector<std::uint8_t>{11, 12}));
  EXPECT_EQ(bytes(3, 10), (std::vector<std::uint8_t>{13}));
  EXPECT_TRUE(s.view_range(99, 5).empty());
}

TEST(SendStream, AckTrackingAndFullyAcked) {
  SendStream s(4);
  s.write(std::vector<std::uint8_t>(100, 0), true);
  EXPECT_FALSE(s.fully_acked());
  s.on_range_acked(0, 50);
  EXPECT_TRUE(s.range_acked(0, 50));
  EXPECT_FALSE(s.range_acked(0, 51));
  EXPECT_FALSE(s.fully_acked());
  s.on_range_acked(50, 100);
  EXPECT_TRUE(s.fully_acked());
  EXPECT_EQ(s.acked_bytes(), 100u);
}

TEST(SendStream, EmptyFinOnlyStreamFullyAckedImmediately) {
  SendStream s(0);
  s.write({}, true);
  EXPECT_TRUE(s.fully_acked());
}

TEST(SendStream, UnackedWithin) {
  SendStream s(4);
  s.write(std::vector<std::uint8_t>(100, 0), false);
  s.on_range_acked(20, 40);
  s.on_range_acked(60, 70);
  const auto gaps = s.unacked_within(10, 90);
  using Range = std::pair<std::uint64_t, std::uint64_t>;
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_EQ(gaps[0], (Range{10, 20}));
  EXPECT_EQ(gaps[1], (Range{40, 60}));
  EXPECT_EQ(gaps[2], (Range{70, 90}));
  // Fully acked subrange -> empty.
  EXPECT_TRUE(s.unacked_within(25, 35).empty());
  // Untouched region -> one whole gap.
  const auto whole = s.unacked_within(90, 95);
  ASSERT_EQ(whole.size(), 1u);
}

TEST(SendStream, FramePriorities) {
  SendStream s(4);
  s.write(std::vector<std::uint8_t>(1000, 0), false);
  s.set_frame_priority(0, 300, 2);
  s.set_frame_priority(100, 100, 5);  // overlapping: highest wins
  EXPECT_EQ(s.frame_priority_at(0), 2);
  EXPECT_EQ(s.frame_priority_at(150), 5);
  EXPECT_EQ(s.frame_priority_at(299), 2);
  EXPECT_EQ(s.frame_priority_at(300), 0);
  EXPECT_EQ(s.frame_priority_at(999), 0);
}

TEST(SendStream, PriorityRunEndsMatchPerByteScan) {
  // The send path splits writes at frame_priority_run_end; it must cut
  // exactly where a byte-by-byte frame_priority_at scan would.
  struct Case {
    const char* name;
    std::vector<FramePriorityRange> ranges;
  };
  const std::vector<Case> cases = {
      {"none", {}},
      {"nested", {{4, 40, 2}, {10, 20, 5}, {12, 14, 9}}},
      {"overlapping", {{5, 25, 3}, {15, 35, 6}, {30, 45, 1}}},
      {"adjacent equal", {{0, 10, 4}, {10, 20, 4}, {20, 30, 4}, {30, 31, 7}}},
      {"empty", {{8, 8, 9}, {16, 16, 0}, {12, 24, 2}, {24, 24, 5}}},
      {"lower inside higher", {{0, 48, 6}, {10, 30, 1}}},
  };
  constexpr std::uint64_t kSize = 50;
  for (const Case& c : cases) {
    SendStream s(4);
    s.write(std::vector<std::uint8_t>(kSize, 0), false);
    for (const auto& r : c.ranges)
      s.set_frame_priority(r.begin, r.end - r.begin, r.priority);
    for (std::uint64_t offset = 0; offset < kSize; ++offset) {
      for (std::uint64_t limit = offset + 1; limit <= kSize; ++limit) {
        const int prio = s.frame_priority_at(offset);
        std::uint64_t scan = offset + 1;
        while (scan < limit && s.frame_priority_at(scan) == prio) ++scan;
        ASSERT_EQ(s.frame_priority_run_end(offset, limit), scan)
            << c.name << ": offset " << offset << " limit " << limit;
      }
    }
  }
}

TEST(SendStream, PrioritySetter) {
  SendStream s(4);
  EXPECT_EQ(s.priority(), 0);
  s.set_priority(-3);
  EXPECT_EQ(s.priority(), -3);
}

TEST(RecvStream, InOrderDelivery) {
  RecvStream s(4);
  s.on_data(0, {1, 2, 3}, false);
  EXPECT_EQ(s.readable_bytes(), 3u);
  EXPECT_EQ(read(s, 2), (std::vector<std::uint8_t>{1, 2}));
  EXPECT_EQ(s.read_offset(), 2u);
  EXPECT_EQ(s.readable_bytes(), 1u);
}

TEST(RecvStream, OutOfOrderReassembly) {
  RecvStream s(4);
  s.on_data(3, {4, 5, 6}, false);
  EXPECT_EQ(s.readable_bytes(), 0u);  // gap at 0
  s.on_data(0, {1, 2, 3}, false);
  EXPECT_EQ(s.readable_bytes(), 6u);
  EXPECT_EQ(read(s, 100), (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6}));
}

TEST(RecvStream, DuplicatesCountedNotDoubled) {
  RecvStream s(4);
  s.on_data(0, {1, 2, 3, 4}, false);
  s.on_data(2, {3, 4, 5}, false);  // 2 bytes duplicate, 1 new
  EXPECT_EQ(s.duplicate_bytes(), 2u);
  EXPECT_EQ(s.contiguous_received(), 5u);
  EXPECT_EQ(read(s, 10), (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
}

TEST(RecvStream, OverlappingRewriteKeepsConsistentData) {
  RecvStream s(4);
  s.on_data(0, {1, 1, 1}, false);
  s.on_data(1, {9, 9}, false);  // overlap rewrite (same data in practice)
  EXPECT_EQ(read(s, 3), (std::vector<std::uint8_t>{1, 9, 9}));
}

TEST(RecvStream, FinAndFinished) {
  RecvStream s(4);
  s.on_data(0, {1, 2}, false);
  EXPECT_FALSE(s.final_size().has_value());
  s.on_data(2, {3}, true);
  ASSERT_TRUE(s.final_size().has_value());
  EXPECT_EQ(*s.final_size(), 3u);
  EXPECT_TRUE(s.fully_received());
  EXPECT_FALSE(s.finished());  // not yet consumed
  read(s, 3);
  EXPECT_TRUE(s.finished());
}

TEST(RecvStream, EmptyFin) {
  RecvStream s(4);
  s.on_data(0, {}, true);
  ASSERT_TRUE(s.final_size().has_value());
  EXPECT_EQ(*s.final_size(), 0u);
  EXPECT_TRUE(s.finished());
}

TEST(RecvStream, FinArrivesBeforeGapFilled) {
  RecvStream s(4);
  s.on_data(5, {6}, true);
  EXPECT_FALSE(s.fully_received());
  s.on_data(0, {1, 2, 3, 4, 5}, false);
  EXPECT_TRUE(s.fully_received());
}

// --------------------------- adversarial fragmentation (hostile peer)

TEST(IntervalSet, CollapseToMergesSmallestGapFirst) {
  IntervalSet s;
  s.add(0, 10);
  s.add(12, 20);   // gap of 2 (smallest)
  s.add(120, 130); // gap of 100
  const std::uint64_t phantom = s.collapse_to(2);
  EXPECT_EQ(phantom, 2u);  // only the 2-byte gap was swallowed
  EXPECT_EQ(s.interval_count(), 2u);
  EXPECT_TRUE(s.contains(0, 20));
  EXPECT_FALSE(s.contains(20, 120));
  EXPECT_TRUE(s.contains(120, 130));
}

TEST(IntervalSet, CollapseToZeroTreatedAsOne) {
  IntervalSet s;
  s.add(0, 1);
  s.add(10, 11);
  s.add(20, 21);
  const std::uint64_t phantom = s.collapse_to(0);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(phantom, 9u + 9u);
  EXPECT_TRUE(s.contains(0, 21));
}

TEST(IntervalSet, FragmentationSprayStaysBounded) {
  // The attack: single-byte ranges with a hole between each, forcing a new
  // map node per frame. With the cap, the node count never exceeds the
  // budget no matter how long the spray runs.
  IntervalSet s;
  std::uint64_t phantom = 0;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    s.add(2 * i, 2 * i + 1);
    if (s.interval_count() > 64) phantom += s.collapse_to(64);
  }
  EXPECT_LE(s.interval_count(), 64u);
  // Bytes accounting stays exact: real bytes + phantom == covered.
  EXPECT_EQ(s.covered_bytes(), 10000u + phantom);
}

TEST(RecvStream, GapCapCollapsesAndCountsPhantoms) {
  RecvStream s(4);
  s.set_max_gaps(8);
  for (std::uint64_t i = 0; i < 1000; ++i) s.on_data(2 * i, {0xaa}, false);
  EXPECT_LE(s.tracked_intervals(), 8u);
  EXPECT_GT(s.gap_collapses(), 0u);
  EXPECT_GT(s.phantom_bytes(), 0u);
}

TEST(RecvStream, LateRealDataOverwritesPhantomZeros) {
  // Soft-defense contract: a collapsed gap reads as zeros until the real
  // bytes arrive; on_data copies unconditionally, so late data heals it.
  RecvStream s(4);
  s.set_max_gaps(1);
  s.on_data(0, {1}, false);
  s.on_data(4, {5}, false);  // gap [1,4) collapses to phantom zeros
  EXPECT_EQ(s.tracked_intervals(), 1u);
  auto first = read(s, 5);
  ASSERT_EQ(first.size(), 5u);
  EXPECT_EQ(first[1], 0u);  // phantom

  RecvStream healed(8);
  healed.set_max_gaps(1);
  healed.on_data(0, {1}, false);
  healed.on_data(4, {5}, false);
  healed.on_data(1, {2, 3, 4}, false);  // the real bytes arrive late
  auto bytes = read(healed, 5);
  ASSERT_EQ(bytes.size(), 5u);
  EXPECT_EQ(bytes, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
}

TEST(RecvStream, UnlimitedGapsByDefault) {
  RecvStream s(4);
  for (std::uint64_t i = 0; i < 500; ++i) s.on_data(2 * i, {0xbb}, false);
  EXPECT_EQ(s.tracked_intervals(), 500u);
  EXPECT_EQ(s.gap_collapses(), 0u);
}

}  // namespace
}  // namespace xlink::quic
