// Unit tests: per-path loss detection (RFC 9002 style).
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <utility>

#include "quic/loss_detection.h"

namespace xlink::quic {
namespace {

AckInfo ack_of(std::vector<AckRange> ranges, std::uint64_t delay_us = 0) {
  AckInfo info;
  info.ranges = std::move(ranges);
  info.ack_delay_us = delay_us;
  return info;
}

RttEstimator rtt_100ms() {
  RttEstimator rtt;
  rtt.on_sample(sim::millis(100), 0);
  return rtt;
}

std::vector<PacketNumber> pns(const std::vector<LostPacket>& lost) {
  std::vector<PacketNumber> out;
  out.reserve(lost.size());
  for (const LostPacket& l : lost) out.push_back(l.record->pn);
  return out;
}

std::vector<PacketNumber> pns(const std::vector<SentRecord*>& acked) {
  std::vector<PacketNumber> out;
  out.reserve(acked.size());
  for (const SentRecord* r : acked) out.push_back(r->pn);
  return out;
}

TEST(LossDetection, TracksBytesInFlight) {
  LossDetection ld;
  ld.on_packet_sent(0, sim::millis(0), 1000, true);
  ld.on_packet_sent(1, sim::millis(1), 500, false);  // ack-only pkt
  EXPECT_EQ(ld.bytes_in_flight(), 1000u);
  EXPECT_EQ(ld.tracked_packets(), 2u);
}

TEST(LossDetection, AckRemovesAndReports) {
  LossDetection ld;
  auto rtt = rtt_100ms();
  ld.on_packet_sent(0, sim::millis(0), 1000, true);
  ld.on_packet_sent(1, sim::millis(1), 1000, true);
  const auto out = ld.on_ack_received(ack_of({{0, 1}}), sim::millis(120), rtt);
  EXPECT_EQ(pns(out.newly_acked), (std::vector<PacketNumber>{0, 1}));
  EXPECT_EQ(out.acked_bytes, 2000u);
  EXPECT_EQ(ld.bytes_in_flight(), 0u);
  ASSERT_TRUE(out.rtt_sample.has_value());
  EXPECT_EQ(*out.rtt_sample, sim::millis(119));  // 120 - sent@1
  EXPECT_EQ(out.largest_acked_sent_time, sim::millis(1));
}

TEST(LossDetection, DuplicateAckIsHarmless) {
  LossDetection ld;
  auto rtt = rtt_100ms();
  ld.on_packet_sent(0, 0, 1000, true);
  ld.on_ack_received(ack_of({{0, 0}}), sim::millis(100), rtt);
  const auto again = ld.on_ack_received(ack_of({{0, 0}}), sim::millis(200), rtt);
  EXPECT_TRUE(again.newly_acked.empty());
  EXPECT_EQ(again.acked_bytes, 0u);
  EXPECT_EQ(ld.bytes_in_flight(), 0u);
}

TEST(LossDetection, PacketThresholdLoss) {
  LossDetection ld;
  auto rtt = rtt_100ms();
  for (PacketNumber pn = 0; pn <= 4; ++pn)
    ld.on_packet_sent(pn, sim::millis(pn), 1000, true);
  // Ack only pn 4, early enough that the time threshold (112.5ms) has not
  // fired: pn 0 and 1 are >= 3 behind -> lost; 2,3 not yet.
  const auto out = ld.on_ack_received(ack_of({{4, 4}}), sim::millis(20), rtt);
  EXPECT_EQ(pns(out.lost), (std::vector<PacketNumber>{0, 1}));
  for (const LostPacket& l : out.lost)
    EXPECT_EQ(l.reason, LossReason::kPacketThreshold);
  EXPECT_EQ(ld.bytes_in_flight(), 2000u);  // pns 2,3 remain
}

TEST(LossDetection, TimeThresholdLoss) {
  LossDetection ld;
  auto rtt = rtt_100ms();
  ld.on_packet_sent(0, sim::millis(0), 1000, true);
  ld.on_packet_sent(1, sim::millis(1), 1000, true);
  // Ack pn 1 shortly after; pn 0 is only 1 behind (below packet threshold).
  auto out = ld.on_ack_received(ack_of({{1, 1}}), sim::millis(50), rtt);
  EXPECT_TRUE(out.lost.empty());
  // Later, past 9/8 * 100ms since send, the time threshold fires.
  const auto lost = ld.detect_losses(sim::millis(113), rtt);
  EXPECT_EQ(pns(lost), (std::vector<PacketNumber>{0}));
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0].reason, LossReason::kTimeThreshold);
}

TEST(LossDetection, LossTimeReportsEarliestDeadline) {
  LossDetection ld;
  auto rtt = rtt_100ms();
  ld.on_packet_sent(0, sim::millis(0), 1000, true);
  ld.on_packet_sent(1, sim::millis(10), 1000, true);
  ld.on_packet_sent(2, sim::millis(20), 1000, true);
  EXPECT_FALSE(ld.loss_time(rtt).has_value());  // nothing acked yet
  ld.on_ack_received(ack_of({{2, 2}}), sim::millis(60), rtt);
  const auto t = ld.loss_time(rtt);
  ASSERT_TRUE(t.has_value());
  // Earliest unacked below largest (pn 0, sent at 0) + 112.5ms.
  EXPECT_EQ(*t, sim::millis(0) + sim::millis(100) * 9 / 8);
}

TEST(LossDetection, NoLossJudgmentAbovLargestAcked) {
  LossDetection ld;
  auto rtt = rtt_100ms();
  ld.on_packet_sent(0, 0, 1000, true);
  ld.on_packet_sent(1, 0, 1000, true);
  ld.on_ack_received(ack_of({{0, 0}}), sim::millis(10), rtt);
  // pn 1 is newer than largest acked: never declared lost by time.
  EXPECT_TRUE(ld.detect_losses(sim::millis(100000), rtt).empty());
}

TEST(LossDetection, AckElicitingInFlightIsCounted) {
  LossDetection ld;
  auto rtt = rtt_100ms();
  EXPECT_FALSE(ld.has_ack_eliciting_in_flight());
  ld.on_packet_sent(0, sim::millis(5), 100, false);
  EXPECT_FALSE(ld.has_ack_eliciting_in_flight());
  ld.on_packet_sent(1, sim::millis(9), 100, true);
  ld.on_packet_sent(2, sim::millis(10), 100, true);
  EXPECT_TRUE(ld.has_ack_eliciting_in_flight());
  ld.on_ack_received(ack_of({{1, 1}}), sim::millis(50), rtt);
  EXPECT_TRUE(ld.has_ack_eliciting_in_flight());  // pn 2 still out
  ld.on_ack_received(ack_of({{2, 2}}), sim::millis(60), rtt);
  EXPECT_FALSE(ld.has_ack_eliciting_in_flight());
  EXPECT_EQ(ld.tracked_packets(), 1u);  // non-eliciting pn 0 not yet judged
}

TEST(LossDetection, MultiRangeAck) {
  LossDetection ld;
  auto rtt = rtt_100ms();
  for (PacketNumber pn = 0; pn < 10; ++pn)
    ld.on_packet_sent(pn, sim::millis(pn), 100, true);
  const auto out =
      ld.on_ack_received(ack_of({{8, 9}, {4, 5}, {0, 1}}), sim::millis(50),
                         rtt);
  EXPECT_EQ(out.newly_acked.size(), 6u);
  // 2,3,6 are 3+ behind largest=9 -> lost; 7 is within packet threshold.
  EXPECT_EQ(pns(out.lost), (std::vector<PacketNumber>{2, 3, 6}));
  EXPECT_EQ(ld.tracked_packets(), 1u);
}

TEST(LossDetection, RttSampleOnlyWhenLargestNewlyAcked) {
  LossDetection ld;
  auto rtt = rtt_100ms();
  ld.on_packet_sent(0, 0, 100, true);
  ld.on_packet_sent(1, 0, 100, true);
  ld.on_ack_received(ack_of({{1, 1}}), sim::millis(100), rtt);
  // Second ack covers pn 0 but largest (1) is no longer newly acked.
  const auto out = ld.on_ack_received(ack_of({{0, 1}}), sim::millis(150), rtt);
  EXPECT_FALSE(out.rtt_sample.has_value());
}

// Reference model for the differential test: RFC 9002 loss detection over
// a std::map keyed by packet number, the shape the sent-packet queue
// replaced. A ledger-only entry counts everywhere the ledger does.
class MapLedger {
 public:
  struct Entry {
    sim::Time sent_time = 0;
    std::size_t bytes = 0;
    bool eliciting = false;
    bool ledger_only = true;
  };
  using Lost = std::pair<PacketNumber, LossReason>;

  void on_sent(PacketNumber pn, sim::Time t, std::size_t bytes,
               bool eliciting, bool ledger_only) {
    if (sent_.emplace(pn, Entry{t, bytes, eliciting, ledger_only}).second &&
        eliciting)
      bytes_in_flight_ += bytes;
  }

  std::vector<PacketNumber> on_ack(const AckInfo& info, sim::Time now,
                                   sim::Duration threshold,
                                   std::vector<Lost>& lost) {
    std::vector<PacketNumber> acked;
    lost.clear();
    if (info.ranges.empty()) return acked;
    for (const AckRange& r : info.ranges) {
      auto it = sent_.lower_bound(r.first);
      while (it != sent_.end() && it->first <= r.last) {
        acked.push_back(it->first);
        if (it->second.eliciting) bytes_in_flight_ -= it->second.bytes;
        it = sent_.erase(it);
      }
    }
    largest_ = any_acked_ ? std::max(largest_, info.largest_acked())
                          : info.largest_acked();
    any_acked_ = true;
    detect(now, threshold, lost);
    return acked;
  }

  void detect(sim::Time now, sim::Duration threshold, std::vector<Lost>& lost) {
    lost.clear();
    if (!any_acked_) return;
    for (auto it = sent_.begin(); it != sent_.end() && it->first < largest_;) {
      const bool by_count = largest_ >= it->first + kPacketThreshold;
      if (by_count || it->second.sent_time + threshold <= now) {
        lost.emplace_back(it->first, by_count ? LossReason::kPacketThreshold
                                              : LossReason::kTimeThreshold);
        if (it->second.eliciting) bytes_in_flight_ -= it->second.bytes;
        it = sent_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::optional<sim::Time> loss_time(sim::Duration threshold) const {
    if (!any_acked_) return std::nullopt;
    std::optional<sim::Time> earliest;
    for (const auto& [pn, e] : sent_) {
      if (pn >= largest_) break;
      if (!earliest || e.sent_time + threshold < *earliest)
        earliest = e.sent_time + threshold;
    }
    return earliest;
  }

  void rescue() {
    for (auto& [pn, e] : sent_) e.ledger_only = true;
  }
  void clear() {
    sent_.clear();
    bytes_in_flight_ = 0;
  }

  const std::map<PacketNumber, Entry>& sent() const { return sent_; }
  std::size_t bytes_in_flight() const { return bytes_in_flight_; }
  PacketNumber largest_acked() const { return largest_; }

 private:
  std::map<PacketNumber, Entry> sent_;
  std::size_t bytes_in_flight_ = 0;
  PacketNumber largest_ = 0;
  bool any_acked_ = false;
};

sim::Duration reference_threshold(const RttEstimator& rtt) {
  const sim::Duration base = std::max(rtt.smoothed(), rtt.latest());
  return std::max<sim::Duration>(base * kTimeThresholdNum / kTimeThresholdDen,
                                 sim::kMillisecond);
}

/// Drives the sent-packet queue and the map reference with one random
/// operation stream -- mostly in-order sends with the odd gap or late
/// out-of-order insert, ACKs whose ranges come in any order and overlap or
/// name never-sent pns, time-threshold sweeps, rescues and clears -- and
/// requires them to agree after every step.
TEST(LossDetection, QueueMatchesMapReferenceUnderRandomOperations) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
    LossDetection ld;
    MapLedger ref;
    RttEstimator rtt;
    rtt.on_sample(sim::millis(60), 0);
    sim::Time now = 0;
    PacketNumber next = 0;
    std::vector<MapLedger::Lost> ref_lost;

    const auto lost_of = [](const std::vector<LostPacket>& lost) {
      std::vector<MapLedger::Lost> out;
      for (const LostPacket& l : lost) out.emplace_back(l.record->pn, l.reason);
      return out;
    };
    const auto send = [&](PacketNumber pn) {
      const bool eliciting = pick(8) != 0;
      const bool ledger_only = pick(10) == 0;
      const std::size_t bytes = 40 + pick(1400);
      const bool fresh = !ref.sent().contains(pn);
      SentRecord& rec = ld.on_packet_sent(pn, now, bytes, eliciting);
      ref.on_sent(pn, now, bytes, eliciting, ledger_only);
      if (fresh && !ledger_only) {
        rec.ledger_only = false;
        rec.items.assign(1 + pick(3), SendItem{});
        rec.items.front().offset = pn;  // payload marker for the lookups
      }
    };

    for (int step = 0; step < 4000; ++step) {
      now += sim::micros(pick(4000));
      const std::uint64_t op = pick(100);
      if (op < 50) {
        if (pick(40) == 0) next += 1 + pick(30);  // a gap never sent
        send(next++);
      } else if (op < 53 && next > 0) {
        send(pick(next));  // late insert below the newest pn
      } else if (op < 83) {
        AckInfo info;
        const std::uint64_t n = 1 + pick(4);
        for (std::uint64_t r = 0; r < n; ++r) {
          const PacketNumber lo = next > 40 ? next - 40 + pick(45) : pick(45);
          info.ranges.push_back({lo, lo + pick(6)});
        }
        const auto& out = ld.on_ack_received(info, now, rtt);
        const auto ref_acked =
            ref.on_ack(info, now, reference_threshold(rtt), ref_lost);
        ASSERT_EQ(pns(out.newly_acked), ref_acked);
        for (const SentRecord* r : out.newly_acked) {
          ASSERT_EQ(r->ledger_only, r->items.empty());
          if (!r->items.empty()) {
            ASSERT_EQ(r->items.front().offset, r->pn);
          }
        }
        ASSERT_EQ(lost_of(out.lost), ref_lost);
      } else if (op < 93) {
        if (pick(3) == 0) rtt.on_sample(sim::millis(20 + pick(150)), 0);
        const auto& lost = ld.detect_losses(now, rtt);
        ref.detect(now, reference_threshold(rtt), ref_lost);
        ASSERT_EQ(lost_of(lost), ref_lost);
      } else if (op < 97) {
        for (SentRecord& rec : ld.unacked()) {
          rec.ledger_only = true;
          rec.items.clear();
        }
        ref.rescue();
      } else if (op < 98) {
        ld.clear_in_flight();
        ref.clear();
      }

      ASSERT_EQ(ld.bytes_in_flight(), ref.bytes_in_flight());
      ASSERT_EQ(ld.tracked_packets(), ref.sent().size());
      ASSERT_EQ(ld.largest_acked(), ref.largest_acked());
      ASSERT_EQ(ld.loss_time(rtt), ref.loss_time(reference_threshold(rtt)));
      bool eliciting = false;
      std::vector<PacketNumber> ref_ledger;
      std::vector<PacketNumber> ref_unacked;
      for (const auto& [pn, e] : ref.sent()) {
        eliciting |= e.eliciting;
        ref_ledger.push_back(pn);
        if (!e.ledger_only) ref_unacked.push_back(pn);
      }
      ASSERT_EQ(ld.has_ack_eliciting_in_flight(), eliciting);
      std::vector<PacketNumber> ledger;
      for (const SentRecord& r : ld.ledger()) ledger.push_back(r.pn);
      ASSERT_EQ(ledger, ref_ledger);
      std::vector<PacketNumber> unacked;
      for (const SentRecord& r : ld.unacked())
        unacked.push_back(r.pn);
      ASSERT_EQ(unacked, ref_unacked);
    }
  }
}

}  // namespace
}  // namespace xlink::quic
