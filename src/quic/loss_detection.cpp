#include "quic/loss_detection.h"

#include <algorithm>
#include <utility>

namespace xlink::quic {
namespace {

/// Resets a slot for a new packet; its vectors keep their capacity, so a
/// warm queue sends without touching the heap.
void reset_keeping_capacity(SentRecord& rec) {
  std::vector<SendItem> items = std::move(rec.items);
  std::vector<Frame> control = std::move(rec.control);
  items.clear();
  control.clear();
  rec = SentRecord{};
  rec.items = std::move(items);
  rec.control = std::move(control);
}

}  // namespace

SentRecord& LossDetection::on_packet_sent(PacketNumber pn, sim::Time now,
                                          std::size_t bytes,
                                          bool ack_eliciting) {
  SentRecord* rec = nullptr;
  if (count_ == 0 || at(count_ - 1).pn < pn) {
    rec = &push_back();
  } else {
    const std::size_t i = lower_bound(pn);
    if (at(i).pn == pn) {
      if (!at(i).retired) return at(i);
      reset_keeping_capacity(at(i));
    } else {
      push_back();
      for (std::size_t j = count_ - 1; j > i; --j) std::swap(at(j), at(j - 1));
    }
    rec = &at(i);
  }
  rec->pn = pn;
  rec->sent_time = now;
  rec->bytes = bytes;
  rec->ack_eliciting = ack_eliciting;
  ++tracked_;
  if (ack_eliciting) {
    ++eliciting_in_flight_;
    bytes_in_flight_ += bytes;
  }
  return *rec;
}

std::size_t LossDetection::lower_bound(PacketNumber pn) const {
  std::size_t lo = 0;
  std::size_t hi = count_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (at(mid).pn < pn) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

SentRecord& LossDetection::push_back() {
  if (count_ == slots_.size()) grow();
  SentRecord& rec = at(count_);
  ++count_;
  reset_keeping_capacity(rec);
  return rec;
}

void LossDetection::grow() {
  const std::size_t next =
      slots_.empty() ? kInitialCapacity : slots_.size() * 2;
  std::vector<SentRecord> bigger(next);
  // Every old slot moves, trimmed ones too, so their vectors stay warm.
  for (std::size_t i = 0; i < slots_.size(); ++i)
    bigger[i] = std::move(at(i));
  slots_ = std::move(bigger);
  head_ = 0;
  mask_ = next - 1;
}

void LossDetection::retire(SentRecord& rec) {
  rec.retired = true;
  --tracked_;
  if (rec.ack_eliciting) {
    --eliciting_in_flight_;
    bytes_in_flight_ -= rec.bytes;
  }
}

void LossDetection::trim() {
  while (count_ > 0 && at(0).retired) {
    head_ = (head_ + 1) & mask_;
    --count_;
  }
}

sim::Duration LossDetection::time_threshold(const RttEstimator& rtt) const {
  const sim::Duration base = std::max(rtt.smoothed(), rtt.latest());
  return std::max<sim::Duration>(
      base * kTimeThresholdNum / kTimeThresholdDen, sim::kMillisecond);
}

const LossDetection::AckOutcome& LossDetection::on_ack_received(
    const AckInfo& info, sim::Time now, const RttEstimator& rtt) {
  AckOutcome& out = outcome_;
  out.newly_acked.clear();
  out.lost.clear();
  out.acked_bytes = 0;
  out.rtt_sample.reset();
  out.largest_acked_sent_time = 0;
  if (info.ranges.empty()) return out;
  const PacketNumber largest = info.largest_acked();

  for (const AckRange& range : info.ranges) {
    for (std::size_t i = lower_bound(range.first);
         i < count_ && at(i).pn <= range.last; ++i) {
      SentRecord& rec = at(i);
      if (rec.retired) continue;
      out.newly_acked.push_back(&rec);
      if (rec.ack_eliciting) out.acked_bytes += rec.bytes;
      if (rec.pn == largest) {
        out.largest_acked_sent_time = rec.sent_time;
        if (rec.ack_eliciting)
          out.rtt_sample = now >= rec.sent_time ? now - rec.sent_time : 0;
      }
      retire(rec);
    }
  }
  if (largest > largest_acked_ || !any_acked_) {
    largest_acked_ = std::max(largest_acked_, largest);
    any_acked_ = true;
  }
  detect_losses(now, rtt);
  return out;
}

const std::vector<LostPacket>& LossDetection::detect_losses(
    sim::Time now, const RttEstimator& rtt) {
  std::vector<LostPacket>& lost = outcome_.lost;
  lost.clear();
  if (any_acked_) {
    const sim::Duration threshold = time_threshold(rtt);
    for (std::size_t i = 0; i < count_; ++i) {
      SentRecord& rec = at(i);
      if (rec.pn >= largest_acked_) break;  // nothing newer acked: can't judge
      if (rec.retired) continue;
      const bool by_count = largest_acked_ >= rec.pn + kPacketThreshold;
      const bool by_time = rec.sent_time + threshold <= now;
      if (by_count || by_time) {
        lost.push_back({&rec, by_count ? LossReason::kPacketThreshold
                                       : LossReason::kTimeThreshold});
        retire(rec);
      }
    }
  }
  trim();
  return lost;
}

std::optional<sim::Time> LossDetection::loss_time(
    const RttEstimator& rtt) const {
  if (!any_acked_) return std::nullopt;
  const sim::Duration threshold = time_threshold(rtt);
  std::optional<sim::Time> earliest;
  for (std::size_t i = 0; i < count_; ++i) {
    const SentRecord& rec = at(i);
    if (rec.pn >= largest_acked_) break;
    if (rec.retired) continue;
    const sim::Time t = rec.sent_time + threshold;
    if (!earliest || t < *earliest) earliest = t;
  }
  return earliest;
}

void LossDetection::clear_in_flight() {
  count_ = 0;
  tracked_ = 0;
  eliciting_in_flight_ = 0;
  bytes_in_flight_ = 0;
}

sim::Duration backed_off_pto(sim::Duration base_pto,
                             std::uint32_t pto_count) {
  const sim::Duration raw =
      base_pto << std::min(pto_count, kMaxPtoBackoffShift);
  return std::min(raw, kMaxPto);
}

}  // namespace xlink::quic
