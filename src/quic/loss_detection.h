// Per-path loss detection, RFC 9002 style, over the path's sent-packet
// queue.
//
// Multipath QUIC gives each path its own packet number space, so each path
// owns one LossDetection instance. It owns the path's sent packets -- the
// paper's unacked_q -- as one pn-ordered queue of SentRecords: the ledger
// (bytes in flight, the loss and PTO timers, RTT samples) and the payload
// the connection retransmits when a packet is declared lost live in the
// same record. RFC 9002 Appendix A.1 keeps the same one association per
// packet-number space.
//
// A packet is declared lost when it is unacked and either
//   largest_acked >= pn + kPacketThreshold            (packet threshold), or
//   sent_time <= now - 9/8 * max(srtt, latest_rtt)    (time threshold,
//                                                      once something newer
//                                                      was acked).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "quic/delivery_rate.h"
#include "quic/frame.h"
#include "quic/rtt.h"
#include "quic/scheduler.h"
#include "quic/types.h"
#include "sim/time.h"

namespace xlink::quic {

constexpr std::uint64_t kPacketThreshold = 3;
constexpr int kTimeThresholdNum = 9;   // 9/8 of RTT
constexpr int kTimeThresholdDen = 8;

/// PTO exponential backoff doubles per consecutive timeout (RFC 9002 §6.2)
/// but is capped twice: the exponent stops growing, and the resulting
/// interval never exceeds kMaxPto. Without the absolute cap, a long
/// blackout (srtt inflated into seconds by ack silence) pushes the next
/// probe past the session horizon and a recovered path is never noticed.
constexpr std::uint32_t kMaxPtoBackoffShift = 6;
constexpr sim::Duration kMaxPto = sim::seconds(4);

/// The backed-off PTO interval for a path that has seen `pto_count`
/// consecutive timeouts.
sim::Duration backed_off_pto(sim::Duration base_pto, std::uint32_t pto_count);

/// One sent packet, kept until it is acked or lost.
struct SentRecord {
  PacketNumber pn = 0;
  PathId path = 0;
  sim::Time sent_time = 0;
  std::size_t bytes = 0;
  bool ack_eliciting = false;
  /// Acked or declared lost: a tombstone until trimmed from the queue front.
  bool retired = false;
  /// In the ledger only: the record counts toward bytes in flight, the
  /// timers and RTT samples, but carries no payload -- it never had one,
  /// or its payload was rescued onto other paths. Its ack or loss touches
  /// no stream, congestion controller, rate sampler or loss counter.
  bool ledger_only = true;
  std::vector<SendItem> items;   // stream ranges carried
  std::vector<Frame> control;    // retransmittable control frames carried
  bool is_reinjection = false;   // this packet was itself a re-injection
  bool reinjected = false;       // a duplicate of this packet was queued
  sim::Time reinjected_at = 0;   // when that duplicate was queued
  /// Delivery-rate stamp (draft-cheng): the path's delivered totals frozen
  /// at send time, so the ack can reconstruct the rate over this flight.
  RateStamp rate_stamp;
};

/// Which of the two RFC 9002 rules declared a packet lost (exported to
/// telemetry; time-threshold losses are the signature of reordering or
/// delay spikes rather than drops).
enum class LossReason : std::uint8_t { kPacketThreshold = 0, kTimeThreshold };

struct LostPacket {
  SentRecord* record = nullptr;
  LossReason reason = LossReason::kPacketThreshold;
};

class LossDetection {
  template <typename Q, typename R>
  class Iterator;
  template <typename Q, typename R>
  class Range;

 public:
  LossDetection() = default;
  // Results hand out pointers into the queue.
  LossDetection(const LossDetection&) = delete;
  LossDetection& operator=(const LossDetection&) = delete;

  /// Tracks sent packet `pn` and returns its record, ledger-only until the
  /// caller attaches a payload and clears the flag. Packets arrive in
  /// ascending pn and are appended; an older pn is inserted in order. A pn
  /// that is already tracked keeps its record.
  SentRecord& on_packet_sent(PacketNumber pn, sim::Time now, std::size_t bytes,
                             bool ack_eliciting);

  struct AckOutcome {
    /// Records this ACK acked, per range in the ACK's order, ascending pn
    /// within a range.
    std::vector<SentRecord*> newly_acked;
    std::vector<LostPacket> lost;
    std::size_t acked_bytes = 0;
    /// RTT sample (now - send time of largest newly-acked, if ack-eliciting).
    std::optional<sim::Duration> rtt_sample;
    /// Send time of the largest newly-acked packet (CC recovery check).
    sim::Time largest_acked_sent_time = 0;
  };

  /// Processes an ACK block; also runs loss detection with the new
  /// largest-acked information. The outcome is storage reused by the next
  /// call; it and the records it points to stay valid until this path next
  /// sends (on_packet_sent) or is cleared.
  const AckOutcome& on_ack_received(const AckInfo& info, sim::Time now,
                                    const RttEstimator& rtt);

  /// Re-runs time-threshold loss detection (call when the loss timer
  /// fires). Same storage and validity rules as on_ack_received.
  const std::vector<LostPacket>& detect_losses(sim::Time now,
                                               const RttEstimator& rtt);

  /// Earliest time at which a currently-tracked packet would cross the time
  /// threshold; nullopt when no packet is waiting on it.
  std::optional<sim::Time> loss_time(const RttEstimator& rtt) const;

  std::size_t bytes_in_flight() const { return bytes_in_flight_; }
  bool has_ack_eliciting_in_flight() const { return eliciting_in_flight_ > 0; }
  PacketNumber largest_acked() const { return largest_acked_; }
  std::size_t tracked_packets() const { return tracked_; }

  /// The records whose payload this path still carries, ascending pn.
  Range<LossDetection, SentRecord> unacked();
  /// Every record the ledger counts (ledger-only ones included), ascending
  /// pn.
  Range<const LossDetection, const SentRecord> ledger() const;

  /// Forgets everything in flight (failover rescue: the connection requeues
  /// the content elsewhere, so the dead path stops charging bytes_in_flight
  /// and stops arming loss/PTO timers for packets that will never be acked).
  void clear_in_flight();

 private:
  static constexpr std::size_t kInitialCapacity = 16;

  SentRecord& at(std::size_t i) { return slots_[(head_ + i) & mask_]; }
  const SentRecord& at(std::size_t i) const {
    return slots_[(head_ + i) & mask_];
  }
  /// Index of the first record with pn >= `pn` (count_ if none).
  std::size_t lower_bound(PacketNumber pn) const;
  /// Appends a blank record (reusing the slot's vectors) and returns it.
  SentRecord& push_back();
  void grow();
  /// Retires a tracked record, taking it out of the ledger.
  void retire(SentRecord& rec);
  /// Drops tombstones from the queue front.
  void trim();
  sim::Duration time_threshold(const RttEstimator& rtt) const;

  // Ring of records in ascending pn: live records and tombstones between
  // head_ and head_ + count_. Grows geometrically, then slots are reused.
  std::vector<SentRecord> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t mask_ = 0;

  std::size_t tracked_ = 0;             // live records
  std::size_t eliciting_in_flight_ = 0; // live ack-eliciting records
  std::size_t bytes_in_flight_ = 0;
  PacketNumber largest_acked_ = 0;
  bool any_acked_ = false;
  AckOutcome outcome_;
};

/// Forward iterator over the live records of a queue, skipping tombstones
/// and, for the unacked view, ledger-only records.
template <typename Q, typename R>
class LossDetection::Iterator {
 public:
  Iterator(Q* q, std::size_t i, bool with_ledger_only)
      : q_(q), i_(i), with_ledger_only_(with_ledger_only) {
    settle();
  }
  R& operator*() const { return q_->at(i_); }
  Iterator& operator++() {
    ++i_;
    settle();
    return *this;
  }
  bool operator==(const Iterator& o) const { return i_ == o.i_; }

 private:
  void settle() {
    while (i_ < q_->count_) {
      const SentRecord& r = q_->at(i_);
      if (!r.retired && (with_ledger_only_ || !r.ledger_only)) return;
      ++i_;
    }
  }

  Q* q_;
  std::size_t i_;
  bool with_ledger_only_;
};

template <typename Q, typename R>
class LossDetection::Range {
 public:
  Range(Q* q, bool with_ledger_only)
      : q_(q), with_ledger_only_(with_ledger_only) {}
  Iterator<Q, R> begin() const { return {q_, 0, with_ledger_only_}; }
  Iterator<Q, R> end() const { return {q_, q_->count_, with_ledger_only_}; }

 private:
  Q* q_;
  bool with_ledger_only_;
};

inline LossDetection::Range<LossDetection, SentRecord>
LossDetection::unacked() {
  return {this, false};
}
inline LossDetection::Range<const LossDetection, const SentRecord>
LossDetection::ledger() const {
  return {this, true};
}

}  // namespace xlink::quic
