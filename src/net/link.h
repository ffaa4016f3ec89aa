// One-directional emulated link.
//
// A link models the Mahimahi pipeline: droptail queue -> capacity process
// (trace-driven delivery opportunities or a fixed rate) -> loss ->
// propagation delay -> receiver callback.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "net/datagram.h"
#include "sim/event_loop.h"
#include "sim/ring_queue.h"
#include "sim/rng.h"
#include "trace/trace.h"

namespace xlink::net {

struct LinkStats {
  std::uint64_t packets_enqueued = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_dropped_queue = 0;  // droptail overflow
  std::uint64_t packets_dropped_loss = 0;   // random loss
  std::uint64_t bytes_delivered = 0;
  std::uint64_t peak_queued_bytes = 0;  // droptail high-water mark
};

/// Two-state Gilbert-Elliott bursty loss: a good state with low loss and a
/// bad state with high loss; the state transition is sampled per packet.
/// Burst loss is the regime where FEC windows see correlated erasures (FEC
/// ablation benches).
struct GeLoss {
  double p_good_to_bad = 0.0;
  double p_bad_to_good = 0.3;
  double loss_good = 0.0;
  double loss_bad = 0.5;
};

struct LinkConfig {
  sim::Duration propagation_delay = sim::millis(10);  // one-way
  std::size_t queue_capacity_bytes = 1024 * 1024;     // droptail bound
  /// Independent (Bernoulli) residual loss; 0 = none.
  double loss_rate = 0.0;
  /// Bursty loss, composed with loss_rate when both are set.
  std::optional<GeLoss> ge_loss;
};

class Link {
 public:
  using DeliverFn = std::function<void(Datagram)>;

  /// Trace-driven link: one packet departs per delivery opportunity of the
  /// trace (the trace loops past its end, with time offset by its period).
  Link(sim::EventLoop& loop, trace::LinkTrace trace, LinkConfig cfg,
       sim::Rng rng);

  /// Fixed-rate link: serializes packets at `rate_bps` (store-and-forward).
  Link(sim::EventLoop& loop, double rate_bps, LinkConfig cfg, sim::Rng rng);

  // Scheduled departures and deliveries point at the link.
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Enqueues a datagram for transmission. May drop (droptail).
  void send(Datagram dgram);

  /// Sets the receiver; must be set before the first delivery fires.
  void set_receiver(DeliverFn fn) { deliver_ = std::move(fn); }

  const LinkStats& stats() const { return stats_; }

  /// Bytes currently queued (not yet transmitted).
  std::size_t queued_bytes() const { return queued_bytes_; }

 private:
  void arm_next_departure();
  void depart_one();
  /// Draws this departure's loss: the Bernoulli draw first, then the
  /// Gilbert-Elliott transition and its draw. Every configured draw is
  /// taken even when an earlier one already dropped the packet, so the
  /// burst state advances once per departure.
  bool lost();

  sim::EventLoop& loop_;
  std::optional<trace::LinkTrace> trace_;  // empty = fixed rate
  double rate_bps_ = 0.0;
  LinkConfig cfg_;
  sim::Rng rng_;
  DeliverFn deliver_;
  LinkStats stats_;
  sim::RingQueue<Datagram> queue_;
  std::size_t queued_bytes_ = 0;
  std::uint64_t next_opportunity_ = 0;  // trace: monotone cursor
  sim::Time link_free_at_ = 0;  // fixed rate: when the serializer is idle
  bool ge_bad_ = false;         // Gilbert-Elliott state
  bool departure_armed_ = false;
};

}  // namespace xlink::net
