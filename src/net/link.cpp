#include "net/link.h"

#include <algorithm>
#include <utility>

namespace xlink::net {

Link::Link(sim::EventLoop& loop, trace::LinkTrace trace, LinkConfig cfg,
           sim::Rng rng)
    : loop_(loop), trace_(std::move(trace)), cfg_(std::move(cfg)), rng_(rng) {}

Link::Link(sim::EventLoop& loop, double rate_bps, LinkConfig cfg, sim::Rng rng)
    : loop_(loop), rate_bps_(rate_bps), cfg_(std::move(cfg)), rng_(rng) {}

void Link::send(Datagram dgram) {
  ++stats_.packets_enqueued;
  if (queued_bytes_ + dgram.size() > cfg_.queue_capacity_bytes) {
    ++stats_.packets_dropped_queue;
    return;
  }
  queued_bytes_ += dgram.size();
  stats_.peak_queued_bytes =
      std::max<std::uint64_t>(stats_.peak_queued_bytes, queued_bytes_);
  queue_.push_back(std::move(dgram));
  arm_next_departure();
}

void Link::arm_next_departure() {
  if (departure_armed_ || queue_.empty()) return;
  sim::Time at;
  if (trace_) {
    next_opportunity_ = std::max(
        next_opportunity_, trace_->first_opportunity_at_or_after(loop_.now()));
    at = trace_->opportunity_time(next_opportunity_);
  } else {
    const double bits = static_cast<double>(queue_.front().size()) * 8.0;
    const auto tx_time =
        static_cast<sim::Duration>(bits / rate_bps_ * sim::kSecond);
    link_free_at_ = std::max(link_free_at_, loop_.now()) + tx_time;
    at = link_free_at_;
  }
  departure_armed_ = true;
  loop_.schedule_at(at, [this] {
    departure_armed_ = false;
    depart_one();
  });
}

bool Link::lost() {
  bool drop = cfg_.loss_rate > 0.0 && rng_.chance(cfg_.loss_rate);
  if (cfg_.ge_loss) {
    const GeLoss& ge = *cfg_.ge_loss;
    if (rng_.chance(ge_bad_ ? ge.p_bad_to_good : ge.p_good_to_bad))
      ge_bad_ = !ge_bad_;
    if (rng_.chance(ge_bad_ ? ge.loss_bad : ge.loss_good)) drop = true;
  }
  return drop;
}

void Link::depart_one() {
  if (queue_.empty()) return;
  if (trace_) ++next_opportunity_;  // this opportunity is consumed either way
  Datagram dgram = std::move(queue_.front());
  queue_.pop_front();
  queued_bytes_ -= dgram.size();
  if (lost()) {
    ++stats_.packets_dropped_loss;
  } else {
    loop_.schedule_in(cfg_.propagation_delay,
                      [this, d = std::move(dgram)]() mutable {
                        ++stats_.packets_delivered;
                        stats_.bytes_delivered += d.size();
                        if (deliver_) deliver_(std::move(d));
                      });
  }
  arm_next_departure();
}

}  // namespace xlink::net
