#include "net/path.h"

namespace xlink::net {

namespace {

LinkConfig link_config(const PathSpec& spec) {
  LinkConfig cfg;
  cfg.propagation_delay = spec.one_way_delay;
  cfg.queue_capacity_bytes = spec.queue_capacity_bytes;
  cfg.loss_rate = spec.loss_rate;
  cfg.ge_loss = spec.ge_loss;
  return cfg;
}

}  // namespace

EmulatedPath::EmulatedPath(sim::EventLoop& loop, PathSpec spec, sim::Rng rng,
                           telemetry::TraceSink* trace,
                           std::uint8_t path_index)
    : loop_(loop),
      spec_(std::move(spec)),
      up_(loop, spec_.fixed_rate_mbps * 1e6, link_config(spec_), rng.fork()),
      down_(spec_.down_trace
                ? Link(loop, std::move(*spec_.down_trace), link_config(spec_),
                       rng.fork())
                : Link(loop, spec_.fixed_rate_mbps * 1e6, link_config(spec_),
                       rng.fork())) {
  spec_.down_trace.reset();  // the downlink owns it now
  if (!spec_.fault_plan.empty()) {
    faults_ = std::make_unique<FaultInjector>(loop, spec_.fault_plan,
                                              rng.fork(), trace, path_index);
  }
}

void EmulatedPath::set_up_receiver(Link::DeliverFn fn) {
  if (!faults_) {
    up_.set_receiver(std::move(fn));
    return;
  }
  up_fn_ = std::move(fn);
  up_.set_receiver([this](Datagram d) {
    deliver_faulted(FaultInjector::Direction::kUp, std::move(d));
  });
}

void EmulatedPath::set_down_receiver(Link::DeliverFn fn) {
  if (!faults_) {
    down_.set_receiver(std::move(fn));
    return;
  }
  down_fn_ = std::move(fn);
  down_.set_receiver([this](Datagram d) {
    deliver_faulted(FaultInjector::Direction::kDown, std::move(d));
  });
}

void EmulatedPath::deliver_faulted(FaultInjector::Direction dir, Datagram d) {
  // Reorder/delay-spike windows hold datagrams past the link's own
  // propagation delay; undelayed successors overtake them.
  const sim::Duration extra = faults_->delivery_delay(dir);
  auto& fn = dir == FaultInjector::Direction::kUp ? up_fn_ : down_fn_;
  if (extra == 0) {
    fn(std::move(d));
    return;
  }
  loop_.schedule_in(extra, [this, dir, d = std::move(d)]() mutable {
    (dir == FaultInjector::Direction::kUp ? up_fn_ : down_fn_)(std::move(d));
  });
}

}  // namespace xlink::net
