// Bidirectional emulated network path (client <-> server).
//
// A path pairs an uplink and a downlink, each an independent Link, plus the
// wireless technology label used by wireless-aware primary path selection.
// An optional FaultPlan interposes a FaultInjector on both directions.
#pragma once

#include <memory>
#include <optional>

#include "net/fault.h"
#include "net/link.h"
#include "net/wireless.h"
#include "sim/event_loop.h"

namespace xlink::net {

/// Everything needed to build one emulated path.
struct PathSpec {
  Wireless tech = Wireless::kWifi;
  /// Downlink trace (server -> client); empty means use fixed_rate_mbps.
  std::optional<trace::LinkTrace> down_trace;
  /// Uplink rate (client -> server), and the downlink rate when there is
  /// no down_trace.
  double fixed_rate_mbps = 20.0;
  sim::Duration one_way_delay = sim::millis(15);
  double loss_rate = 0.0;                       // residual Bernoulli loss
  /// Optional Gilbert-Elliott bursty loss (applied on both directions,
  /// composed with loss_rate when both are set).
  using GeLoss = net::GeLoss;
  std::optional<GeLoss> ge_loss;
  std::size_t queue_capacity_bytes = 1024 * 1024;
  /// Scripted fault windows applied to this path (empty = no injector).
  FaultPlan fault_plan;
};

class EmulatedPath {
 public:
  EmulatedPath(sim::EventLoop& loop, PathSpec spec, sim::Rng rng,
               telemetry::TraceSink* trace = nullptr,
               std::uint8_t path_index = 0);

  /// Client -> server direction.
  void send_up(Datagram d) {
    if (faults_ && !faults_->admit(FaultInjector::Direction::kUp, d)) return;
    up_.send(std::move(d));
  }
  void set_up_receiver(Link::DeliverFn fn);

  /// Server -> client direction.
  void send_down(Datagram d) {
    if (faults_ && !faults_->admit(FaultInjector::Direction::kDown, d)) return;
    down_.send(std::move(d));
  }
  void set_down_receiver(Link::DeliverFn fn);

  Wireless tech() const { return spec_.tech; }
  /// The path's spec, without its down_trace (moved into the downlink).
  const PathSpec& spec() const { return spec_; }
  const LinkStats& up_stats() const { return up_.stats(); }
  const LinkStats& down_stats() const { return down_.stats(); }

  /// The path's fault injector; nullptr when the spec had no fault plan.
  FaultInjector* faults() { return faults_.get(); }
  const FaultInjector* faults() const { return faults_.get(); }

  /// Base two-way propagation delay (no queueing).
  sim::Duration base_rtt() const { return 2 * spec_.one_way_delay; }

 private:
  void deliver_faulted(FaultInjector::Direction dir, Datagram d);

  sim::EventLoop& loop_;
  PathSpec spec_;
  // Declared in RNG fork order: up, down, then the fault injector.
  Link up_;
  Link down_;
  std::unique_ptr<FaultInjector> faults_;
  // Final receivers, stored once so the per-packet fault hop captures only
  // [this, dir, datagram] (stays within the event loop's inline storage)
  // instead of copying a std::function per delivered packet.
  Link::DeliverFn up_fn_;
  Link::DeliverFn down_fn_;
};

}  // namespace xlink::net
