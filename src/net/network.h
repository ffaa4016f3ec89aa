// Network fabric: the set of emulated paths between one client and one
// server endpoint pair.
//
// Endpoints address paths by index (the transport maps connection-ID
// sequence numbers onto these indices). The fabric also supports adding a
// path mid-run (a phone turning on cellular) which the mobility experiments
// use.
#pragma once

#include <memory>
#include <vector>

#include "net/path.h"

namespace xlink::net {

class Network {
 public:
  Network(sim::EventLoop& loop, sim::Rng rng) : loop_(loop), rng_(rng) {}

  /// Telemetry sink handed to fault injectors; set before add_path.
  void set_trace(telemetry::TraceSink* trace) { trace_ = trace; }

  /// Adds a path and returns its index.
  std::size_t add_path(PathSpec spec) {
    paths_.push_back(std::make_unique<EmulatedPath>(
        loop_, std::move(spec), rng_.fork(), trace_,
        static_cast<std::uint8_t>(paths_.size())));
    return paths_.size() - 1;
  }

  std::size_t path_count() const { return paths_.size(); }
  EmulatedPath& path(std::size_t i) { return *paths_.at(i); }
  const EmulatedPath& path(std::size_t i) const { return *paths_.at(i); }

 private:
  sim::EventLoop& loop_;
  sim::Rng rng_;
  telemetry::TraceSink* trace_ = nullptr;
  std::vector<std::unique_ptr<EmulatedPath>> paths_;
};

}  // namespace xlink::net
