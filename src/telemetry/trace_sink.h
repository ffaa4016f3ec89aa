// TraceSink: low-overhead per-session event recorder.
//
// A sink is a fixed-capacity ring buffer of telemetry::Event owned by one
// session (nothing is shared across threads; the parallel engine gives
// every session its own sink, matching the one-session-per-worker
// ownership contract in harness/parallel.h). The hooks are always compiled
// in, and recording is gated at run time: a sink pointer is nullptr unless
// tracing was requested for the session, and XLINK_TRACE evaluates its
// event expression only after the `sink && sink->enabled()` check passes,
// so an untraced session pays one predictable branch per hook.
//
// When the ring wraps, the oldest events are dropped (dropped() reports
// how many) — the tail of a session is the part stall forensics need.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/event.h"

namespace xlink::telemetry {

class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit TraceSink(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  void record(const Event& e) {
    if (buf_.size() < capacity_) {
      buf_.push_back(e);
    } else {
      buf_[head_] = e;
      head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    }
    ++recorded_;
  }

  /// Events currently retained, oldest first.
  std::vector<Event> snapshot() const {
    std::vector<Event> out;
    out.reserve(buf_.size());
    for (std::size_t i = 0; i < buf_.size(); ++i)
      out.push_back(buf_[(head_ + i) % buf_.size()]);
    return out;
  }

  std::size_t size() const { return buf_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Total events ever recorded (including ones the ring dropped).
  std::uint64_t recorded() const { return recorded_; }
  /// Events lost to ring wrap-around.
  std::uint64_t dropped() const { return recorded_ - buf_.size(); }

  void clear() {
    buf_.clear();
    head_ = 0;
    recorded_ = 0;
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // index of the oldest event once the ring is full
  std::uint64_t recorded_ = 0;
  bool enabled_ = false;
  std::vector<Event> buf_;
};

}  // namespace xlink::telemetry

// Instrumentation hook. `sink` is a TraceSink* (may be nullptr); the event
// expression is evaluated only when the sink exists and is enabled.
#define XLINK_TRACE(sink, ...)                                        \
  do {                                                                \
    ::xlink::telemetry::TraceSink* xlink_trace_sink_ = (sink);        \
    if (xlink_trace_sink_ && xlink_trace_sink_->enabled())            \
      xlink_trace_sink_->record(__VA_ARGS__);                         \
  } while (0)
