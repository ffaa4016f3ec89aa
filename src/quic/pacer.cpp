#include "quic/pacer.h"

#include <algorithm>

namespace xlink::quic {
namespace {

/// Minimum credit matured per timer release (bytes). Two full packets:
/// halves timer churn versus per-packet release at a cost of 2-packet
/// micro-bursts.
constexpr std::size_t kQuantumBytes = 2 * kDefaultMss;
/// Token ceiling: an idle path accumulates at most this much credit, so the
/// first flight after idle is still a bounded burst.
constexpr std::size_t kBurstBytes = kInitialWindowPackets * kDefaultMss;

}  // namespace

void Pacer::set_rate(std::uint64_t bytes_per_sec) {
  rate_ = bytes_per_sec;
}

void Pacer::refill(sim::Time now) {
  if (!primed_) {
    // First use: start with a full bucket so the initial window leaves
    // unpaced (standard warm-up; there is no rate estimate yet anyway).
    tokens_ = static_cast<std::int64_t>(kBurstBytes);
    last_refill_ = now;
    primed_ = true;
    return;
  }
  if (now <= last_refill_) return;
  const sim::Duration elapsed = now - last_refill_;
  // Integer bytes earned; the remainder stays in the elapsed clock by
  // advancing last_refill_ only by the time actually converted, so no
  // credit is ever lost to rounding (determinism + exact long-run rate).
  const std::uint64_t earned = (elapsed * rate_) / 1000000;
  if (earned == 0) return;
  const sim::Duration used =
      static_cast<sim::Duration>((earned * 1000000) / rate_);
  last_refill_ += std::max<sim::Duration>(used, 1);
  tokens_ = std::min<std::int64_t>(
      tokens_ + static_cast<std::int64_t>(earned),
      static_cast<std::int64_t>(kBurstBytes));
}

bool Pacer::can_send(sim::Time now) {
  if (!enabled()) return true;
  refill(now);
  return tokens_ >= 0;
}

void Pacer::on_sent(sim::Time now, std::size_t bytes) {
  if (!enabled()) return;
  refill(now);
  tokens_ -= static_cast<std::int64_t>(bytes);
}

sim::Time Pacer::next_release_time(sim::Time now) const {
  if (!enabled() || !primed_) return now;
  // Project the balance forward without mutating state (const: callers
  // probe release times while arming timers).
  std::int64_t tokens = tokens_;
  if (now > last_refill_)
    tokens += static_cast<std::int64_t>(((now - last_refill_) * rate_) /
                                        1000000);
  tokens = std::min<std::int64_t>(
      tokens, static_cast<std::int64_t>(kBurstBytes));
  if (tokens >= 0) return now;
  // Quantum floor: mature at least a quantum's worth of credit per timer
  // release so a near-zero debt doesn't schedule a wakeup per byte.
  const std::uint64_t needed = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(-tokens), kQuantumBytes);
  const std::uint64_t wait_us = (needed * 1000000 + rate_ - 1) / rate_;
  return now + static_cast<sim::Duration>(std::max<std::uint64_t>(wait_us, 1));
}

void Pacer::reset() {
  rate_ = 0;
  tokens_ = 0;
  last_refill_ = 0;
  primed_ = false;
}

}  // namespace xlink::quic
