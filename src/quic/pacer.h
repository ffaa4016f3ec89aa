// Token-bucket pacer: spreads a cwnd's worth of packets across the RTT
// instead of blasting them back to back, so shallow bottleneck queues (the
// cellular paths XLINK cares about) don't absorb the whole burst at once.
// Plain integer arithmetic on the event-loop clock -- no allocations, no
// floating-point time, fully deterministic.
//
// Operation: tokens (bytes) refill at the pacing rate and cap at a burst
// ceiling. A path may send while its token balance is non-negative; each
// send debits its size, so the balance can go one packet negative and the
// release time for the next packet is when the balance refills to zero.
// The quantum floor keeps per-packet timer churn bounded: refills are
// rounded so at least kQuantumBytes of credit mature per release.
#pragma once

#include <cstdint>

#include "quic/cc.h"
#include "sim/time.h"

namespace xlink::quic {

struct PacerConfig {
  bool enabled = false;
};

class Pacer {
 public:
  Pacer() = default;
  explicit Pacer(const PacerConfig& config) : config_(config) {}

  void configure(const PacerConfig& config) { config_ = config; }
  bool enabled() const { return config_.enabled && rate_ > 0; }

  /// Sets the release rate in bytes/sec; 0 disables pacing (unlimited).
  void set_rate(std::uint64_t bytes_per_sec);
  std::uint64_t rate_bytes_per_sec() const { return rate_; }

  /// True when a packet may leave now.
  bool can_send(sim::Time now);

  /// Charges `bytes` of credit for a departure at `now`.
  void on_sent(sim::Time now, std::size_t bytes);

  /// Earliest time at which can_send will next be true; `now` when the
  /// path is already clear to send. Fed into the connection timer wheel.
  sim::Time next_release_time(sim::Time now) const;

  /// Current token balance in bytes (negative = in debt). Telemetry only.
  std::int64_t tokens_bytes() const { return tokens_; }

  void reset();

 private:
  void refill(sim::Time now);

  PacerConfig config_;
  std::uint64_t rate_ = 0;        // bytes/sec; 0 = unlimited
  std::int64_t tokens_ = 0;       // byte balance; may run negative
  sim::Time last_refill_ = 0;
  bool primed_ = false;           // bucket starts full on first use
};

}  // namespace xlink::quic
