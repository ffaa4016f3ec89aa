#include "video/abr.h"

#include <algorithm>

#include "core/qoe_signals.h"

namespace xlink::video {

namespace {

// rate-based
constexpr double kEwmaAlpha = 0.5;   // weight of the newest chunk sample
constexpr double kRateSafety = 0.9;  // fraction of the estimate to spend

// buffer-based (linear map between the two thresholds)
constexpr sim::Duration kBufferLow = sim::seconds(2);
constexpr sim::Duration kBufferHigh = sim::seconds(8);

// hybrid (the thresholds gate only while the horizon is SHRINKING; a
// growing horizon follows the safety-scaled estimate directly)
constexpr double kHybridSafety = 0.85;
constexpr sim::Duration kHybridLow = sim::seconds(3);   // shed below
constexpr sim::Duration kHybridHigh = sim::seconds(6);  // hold below
constexpr std::size_t kMaxUpStep = 1;  // climb cap per chunk while draining

}  // namespace

const char* to_string(AbrAlgorithm a) {
  switch (a) {
    case AbrAlgorithm::kFixed: return "fixed";
    case AbrAlgorithm::kRateBased: return "rate";
    case AbrAlgorithm::kBufferBased: return "buffer";
    case AbrAlgorithm::kHybrid: return "hybrid";
  }
  return "fixed";
}

std::optional<AbrAlgorithm> abr_algorithm_from_string(const std::string& s) {
  if (s == "fixed") return AbrAlgorithm::kFixed;
  if (s == "rate") return AbrAlgorithm::kRateBased;
  if (s == "buffer") return AbrAlgorithm::kBufferBased;
  if (s == "hybrid") return AbrAlgorithm::kHybrid;
  return std::nullopt;
}

AbrController::AbrController(BitrateLadder ladder)
    : ladder_(std::move(ladder)) {
  if (ladder_.bitrates_bps.empty())
    ladder_.bitrates_bps.push_back(0);  // degenerate single-rung ladder
}

AbrDecision AbrController::choose(const AbrInputs& in) {
  AbrDecision d = decide(in);
  d.rung = std::min(d.rung, ladder_.top_rung());
  // A first decision establishes the rung; only changes after that count
  // as switches (no rung-0 initialisation sentinel in the statistics).
  if (decisions_ > 0 && d.rung != last_rung_) {
    ++switches_;
    switch_magnitude_ +=
        d.rung > last_rung_ ? d.rung - last_rung_ : last_rung_ - d.rung;
  }
  last_rung_ = d.rung;
  ++decisions_;
  return d;
}

void AbrController::on_chunk_downloaded(std::uint64_t bytes,
                                        sim::Duration elapsed) {
  if (elapsed == 0 || bytes == 0) return;  // carries no rate information
  const double bps =
      static_cast<double>(bytes) * 8.0 / sim::to_seconds(elapsed);
  ewma_bps_ = has_sample_
                  ? (1.0 - kEwmaAlpha) * ewma_bps_ + kEwmaAlpha * bps
                  : bps;
  has_sample_ = true;
}

namespace {

class RateBasedController final : public AbrController {
 public:
  using AbrController::AbrController;
  const char* name() const override { return "rate"; }

 protected:
  AbrDecision decide(const AbrInputs&) override {
    if (!has_rate_sample()) return {0, 0};  // start at the bottom
    const double est = ewma_bps();
    return {ladder_.rung_for_rate(kRateSafety * est),
            static_cast<std::uint64_t>(est)};
  }
};

class BufferBasedController final : public AbrController {
 public:
  using AbrController::AbrController;
  const char* name() const override { return "buffer"; }

 protected:
  AbrDecision decide(const AbrInputs& in) override {
    const std::size_t top = ladder_.top_rung();
    if (top == 0) return {0, 0};
    if (in.buffer_level <= kBufferLow) return {0, 0};
    if (in.buffer_level >= kBufferHigh) return {top, 0};
    // Linear map of (low, high) onto rungs 1..top, integer arithmetic so
    // the boundary rungs are exact.
    const sim::Duration span = kBufferHigh - kBufferLow;
    const std::size_t step = static_cast<std::size_t>(
        (in.buffer_level - kBufferLow) *
        static_cast<sim::Duration>(top - 1) / span);
    return {1 + std::min(step, top - 1), 0};
  }
};

class HybridController final : public AbrController {
 public:
  using AbrController::AbrController;
  const char* name() const override { return "hybrid"; }

 protected:
  AbrDecision decide(const AbrInputs& in) override {
    // Rate estimate: the chunk EWMA dips on every loss burst, while the
    // delivery-rate btlbw is a windowed max that rides through short bad
    // states. Both are lower bounds on capacity, so take the larger.
    double est = has_rate_sample() ? ewma_bps() : 0.0;
    if (static_cast<double>(in.btlbw_bps) > est)
      est = static_cast<double>(in.btlbw_bps);
    const std::size_t cand =
        est > 0.0 ? ladder_.rung_for_rate(kHybridSafety * est) : 0;

    // Risk horizon: the same conservative play-time-left the XLINK
    // scheduler derives from QoE feedback; the local buffer level is the
    // fallback before the conduit has produced a signal.
    sim::Duration horizon = in.buffer_level;
    if (in.qoe) {
      if (const auto ptl = core::play_time_left(*in.qoe)) horizon = *ptl;
    }

    // Risk = the horizon is SHRINKING. While it grows (startup fill, or a
    // steady buffer at its cap) the safety-scaled estimate is feasible by
    // construction, so follow it; throttling there only burns utility.
    const bool growing = horizon >= prev_horizon_;
    std::size_t rung;
    if (decisions_ == 0) {
      rung = cand;  // establishing decision: trust the estimate as-is
    } else if (growing) {
      rung = cand;
    } else if (horizon < kHybridLow) {
      // Draining and thin: shed a rung even if the estimate says otherwise.
      rung = std::min(cand, last_rung_ > 0 ? last_rung_ - 1 : 0);
    } else if (horizon >= kHybridHigh) {
      // Draining but comfortable: climb, damped to max_up_step per chunk.
      rung = std::min(cand, last_rung_ + kMaxUpStep);
    } else {
      rung = std::min(cand, last_rung_);  // draining mid-band: hold
    }
    prev_horizon_ = horizon;
    return {rung, static_cast<std::uint64_t>(est)};
  }

 private:
  sim::Duration prev_horizon_ = 0;  // meaningful only when decisions_ > 0
};

}  // namespace

std::unique_ptr<AbrController> make_abr_controller(AbrAlgorithm algorithm,
                                                   BitrateLadder ladder) {
  switch (algorithm) {
    case AbrAlgorithm::kBufferBased:
      return std::make_unique<BufferBasedController>(std::move(ladder));
    case AbrAlgorithm::kHybrid:
      return std::make_unique<HybridController>(std::move(ladder));
    case AbrAlgorithm::kFixed:
    case AbrAlgorithm::kRateBased:
      break;
  }
  return std::make_unique<RateBasedController>(std::move(ladder));
}

}  // namespace xlink::video
