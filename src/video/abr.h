// Adaptive-bitrate controllers: the rate-adaptation loop XLINK's QoE
// signals ultimately serve.
//
// Three deterministic controllers pick a ladder rung per chunk request:
//
//   - rate-based: EWMA of per-chunk download throughput with a safety
//     factor (the classic throughput-rule family).
//   - buffer-based: BOLA/BBA-style linear map from buffer occupancy to a
//     rung between two thresholds; ignores throughput entirely.
//   - hybrid: takes the larger of the chunk EWMA and the transport's
//     delivery-rate btlbw (robust to burst loss), then gates switches on
//     the same play-time-left estimate the XLINK scheduler reads from the
//     QoE feedback conduit (core/qoe_signals): while the horizon grows it
//     follows the safety-scaled estimate, while it drains it holds, damps
//     climbs, or sheds a rung depending on how much play time is left.
//
// Determinism contract (DESIGN.md §12): controllers are pure functions of
// their ladder and the sequence of AbrInputs/samples they are fed.
// AbrInputs carries durations and counts only -- never absolute sim::Time
// -- so a controller shifted in time makes identical decisions, and
// "no sample yet" is an explicit flag, never a 0-valued sentinel (the PR 8
// congestion-control bug class).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "quic/frame.h"
#include "sim/time.h"
#include "video/video_model.h"

namespace xlink::video {

enum class AbrAlgorithm : std::uint8_t {
  kFixed = 0,  // no adaptation: always the native rendition (legacy path)
  kRateBased,
  kBufferBased,
  kHybrid,
};

const char* to_string(AbrAlgorithm a);
std::optional<AbrAlgorithm> abr_algorithm_from_string(const std::string& s);

/// Frames per chunk request: the adaptation granularity (30 = one second
/// of video at 30 fps).
inline constexpr std::uint32_t kAbrChunkFrames = 30;

/// Everything a controller may look at for one decision. Durations and
/// counts only; no absolute timestamps (see the determinism contract).
struct AbrInputs {
  std::size_t chunk_index = 0;
  /// Player buffer ahead of the playhead (0 before playback starts).
  sim::Duration buffer_level = 0;
  /// Latest QoE feedback signal, if the conduit has produced one.
  std::optional<quic::QoeSignal> qoe;
  /// Transport bottleneck-bandwidth estimate (delivery-rate sampler),
  /// 0 = no estimate yet.
  std::uint64_t btlbw_bps = 0;
};

struct AbrDecision {
  std::size_t rung = 0;
  /// Rate estimate the choice used, bits/s (0 = chose without one).
  std::uint64_t estimate_bps = 0;
};

class AbrController {
 public:
  explicit AbrController(BitrateLadder ladder);
  virtual ~AbrController() = default;

  virtual const char* name() const = 0;

  /// Picks the rung for the next chunk and updates the switch statistics.
  AbrDecision choose(const AbrInputs& in);

  /// Feeds one completed chunk download as a throughput sample. Zero-byte
  /// or zero-duration samples carry no rate information and are ignored;
  /// a genuine low-rate sample (tiny bytes over a long elapsed) is not.
  void on_chunk_downloaded(std::uint64_t bytes, sim::Duration elapsed);

  // ---- statistics (fold into DayMetrics) ----
  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t switches() const { return switches_; }
  /// Sum of |rung delta| over switches (switch magnitude).
  std::uint64_t switch_magnitude() const { return switch_magnitude_; }
  /// Rung of the most recent decision; nullopt before the first one.
  std::optional<std::size_t> last_rung() const {
    return decisions_ == 0 ? std::nullopt
                           : std::optional<std::size_t>(last_rung_);
  }

  const BitrateLadder& ladder() const { return ladder_; }

 protected:
  virtual AbrDecision decide(const AbrInputs& in) = 0;

  bool has_rate_sample() const { return has_sample_; }
  double ewma_bps() const { return ewma_bps_; }

  BitrateLadder ladder_;
  std::uint64_t decisions_ = 0;
  std::size_t last_rung_ = 0;  // meaningful only when decisions_ > 0

 private:
  bool has_sample_ = false;  // explicit: 0 bps is a valid sample value
  double ewma_bps_ = 0.0;
  std::uint64_t switches_ = 0;
  std::uint64_t switch_magnitude_ = 0;
};

/// Builds the controller for `algorithm` (never kFixed -- the fixed path
/// does not construct a controller).
std::unique_ptr<AbrController> make_abr_controller(AbrAlgorithm algorithm,
                                                   BitrateLadder ladder);

}  // namespace xlink::video
