// The XLINK scheduler: QoE-driven multipath scheduling (paper §5).
//
// Combines:
//  - min-RTT path selection for first transmissions;
//  - stream- and video-frame-priority re-injection (core::reinject);
//  - double-thresholding QoE control gating re-injection on the client's
//    buffer occupancy feedback (DoubleThresholdController);
//  - re-injections always travel on a different path than the original.
#pragma once

#include <memory>

#include "core/double_threshold.h"
#include "core/reinjection.h"
#include "quic/scheduler.h"

namespace xlink::core {

/// Which redundancy mechanisms the scheduler drives. Both are gated by the
/// same double-threshold QoE rule; the FEC arm additionally requires the
/// connection to have been configured with `Config::fec.enabled` and
/// `fec.protect`, which give it the FecFramer.
enum class XlinkRedundancy : std::uint8_t {
  kNone,            // neither (ablation baseline)
  kReinject,        // reactive duplication only (paper default)
  kFec,             // proactive repair symbols only
  kReinjectPlusFec, // both, mutually aware (FEC-covered pns not re-injected)
};

constexpr bool redundancy_has_reinject(XlinkRedundancy r) {
  return r == XlinkRedundancy::kReinject ||
         r == XlinkRedundancy::kReinjectPlusFec;
}
constexpr bool redundancy_has_fec(XlinkRedundancy r) {
  return r == XlinkRedundancy::kFec || r == XlinkRedundancy::kReinjectPlusFec;
}

struct XlinkSchedulerConfig {
  DoubleThresholdConfig control;
  /// Fig. 4 insertion behaviour; kPriority is XLINK, kAppend the
  /// traditional baseline.
  quic::InsertMode insert_mode = quic::InsertMode::kPriority;
  XlinkRedundancy redundancy = XlinkRedundancy::kReinject;
};

class XlinkScheduler final : public quic::Scheduler {
 public:
  explicit XlinkScheduler(XlinkSchedulerConfig config)
      : config_(config), controller_(config.control) {}

  std::optional<quic::PathId> select_path(quic::Connection& conn) override;
  void maybe_reinject(quic::Connection& conn) override;

  std::string name() const override { return "xlink"; }

  /// Last re-injection gating decision (for instrumentation/benches).
  bool last_decision() const { return last_decision_; }

 private:
  XlinkSchedulerConfig config_;
  DoubleThresholdController controller_;
  bool last_decision_ = false;
  bool gate_traced_ = false;  // first decision traced yet?
};

std::shared_ptr<XlinkScheduler> make_xlink_scheduler(
    XlinkSchedulerConfig config = {});

}  // namespace xlink::core
