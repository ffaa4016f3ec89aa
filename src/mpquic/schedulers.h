// Baseline multipath schedulers.
//
//  - MinRtt: the vanilla-MP scheduler of the paper's §3 (MPQUIC's default,
//    also Linux MPTCP's default). No re-injection.
//  - Redundant: duplicates every in-flight packet onto the other path as
//    soon as capacity allows (Raven-style full redundancy); upper bound on
//    robustness, worst case on cost.
//
// The MPTCP-like baseline is MinRtt + Connection::Config{tcp_style_rto =
// true, ack_policy = kOriginalPath}; XLINK's scheduler lives in
// core/xlink_scheduler.h.
#pragma once

#include <memory>

#include "quic/scheduler.h"

namespace xlink::mpquic {

std::shared_ptr<quic::Scheduler> make_min_rtt_scheduler();
std::shared_ptr<quic::Scheduler> make_redundant_scheduler();
/// Prediction-based related work (paper §8): simplified ECF and BLEST.
std::shared_ptr<quic::Scheduler> make_ecf_scheduler();
std::shared_ptr<quic::Scheduler> make_blest_scheduler();

}  // namespace xlink::mpquic
