// Priority-based re-injection engine (paper §5.1, Fig. 3/4).
//
// Re-injection duplicates still-unacknowledged stream ranges onto another
// path to decouple paths and defeat multi-path head-of-line blocking. The
// trigger follows the paper: a sent packet becomes re-injectable once the
// send queue holds no first-transmission data of an equal-or-higher
// priority class -- i.e. "the sender has sent out the last packet of
// Stream 1" (stream level) or "of the first video frame" (frame level).
// The insertion mode then distinguishes the paper's Fig. 4 variants:
//   kAppend   -> traditional appending re-injection (Fig. 4a)
//   kPriority -> stream/frame priority re-injection (Fig. 4b/4c)
#pragma once

#include "quic/connection.h"
#include "quic/scheduler.h"

namespace xlink::core {

/// Scans unacked queues and re-injects eligible records, inserting each
/// duplicate into the send queue with `mode`. Call only when re-injection
/// is currently allowed (the QoE controller's decision).
void reinject(quic::Connection& conn, quic::InsertMode mode);

/// Eq. 1: max over paths with unacked packets of RTT + RTT variation.
std::optional<sim::Duration> max_deliver_time(const quic::Connection& conn);

}  // namespace xlink::core
