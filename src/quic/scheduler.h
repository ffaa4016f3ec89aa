// Multipath packet scheduler interface and the packet send queue item.
//
// The connection keeps a packetization queue (the paper's pkt_send_q) of
// SendItems -- byte ranges of streams waiting to be packetized. A Scheduler
// decides which path carries the next packet and may insert re-injection
// items (duplicates of in-flight data) into the queue. XLINK's scheduler
// (core/xlink_scheduler.h) implements the paper's QoE-driven re-injection;
// mpquic/ hosts the baselines.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "quic/types.h"
#include "sim/time.h"

namespace xlink::quic {

class Connection;

/// One entry of the packet send queue: a byte range of a stream.
struct SendItem {
  StreamId stream_id = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  bool fin = false;  // set on the item holding the stream's last byte
  int stream_priority = 0;  // higher first (paper: earlier stream wins)
  int frame_priority = 0;   // higher first (paper: first video frame wins)
  bool is_reinjection = false;
  bool is_retransmission = false;
  /// For re-injections: path the original copy is in flight on, so the
  /// scheduler can send the duplicate on a different path.
  std::optional<PathId> origin_path;
};

/// Where enqueue places an item relative to items already queued.
enum class InsertMode {
  kAppend,          // traditional (Fig. 4a): tail of the queue
  kPriority,        // before the first item of a strictly lower class
  kFrontOfClass,    // before the first item of an equal-or-lower class
};

/// Decides which path carries ACK_MP frames (paper §5.3, Fig. 8).
enum class AckPathPolicy {
  kOriginalPath,  // MPTCP-style: ack returns on the acked path
  kFastestPath,   // XLINK: ack returns on the min-RTT active path
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Picks the path for the next data packet; nullopt = nothing sendable
  /// (no active path with congestion window room).
  virtual std::optional<PathId> select_path(Connection& conn) = 0;

  /// Chance to insert re-injection items; called by the send loop before
  /// giving up on an empty/blocked queue and after each packet is formed.
  virtual void maybe_reinject(Connection& /*conn*/) {}

  virtual std::string name() const = 0;
};

}  // namespace xlink::quic
