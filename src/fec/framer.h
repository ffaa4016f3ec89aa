// Sender-side FEC framing and receiver-side recovery.
//
// The FecFramer groups every sealed packet of a path's packet-number space
// into fixed-size windows of k consecutive packet numbers and, when a
// window closes, emits r REPAIR frames (r adaptive: per-path loss estimate
// scaled by a headroom multiplier, clamped to [min_repairs, max_repairs],
// and gated by the double-threshold QoE controller exactly like
// re-injection). A source symbol is the sealed wire datagram prefixed with
// its 2-byte big-endian length and implicitly zero-padded to the window's
// longest symbol -- so a recovered symbol is a complete datagram that
// re-enters the normal decrypt/deliver path.
//
// The RecoveryBuffer keeps a ring of recently received datagrams per path
// (keyed by packet number) plus a small set of pending repair windows; when
// enough repair symbols arrive to cover a window's erasures it decodes and
// hands back the reconstructed datagrams.
//
// Both sides use pooled PacketBuffer storage and fixed-size scratch: the
// warm encode -> repair -> recover path performs no heap allocations.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "fec/scheme.h"
#include "net/packet_buffer.h"
#include "quic/frame.h"
#include "sim/time.h"
#include "telemetry/trace_sink.h"

namespace xlink::fec {

/// Data-packet payload cap while FEC is on, so a repair symbol (sealed
/// wire + 2-byte length prefix + REPAIR frame header) still fits one
/// packet payload.
inline constexpr std::size_t kPayloadCap = 1280;
/// How long an emitted repair window suppresses re-injection of the
/// packets it covers (mutual awareness with core::reinject).
inline constexpr sim::Duration kCoverLinger = sim::millis(300);
/// Largest REPAIR symbol a receiver accepts: a real symbol is bounded by
/// the sealed MTU plus its 2-byte length prefix. The RecoveryBuffer
/// refuses to copy a larger one, and the connection closes on it.
inline constexpr std::size_t kMaxSymbolBytes = 2048;

struct FecConfig {
  bool enabled = false;
  /// Selects the endpoint's half: the protecting sender runs only the
  /// FecFramer, a receiver (protect = false) only the RecoveryBuffer. The
  /// harness protects on the video server, not the client.
  bool protect = true;
  std::size_t window = 8;         // k: source packets per window
  std::size_t min_repairs = 1;    // r floor while the gate allows FEC
  std::size_t max_repairs = 4;    // r ceiling (<= kMaxRepairs)
  /// r = clamp(ceil(k * loss_estimate * loss_multiplier)): headroom over
  /// the average loss rate so burst erasures stay within the budget.
  double loss_multiplier = 3.0;

  // Receiver-side bound (hostile-peer hardening).
  /// Per-path cap on stashed source-symbol bytes. Honest traffic needs at
  /// most kStash * (2 + kMaxDatagramSize) ~= 91 KB; oversize datagram bombs
  /// hit this cap and evict drop-oldest (traced as fec:stash_evicted).
  std::size_t stash_bytes_cap = 160 * 1024;
};

class FecFramer {
 public:
  explicit FecFramer(const FecConfig& cfg);

  /// Double-threshold gate: while closed, windows close without emitting
  /// repair symbols (the cost-control rule the paper applies to
  /// re-injection, applied to proactive redundancy too).
  void set_gate(bool allowed) { gate_ = allowed; }
  bool gate() const { return gate_; }

  /// Feeds one sealed packet. When this closes a window and the gate +
  /// redundancy policy yield r > 0, appends r RepairFrames to `out` whose
  /// payloads BORROW internal buffers -- valid until the next call for the
  /// same path. `loss_estimate` is the path's smoothed loss rate in [0,1].
  void on_packet_sent(quic::PathId path, quic::PacketNumber pn,
                      std::span<const std::uint8_t> wire, sim::Time now,
                      double loss_estimate, std::vector<quic::Frame>& out);

  /// True if `pn` on `path` is covered by a recently emitted repair window
  /// (re-injection of such packets is redundant with the repair symbol).
  bool covers(quic::PathId path, quic::PacketNumber pn, sim::Time now) const;

  struct Stats {
    std::uint64_t windows_closed = 0;
    std::uint64_t windows_protected = 0;  // closed with >= 1 repair emitted
    std::uint64_t repair_symbols = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  static constexpr std::size_t kMaxPaths = 8;
  static constexpr std::size_t kCoverRing = 4;

  struct Cover {
    quic::PacketNumber first_pn = 0;
    std::size_t k = 0;
    sim::Time at = 0;
    bool emitted = false;
  };

  struct PathSender {
    quic::PathId id = 0;
    bool in_use = false;
    std::uint64_t next_window_id = 0;
    quic::PacketNumber first_pn = 0;
    std::size_t count = 0;
    std::size_t max_symbol = 0;
    std::array<net::PacketBuffer, kMaxSources> sources;
    std::array<net::PacketBuffer, kMaxRepairs> repairs;
    std::array<Cover, kCoverRing> covers;
    std::size_t cover_head = 0;
  };

  PathSender& sender(quic::PathId path);
  std::size_t decide_repairs(double loss_estimate) const;

  FecConfig cfg_;
  bool gate_ = true;
  std::array<PathSender, kMaxPaths> paths_;
  Stats stats_;
};

class RecoveryBuffer {
 public:
  explicit RecoveryBuffer(const FecConfig& cfg);

  /// Records a received datagram (sealed bytes) so it can act as a
  /// present source symbol for later repair windows: stage, then commit.
  void on_source(quic::PathId path, quic::PacketNumber pn,
                 std::span<const std::uint8_t> wire, sim::Time now);

  /// Copies a received datagram's sealed bytes aside before it is opened
  /// (opening decrypts in place). Nothing enters the stash until commit.
  void stage(std::span<const std::uint8_t> wire);
  /// Stashes the staged datagram as the source symbol of `pn` on `path`.
  /// The connection commits only a datagram that authenticated, so a
  /// corrupt or forged one stays an erasure and never replaces a good
  /// entry.
  void commit(quic::PathId path, quic::PacketNumber pn, sim::Time now);
  /// on_repair stashes each datagram it rebuilds before anyone could
  /// authenticate it. The connection hands the datagram back to
  /// on_datagram, which commits it again if it authenticates, and then
  /// calls this: if `pn` still holds the rebuilt bytes (they failed, e.g.
  /// a bogus repair symbol), the entry is dropped and `pn` is an erasure
  /// again. Returns whether it dropped the entry.
  bool drop_unconfirmed(quic::PathId path, quic::PacketNumber pn);

  struct Recovered {
    net::PacketBuffer wire;  // full sealed datagram, ready for on_datagram
    quic::PacketNumber pn = 0;
    std::uint64_t window_id = 0;
    std::uint64_t latency_us = 0;  // vs the window's newest source arrival
  };

  struct RepairOutcome {
    std::size_t recovered = 0;
    std::size_t wasted = 0;            // repair symbols that bought nothing
    std::size_t erased_newly_seen = 0; // erasures first observed this call
  };

  /// Ingests one REPAIR frame; decodes when enough symbols are present.
  /// Reconstructed datagrams are appended to `out`.
  RepairOutcome on_repair(quic::PathId path, const quic::RepairFrame& f,
                          sim::Time now, std::vector<Recovered>& out);

  struct Stats {
    std::uint64_t recovered = 0;
    std::uint64_t wasted = 0;
    std::uint64_t erased_seen = 0;
    std::uint64_t windows_observed = 0;
    std::uint64_t unrecoverable = 0;   // windows past the repair budget
    std::uint64_t stash_evicted = 0;   // entries dropped by the byte cap
    std::uint64_t oversize_rejected = 0;  // symbols over kMaxSymbolBytes
  };
  const Stats& stats() const { return stats_; }

  /// Telemetry plumbing for eviction events (optional; the connection
  /// forwards its session sink).
  void set_trace(telemetry::TraceSink* sink, telemetry::Origin origin) {
    trace_ = sink;
    origin_ = origin;
  }

  /// Incrementally maintained stash byte total across all paths.
  std::size_t stash_bytes_tracked() const;
  /// From-scratch recount of the stash rings (invariant auditor).
  std::size_t audit_recompute_stash_bytes() const;

 private:
  static constexpr std::size_t kMaxPaths = 8;
  static constexpr std::size_t kStash = 64;
  static constexpr std::size_t kPendingWindows = 4;

  struct StashEntry {
    quic::PacketNumber pn = 0;
    sim::Time at = 0;
    net::PacketBuffer buf;
    bool valid = false;
    bool rebuilt = false;  // stashed by on_repair, not yet authenticated
  };

  struct Pending {
    bool active = false;
    std::uint64_t window_id = 0;
    quic::PacketNumber first_pn = 0;
    std::size_t k = 0;
    std::uint64_t repair_total = 0;  // r declared by the frames
    std::size_t repair_count = 0;    // symbols held
    std::array<std::uint32_t, kMaxRepairs> repair_index{};
    std::array<net::PacketBuffer, kMaxRepairs> repairs;
  };

  struct PathRecv {
    quic::PathId id = 0;
    bool in_use = false;
    std::size_t stash_bytes = 0;  // sum of valid entry sizes (bounded)
    std::array<StashEntry, kStash> stash;
    std::array<Pending, kPendingWindows> pending;
  };

  PathRecv& recv(quic::PathId path);
  const StashEntry* stash_find(const PathRecv& p, quic::PacketNumber pn) const;
  void commit_to(PathRecv& p, quic::PacketNumber pn, sim::Time now,
                 bool rebuilt);
  void evict_over_cap(PathRecv& p);
  std::size_t count_missing(const PathRecv& p, const Pending& w) const;
  void drop_window(Pending& w);

  FecConfig cfg_;
  std::array<PathRecv, kMaxPaths> paths_;
  std::array<net::PacketBuffer, kMaxRepairs> decode_scratch_;
  net::PacketBuffer staged_;  // symbol-format copy awaiting commit
  Stats stats_;
  telemetry::TraceSink* trace_ = nullptr;
  telemetry::Origin origin_ = telemetry::Origin::kServer;
  sim::Time now_ = 0;  // last event time seen (for eviction traces)
};

}  // namespace xlink::fec
