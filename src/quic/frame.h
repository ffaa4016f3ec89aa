// QUIC frames, including the multipath extension frames of
// draft-liu-multipath-quic and XLINK's QoE feedback.
//
// Standard frames use their RFC 9000 type codes. Extension frames use the
// experimental greased codepoints the draft reserved: ACK_MP (0xbaba),
// PATH_STATUS (0xbabb) and QOE_CONTROL_SIGNALS (0xbabc). As in the paper's
// deployed implementation, ACK_MP can optionally carry the QoE control
// signal inline; the standalone QOE_CONTROL_SIGNALS frame lets a sender
// emit feedback decoupled from ACK frequency.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "quic/types.h"
#include "quic/varint.h"

namespace xlink::quic {

/// Payload bytes of a CRYPTO/STREAM/REPAIR frame: owned on the send/store
/// side, borrowed (a view of the input buffer) by every parse, which saves
/// one heap allocation and copy per data frame. Copying an owned payload
/// deep-copies; copying a borrowed payload copies only the view, so
/// borrowed frames must not outlive the buffer they view -- Connection
/// honours this by never storing received frames past the dispatch call.
class FrameData {
 public:
  FrameData() = default;
  FrameData(std::vector<std::uint8_t> bytes)  // NOLINT: implicit by design
      : owned_(std::move(bytes)), view_(owned_) {}
  FrameData(std::initializer_list<std::uint8_t> bytes)
      : owned_(bytes), view_(owned_) {}

  static FrameData borrowed(std::span<const std::uint8_t> bytes) {
    FrameData d;
    d.view_ = bytes;
    return d;
  }

  FrameData(const FrameData& other) { assign(other); }
  FrameData& operator=(const FrameData& other) {
    if (this != &other) {
      owned_.clear();
      assign(other);
    }
    return *this;
  }
  FrameData(FrameData&& other) noexcept { move_from(other); }
  FrameData& operator=(FrameData&& other) noexcept {
    if (this != &other) move_from(other);
    return *this;
  }

  /// vector-style fill assign (owned).
  void assign(std::size_t n, std::uint8_t value) {
    owned_.assign(n, value);
    view_ = owned_;
  }

  const std::uint8_t* data() const { return view_.data(); }
  std::size_t size() const { return view_.size(); }
  bool empty() const { return view_.empty(); }
  std::span<const std::uint8_t> span() const { return view_; }
  operator std::span<const std::uint8_t>() const {  // NOLINT: by design
    return view_;
  }
  auto begin() const { return view_.begin(); }
  auto end() const { return view_.end(); }

  bool operator==(const FrameData& other) const {
    return view_.size() == other.view_.size() &&
           std::equal(view_.begin(), view_.end(), other.view_.begin());
  }

 private:
  void assign(const FrameData& other) {
    if (other.owned_.empty()) {
      view_ = other.view_;
    } else {
      owned_ = other.owned_;
      view_ = owned_;
    }
  }
  void move_from(FrameData& other) {
    if (other.owned_.empty()) {
      owned_.clear();
      view_ = other.view_;
    } else {
      owned_ = std::move(other.owned_);
      view_ = owned_;
    }
    other.view_ = {};
  }

  std::vector<std::uint8_t> owned_;
  std::span<const std::uint8_t> view_;
};

// Extension frame type codes.
constexpr std::uint64_t kFrameAckMp = 0xbaba;
constexpr std::uint64_t kFramePathStatus = 0xbabb;
constexpr std::uint64_t kFrameQoeControlSignals = 0xbabc;
constexpr std::uint64_t kFrameRepair = 0xbabd;

/// Client video QoE snapshot (paper §5.2): everything the double-threshold
/// controller needs to estimate play-time left.
struct QoeSignal {
  std::uint64_t cached_bytes = 0;
  std::uint64_t cached_frames = 0;
  std::uint64_t bps = 0;  // current video bitrate, bits/second
  std::uint64_t fps = 0;  // current video framerate, frames/second

  bool operator==(const QoeSignal&) const = default;
};

/// Inclusive packet-number interval, highest-first in AckInfo::ranges.
struct AckRange {
  PacketNumber first = 0;  // lowest pn in range
  PacketNumber last = 0;   // highest pn in range
  bool operator==(const AckRange&) const = default;
};

/// The ack-block portion shared by ACK and ACK_MP.
struct AckInfo {
  std::uint64_t ack_delay_us = 0;
  /// Sorted descending by `last`; ranges[0].last is the largest acked pn.
  std::vector<AckRange> ranges;

  PacketNumber largest_acked() const {
    return ranges.empty() ? 0 : ranges.front().last;
  }
  bool contains(PacketNumber pn) const;
  bool operator==(const AckInfo&) const = default;
};

struct PaddingFrame {
  std::uint64_t length = 1;
  bool operator==(const PaddingFrame&) const = default;
};

struct PingFrame {
  bool operator==(const PingFrame&) const = default;
};

struct AckFrame {
  AckInfo info;
  bool operator==(const AckFrame&) const = default;
};

/// Multipath ACK: acknowledges packets of one path's number space,
/// optionally piggybacking the QoE control signal (paper Fig. 16).
struct AckMpFrame {
  PathId path_id = 0;  // CID sequence number identifying the space
  AckInfo info;
  std::optional<QoeSignal> qoe;
  bool operator==(const AckMpFrame&) const = default;
};

struct PathStatusKind {
  static constexpr std::uint64_t kAbandon = 0;
  static constexpr std::uint64_t kStandby = 1;
  static constexpr std::uint64_t kAvailable = 2;
};

struct PathStatusFrame {
  PathId path_id = 0;
  std::uint64_t status_seq = 0;  // monotonically increasing per path
  std::uint64_t status = PathStatusKind::kAvailable;
  bool operator==(const PathStatusFrame&) const = default;
};

struct QoeControlSignalsFrame {
  QoeSignal qoe;
  bool operator==(const QoeControlSignalsFrame&) const = default;
};

/// FEC repair symbol (QUIC-FEC style extension, greased codepoint 0xbabd).
/// Covers the window of `k` consecutive source packets [first_pn,
/// first_pn + k) in `path_id`'s packet-number space; `symbol_index` names
/// this symbol's row among the window's `repair_count` repair symbols. The
/// payload is one coded symbol: every source symbol is a sealed datagram
/// framed as [2-byte big-endian length || wire bytes || zero padding].
struct RepairFrame {
  PathId path_id = 0;
  std::uint64_t window_id = 0;
  PacketNumber first_pn = 0;
  std::uint64_t k = 1;             // source symbols in the window
  std::uint64_t repair_count = 1;  // repair symbols emitted for the window
  std::uint64_t symbol_index = 0;  // this symbol's row, < repair_count
  FrameData payload;
  bool operator==(const RepairFrame&) const = default;
};

struct CryptoFrame {
  std::uint64_t offset = 0;
  FrameData data;
  bool operator==(const CryptoFrame&) const = default;
};

struct StreamFrame {
  StreamId stream_id = 0;
  std::uint64_t offset = 0;
  FrameData data;
  bool fin = false;
  bool operator==(const StreamFrame&) const = default;
};

struct MaxDataFrame {
  std::uint64_t maximum = 0;
  bool operator==(const MaxDataFrame&) const = default;
};

struct MaxStreamDataFrame {
  StreamId stream_id = 0;
  std::uint64_t maximum = 0;
  bool operator==(const MaxStreamDataFrame&) const = default;
};

struct ResetStreamFrame {
  StreamId stream_id = 0;
  std::uint64_t error_code = 0;
  std::uint64_t final_size = 0;
  bool operator==(const ResetStreamFrame&) const = default;
};

struct StopSendingFrame {
  StreamId stream_id = 0;
  std::uint64_t error_code = 0;
  bool operator==(const StopSendingFrame&) const = default;
};

struct NewConnectionIdFrame {
  std::uint64_t sequence = 0;
  std::uint64_t retire_prior_to = 0;
  std::array<std::uint8_t, 8> cid{};
  std::array<std::uint8_t, 16> reset_token{};
  bool operator==(const NewConnectionIdFrame&) const = default;
};

struct PathChallengeFrame {
  std::array<std::uint8_t, 8> data{};
  bool operator==(const PathChallengeFrame&) const = default;
};

struct PathResponseFrame {
  std::array<std::uint8_t, 8> data{};
  bool operator==(const PathResponseFrame&) const = default;
};

struct HandshakeDoneFrame {
  bool operator==(const HandshakeDoneFrame&) const = default;
};

struct ConnectionCloseFrame {
  std::uint64_t error_code = 0;
  std::string reason;
  bool operator==(const ConnectionCloseFrame&) const = default;
};

using Frame =
    std::variant<PaddingFrame, PingFrame, AckFrame, AckMpFrame,
                 PathStatusFrame, QoeControlSignalsFrame, RepairFrame,
                 CryptoFrame, StreamFrame, MaxDataFrame, MaxStreamDataFrame,
                 ResetStreamFrame, StopSendingFrame, NewConnectionIdFrame,
                 PathChallengeFrame, PathResponseFrame, HandshakeDoneFrame,
                 ConnectionCloseFrame>;

/// Serializes one frame (type code + body) into `w`.
void encode_frame(const Frame& frame, Writer& w);
void encode_frame(const Frame& frame, BufWriter& w);
void encode_frame(const Frame& frame, SizeWriter& w);

/// Parses one frame; nullopt on malformed/unknown input. A parsed
/// CRYPTO/STREAM/REPAIR payload borrows the Reader's bytes: the caller
/// keeps them alive for as long as it uses the frame.
std::optional<Frame> parse_frame(Reader& r);

/// Appends the payload's frames to `out` (reusing its capacity -- the
/// receive hot path passes a cleared scratch vector); false if any frame is
/// bad. Payloads view `payload` directly, as parse_frame's do.
bool parse_frames_into(std::span<const std::uint8_t> payload,
                       std::vector<Frame>& out);

/// Encoded size of a frame (counted, no allocation).
std::size_t frame_wire_size(const Frame& frame);

/// True if the frame counts as ack-eliciting per RFC 9002 §2.
bool is_ack_eliciting(const Frame& frame);

/// Overhead of a STREAM frame header for given ids/offset/length.
std::size_t stream_frame_overhead(StreamId id, std::uint64_t offset,
                                  std::size_t length);

/// Serializes/parses transport parameters (carried in CRYPTO frames during
/// the simplified handshake).
std::vector<std::uint8_t> encode_transport_params(const TransportParams& p);
std::optional<TransportParams> parse_transport_params(
    std::span<const std::uint8_t> data);

}  // namespace xlink::quic
