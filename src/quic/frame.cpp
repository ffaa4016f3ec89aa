#include "quic/frame.h"

#include <algorithm>

namespace xlink::quic {
namespace {

// RFC 9000 frame type codes used here.
constexpr std::uint64_t kTypePadding = 0x00;
constexpr std::uint64_t kTypePing = 0x01;
constexpr std::uint64_t kTypeAck = 0x02;
constexpr std::uint64_t kTypeResetStream = 0x04;
constexpr std::uint64_t kTypeStopSending = 0x05;
constexpr std::uint64_t kTypeCrypto = 0x06;
constexpr std::uint64_t kTypeStreamBase = 0x08;  // |0x04 OFF |0x02 LEN |0x01 FIN
constexpr std::uint64_t kTypeMaxData = 0x10;
constexpr std::uint64_t kTypeMaxStreamData = 0x11;
constexpr std::uint64_t kTypeNewConnectionId = 0x18;
constexpr std::uint64_t kTypePathChallenge = 0x1a;
constexpr std::uint64_t kTypePathResponse = 0x1b;
constexpr std::uint64_t kTypeConnectionClose = 0x1c;
constexpr std::uint64_t kTypeHandshakeDone = 0x1e;

template <typename W>
void encode_ack_info(const AckInfo& info, W& w) {
  // RFC 9000 ACK layout: largest, delay, range count - 1, first range,
  // then (gap, range) pairs walking downward.
  w.varint(info.largest_acked());
  w.varint(info.ack_delay_us);
  const std::size_t n = info.ranges.size();
  w.varint(n == 0 ? 0 : n - 1);
  if (n == 0) {
    w.varint(0);
    return;
  }
  const AckRange& first = info.ranges.front();
  w.varint(first.last - first.first);
  for (std::size_t i = 1; i < n; ++i) {
    const AckRange& prev = info.ranges[i - 1];
    const AckRange& cur = info.ranges[i];
    // gap = number of unacked packets between ranges minus 1.
    w.varint(prev.first - cur.last - 2);
    w.varint(cur.last - cur.first);
  }
}

std::optional<AckInfo> parse_ack_info(Reader& r) {
  AckInfo info;
  const auto largest = r.varint();
  const auto delay = r.varint();
  const auto count = r.varint();
  const auto first_len = r.varint();
  if (!largest || !delay || !count || !first_len) return std::nullopt;
  if (*first_len > *largest) return std::nullopt;
  info.ack_delay_us = *delay;
  // Exact-size preallocation, capped so a hostile range count cannot force
  // a huge reservation before the per-range bounds checks below reject it.
  info.ranges.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      *count + 1, 64)));
  AckRange first{*largest - *first_len, *largest};
  info.ranges.push_back(first);
  PacketNumber smallest = first.first;
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto gap = r.varint();
    const auto len = r.varint();
    if (!gap || !len) return std::nullopt;
    if (smallest < *gap + 2) return std::nullopt;
    const PacketNumber last = smallest - *gap - 2;
    if (last < *len) return std::nullopt;
    AckRange range{last - *len, last};
    info.ranges.push_back(range);
    smallest = range.first;
  }
  return info;
}

std::optional<QoeSignal> parse_qoe(Reader& r) {
  QoeSignal q;
  const auto cb = r.varint();
  const auto cf = r.varint();
  const auto bps = r.varint();
  const auto fps = r.varint();
  if (!cb || !cf || !bps || !fps) return std::nullopt;
  q.cached_bytes = *cb;
  q.cached_frames = *cf;
  q.bps = *bps;
  q.fps = *fps;
  return q;
}

template <typename W>
void encode_qoe(const QoeSignal& q, W& w) {
  w.varint(q.cached_bytes);
  w.varint(q.cached_frames);
  w.varint(q.bps);
  w.varint(q.fps);
}

template <typename W>
struct FrameEncoder {
  W& w;

  void operator()(const PaddingFrame& f) const {
    for (std::uint64_t i = 0; i < f.length; ++i) w.u8(0);
  }
  void operator()(const PingFrame&) const { w.varint(kTypePing); }
  void operator()(const AckFrame& f) const {
    w.varint(kTypeAck);
    encode_ack_info(f.info, w);
  }
  void operator()(const AckMpFrame& f) const {
    w.varint(kFrameAckMp);
    w.varint(f.path_id);
    encode_ack_info(f.info, w);
    w.u8(f.qoe.has_value() ? 1 : 0);
    if (f.qoe) encode_qoe(*f.qoe, w);
  }
  void operator()(const PathStatusFrame& f) const {
    w.varint(kFramePathStatus);
    w.varint(f.path_id);
    w.varint(f.status_seq);
    w.varint(f.status);
  }
  void operator()(const QoeControlSignalsFrame& f) const {
    w.varint(kFrameQoeControlSignals);
    encode_qoe(f.qoe, w);
  }
  void operator()(const RepairFrame& f) const {
    w.varint(kFrameRepair);
    w.varint(f.path_id);
    w.varint(f.window_id);
    w.varint(f.first_pn);
    w.varint(f.k);
    w.varint(f.repair_count);
    w.varint(f.symbol_index);
    w.varint(f.payload.size());
    w.bytes(f.payload);
  }
  void operator()(const CryptoFrame& f) const {
    w.varint(kTypeCrypto);
    w.varint(f.offset);
    w.varint(f.data.size());
    w.bytes(f.data);
  }
  void operator()(const StreamFrame& f) const {
    // Always emit OFF|LEN so frames are self-delimiting.
    std::uint64_t type = kTypeStreamBase | 0x04 | 0x02;
    if (f.fin) type |= 0x01;
    w.varint(type);
    w.varint(f.stream_id);
    w.varint(f.offset);
    w.varint(f.data.size());
    w.bytes(f.data);
  }
  void operator()(const MaxDataFrame& f) const {
    w.varint(kTypeMaxData);
    w.varint(f.maximum);
  }
  void operator()(const MaxStreamDataFrame& f) const {
    w.varint(kTypeMaxStreamData);
    w.varint(f.stream_id);
    w.varint(f.maximum);
  }
  void operator()(const ResetStreamFrame& f) const {
    w.varint(kTypeResetStream);
    w.varint(f.stream_id);
    w.varint(f.error_code);
    w.varint(f.final_size);
  }
  void operator()(const StopSendingFrame& f) const {
    w.varint(kTypeStopSending);
    w.varint(f.stream_id);
    w.varint(f.error_code);
  }
  void operator()(const NewConnectionIdFrame& f) const {
    w.varint(kTypeNewConnectionId);
    w.varint(f.sequence);
    w.varint(f.retire_prior_to);
    w.u8(static_cast<std::uint8_t>(f.cid.size()));
    w.bytes(f.cid);
    w.bytes(f.reset_token);
  }
  void operator()(const PathChallengeFrame& f) const {
    w.varint(kTypePathChallenge);
    w.bytes(f.data);
  }
  void operator()(const PathResponseFrame& f) const {
    w.varint(kTypePathResponse);
    w.bytes(f.data);
  }
  void operator()(const HandshakeDoneFrame&) const {
    w.varint(kTypeHandshakeDone);
  }
  void operator()(const ConnectionCloseFrame& f) const {
    w.varint(kTypeConnectionClose);
    w.varint(f.error_code);
    w.varint(0);  // frame type that triggered the error (unused)
    w.varint(f.reason.size());
    w.bytes(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(f.reason.data()),
        f.reason.size()));
  }
};

}  // namespace

bool AckInfo::contains(PacketNumber pn) const {
  for (const AckRange& r : ranges)
    if (pn >= r.first && pn <= r.last) return true;
  return false;
}

void encode_frame(const Frame& frame, Writer& w) {
  std::visit(FrameEncoder<Writer>{w}, frame);
}

void encode_frame(const Frame& frame, BufWriter& w) {
  std::visit(FrameEncoder<BufWriter>{w}, frame);
}

void encode_frame(const Frame& frame, SizeWriter& w) {
  std::visit(FrameEncoder<SizeWriter>{w}, frame);
}

std::optional<Frame> parse_frame(Reader& r) {
  const auto type = r.varint();
  if (!type) return std::nullopt;
  switch (*type) {
    case kTypePadding: {
      // Coalesce the run of zero bytes into one frame.
      PaddingFrame f{1};
      // Padding is type 0x00; subsequent zero bytes are more padding.
      while (r.remaining() > 0) {
        Reader peek = r;
        const auto next = peek.u8();
        if (!next || *next != 0) break;
        r.u8();
        ++f.length;
      }
      return Frame{f};
    }
    case kTypePing:
      return Frame{PingFrame{}};
    case kTypeAck: {
      auto info = parse_ack_info(r);
      if (!info) return std::nullopt;
      return Frame{AckFrame{std::move(*info)}};
    }
    case kFrameAckMp: {
      AckMpFrame f;
      const auto path = r.varint();
      if (!path) return std::nullopt;
      f.path_id = static_cast<PathId>(*path);
      auto info = parse_ack_info(r);
      if (!info) return std::nullopt;
      f.info = std::move(*info);
      const auto has_qoe = r.u8();
      if (!has_qoe) return std::nullopt;
      if (*has_qoe) {
        auto q = parse_qoe(r);
        if (!q) return std::nullopt;
        f.qoe = *q;
      }
      return Frame{std::move(f)};
    }
    case kFramePathStatus: {
      PathStatusFrame f;
      const auto path = r.varint();
      const auto seq = r.varint();
      const auto status = r.varint();
      if (!path || !seq || !status) return std::nullopt;
      if (*status > PathStatusKind::kAvailable) return std::nullopt;
      f.path_id = static_cast<PathId>(*path);
      f.status_seq = *seq;
      f.status = *status;
      return Frame{f};
    }
    case kFrameQoeControlSignals: {
      auto q = parse_qoe(r);
      if (!q) return std::nullopt;
      return Frame{QoeControlSignalsFrame{*q}};
    }
    case kFrameRepair: {
      RepairFrame f;
      const auto path = r.varint();
      const auto window = r.varint();
      const auto first_pn = r.varint();
      const auto k = r.varint();
      const auto rep = r.varint();
      const auto idx = r.varint();
      const auto len = r.varint();
      if (!path || !window || !first_pn || !k || !rep || !idx || !len)
        return std::nullopt;
      // Sanity bounds: GF(2^8) caps k + r at 256; the window's last pn must
      // not overflow the varint space; the symbol row must exist.
      if (*k == 0 || *rep == 0 || *k + *rep > 256) return std::nullopt;
      if (*idx >= *rep) return std::nullopt;
      if (*first_pn > kVarintMax - *k) return std::nullopt;
      auto data = r.view(*len);
      if (!data) return std::nullopt;
      f.path_id = static_cast<PathId>(*path);
      f.window_id = *window;
      f.first_pn = *first_pn;
      f.k = *k;
      f.repair_count = *rep;
      f.symbol_index = *idx;
      f.payload = FrameData::borrowed(*data);
      return Frame{std::move(f)};
    }
    case kTypeCrypto: {
      CryptoFrame f;
      const auto off = r.varint();
      const auto len = r.varint();
      if (!off || !len) return std::nullopt;
      // Final offset past the varint ceiling is a FRAME_ENCODING_ERROR
      // (RFC 9000 §19.6); rejecting here keeps downstream reassembly
      // arithmetic overflow-free.
      if (*off > kVarintMax - *len) return std::nullopt;
      auto data = r.view(*len);
      if (!data) return std::nullopt;
      f.offset = *off;
      f.data = FrameData::borrowed(*data);
      return Frame{std::move(f)};
    }
    case kTypeMaxData: {
      const auto m = r.varint();
      if (!m) return std::nullopt;
      return Frame{MaxDataFrame{*m}};
    }
    case kTypeMaxStreamData: {
      const auto id = r.varint();
      const auto m = r.varint();
      if (!id || !m) return std::nullopt;
      return Frame{MaxStreamDataFrame{*id, *m}};
    }
    case kTypeResetStream: {
      const auto id = r.varint();
      const auto ec = r.varint();
      const auto fs = r.varint();
      if (!id || !ec || !fs) return std::nullopt;
      return Frame{ResetStreamFrame{*id, *ec, *fs}};
    }
    case kTypeStopSending: {
      const auto id = r.varint();
      const auto ec = r.varint();
      if (!id || !ec) return std::nullopt;
      return Frame{StopSendingFrame{*id, *ec}};
    }
    case kTypeNewConnectionId: {
      NewConnectionIdFrame f;
      const auto seq = r.varint();
      const auto retire = r.varint();
      const auto len = r.u8();
      if (!seq || !retire || !len || *len != f.cid.size()) return std::nullopt;
      if (!r.bytes_into(f.cid)) return std::nullopt;
      if (!r.bytes_into(f.reset_token)) return std::nullopt;
      f.sequence = *seq;
      f.retire_prior_to = *retire;
      return Frame{f};
    }
    case kTypePathChallenge: {
      PathChallengeFrame f;
      if (!r.bytes_into(f.data)) return std::nullopt;
      return Frame{f};
    }
    case kTypePathResponse: {
      PathResponseFrame f;
      if (!r.bytes_into(f.data)) return std::nullopt;
      return Frame{f};
    }
    case kTypeConnectionClose: {
      ConnectionCloseFrame f;
      const auto ec = r.varint();
      const auto trigger = r.varint();
      const auto len = r.varint();
      if (!ec || !trigger || !len) return std::nullopt;
      const auto reason = r.view(*len);
      if (!reason) return std::nullopt;
      f.error_code = *ec;
      f.reason.assign(reason->begin(), reason->end());
      return Frame{std::move(f)};
    }
    case kTypeHandshakeDone:
      return Frame{HandshakeDoneFrame{}};
    default:
      if ((*type & ~0x07ULL) == kTypeStreamBase) {
        StreamFrame f;
        f.fin = (*type & 0x01) != 0;
        const bool has_off = (*type & 0x04) != 0;
        const bool has_len = (*type & 0x02) != 0;
        const auto id = r.varint();
        if (!id) return std::nullopt;
        f.stream_id = *id;
        if (has_off) {
          const auto off = r.varint();
          if (!off) return std::nullopt;
          f.offset = *off;
        }
        std::uint64_t len = r.remaining();
        if (has_len) {
          const auto l = r.varint();
          if (!l) return std::nullopt;
          len = *l;
        }
        // RFC 9000 §19.8: final size must stay below 2^62.
        if (f.offset > kVarintMax - len) return std::nullopt;
        auto data = r.view(len);
        if (!data) return std::nullopt;
        f.data = FrameData::borrowed(*data);
        return Frame{std::move(f)};
      }
      return std::nullopt;  // unknown frame type
  }
}

bool parse_frames_into(std::span<const std::uint8_t> payload,
                       std::vector<Frame>& out) {
  Reader r(payload);
  while (!r.done()) {
    auto f = parse_frame(r);
    if (!f) return false;
    out.push_back(std::move(*f));
  }
  return true;
}

std::size_t frame_wire_size(const Frame& frame) {
  SizeWriter w;
  encode_frame(frame, w);
  return w.size();
}

bool is_ack_eliciting(const Frame& frame) {
  return !std::holds_alternative<AckFrame>(frame) &&
         !std::holds_alternative<AckMpFrame>(frame) &&
         !std::holds_alternative<PaddingFrame>(frame) &&
         !std::holds_alternative<ConnectionCloseFrame>(frame);
}

std::size_t stream_frame_overhead(StreamId id, std::uint64_t offset,
                                  std::size_t length) {
  // type(1) + id + offset + length varints.
  return 1 + varint_size(id) + varint_size(offset) + varint_size(length);
}

std::vector<std::uint8_t> encode_transport_params(const TransportParams& p) {
  Writer w;
  w.reserve(1 + varint_size(p.initial_max_data) +
            varint_size(p.initial_max_stream_data) +
            varint_size(p.active_connection_id_limit) +
            varint_size(p.max_ack_delay_ms));
  w.u8(p.enable_multipath ? 1 : 0);
  w.varint(p.initial_max_data);
  w.varint(p.initial_max_stream_data);
  w.varint(p.active_connection_id_limit);
  w.varint(p.max_ack_delay_ms);
  return w.take();
}

std::optional<TransportParams> parse_transport_params(
    std::span<const std::uint8_t> data) {
  Reader r(data);
  TransportParams p;
  const auto mp = r.u8();
  const auto max_data = r.varint();
  const auto max_stream = r.varint();
  const auto cid_limit = r.varint();
  const auto ack_delay = r.varint();
  if (!mp || !max_data || !max_stream || !cid_limit || !ack_delay)
    return std::nullopt;
  p.enable_multipath = *mp != 0;
  p.initial_max_data = *max_data;
  p.initial_max_stream_data = *max_stream;
  p.active_connection_id_limit = *cid_limit;
  p.max_ack_delay_ms = *ack_delay;
  return p;
}

}  // namespace xlink::quic
