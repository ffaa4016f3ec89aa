// Unit tests: frame serialization, including the multipath extension
// frames and the QoE signal carriage.
#include <gtest/gtest.h>

#include "quic/frame.h"

namespace xlink::quic {
namespace {

/// Encodes `in`, parses it back and expects the same frame. The parsed
/// payload views the encoding, so the comparison happens while it lives.
void expect_roundtrip(const Frame& in) {
  Writer w;
  encode_frame(in, w);
  Reader r(w.data());
  const auto out = parse_frame(r);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(r.done()) << "frame did not consume its whole encoding";
  EXPECT_EQ(*out, in);
}

TEST(Frames, PingRoundtrip) {
  expect_roundtrip(Frame{PingFrame{}});
}

TEST(Frames, StreamRoundtrip) {
  StreamFrame f;
  f.stream_id = 12;
  f.offset = 987654;
  f.data = {1, 2, 3, 4, 5};
  f.fin = true;
  expect_roundtrip(Frame{f});
}

TEST(Frames, StreamEmptyWithFin) {
  StreamFrame f;
  f.stream_id = 4;
  f.fin = true;
  expect_roundtrip(Frame{f});
}

TEST(Frames, AckSingleRange) {
  AckFrame f;
  f.info.ack_delay_us = 250;
  f.info.ranges = {{5, 10}};
  expect_roundtrip(Frame{f});
}

TEST(Frames, AckMultipleRanges) {
  AckFrame f;
  f.info.ack_delay_us = 1;
  f.info.ranges = {{90, 100}, {50, 70}, {10, 20}, {0, 3}};
  expect_roundtrip(Frame{f});
}

TEST(Frames, AckAdjacentButUnmergedRangesSurvive) {
  AckFrame f;
  // Gap of exactly one missing packet between ranges.
  f.info.ranges = {{12, 20}, {5, 10}};
  expect_roundtrip(Frame{f});
}

TEST(Frames, AckMpWithoutQoe) {
  AckMpFrame f;
  f.path_id = 3;
  f.info.ranges = {{0, 42}};
  expect_roundtrip(Frame{f});
}

TEST(Frames, AckMpWithQoe) {
  AckMpFrame f;
  f.path_id = 1;
  f.info.ack_delay_us = 777;
  f.info.ranges = {{100, 220}, {10, 50}};
  f.qoe = QoeSignal{123456, 240, 2'500'000, 30};
  expect_roundtrip(Frame{f});
}

TEST(Frames, QoeControlSignals) {
  QoeControlSignalsFrame f;
  f.qoe = QoeSignal{1, 2, 3, 4};
  expect_roundtrip(Frame{f});
}

TEST(Frames, PathStatusRoundtripAllValues) {
  for (std::uint64_t status : {PathStatusKind::kAbandon,
                               PathStatusKind::kStandby,
                               PathStatusKind::kAvailable}) {
    PathStatusFrame f;
    f.path_id = 2;
    f.status_seq = 9;
    f.status = status;
    expect_roundtrip(Frame{f});
  }
}

TEST(Frames, PathStatusRejectsUnknownValue) {
  Writer w;
  w.varint(kFramePathStatus);
  w.varint(1);
  w.varint(1);
  w.varint(99);  // invalid status
  Reader r(w.data());
  EXPECT_FALSE(parse_frame(r).has_value());
}

TEST(Frames, CryptoRoundtrip) {
  CryptoFrame f;
  f.offset = 0;
  f.data = {9, 8, 7};
  expect_roundtrip(Frame{f});
}

TEST(Frames, FlowControlFrames) {
  expect_roundtrip(Frame{MaxDataFrame{1 << 20}});
  expect_roundtrip(Frame{MaxStreamDataFrame{8, 4096}});
}

TEST(Frames, StreamControlFrames) {
  expect_roundtrip(Frame{ResetStreamFrame{4, 1, 5000}});
  expect_roundtrip(Frame{StopSendingFrame{4, 2}});
}

TEST(Frames, NewConnectionIdRoundtrip) {
  NewConnectionIdFrame f;
  f.sequence = 2;
  f.retire_prior_to = 0;
  for (int i = 0; i < 8; ++i) f.cid[static_cast<size_t>(i)] = static_cast<std::uint8_t>(i);
  for (int i = 0; i < 16; ++i)
    f.reset_token[static_cast<size_t>(i)] = static_cast<std::uint8_t>(0xf0 + i);
  expect_roundtrip(Frame{f});
}

TEST(Frames, PathChallengeResponse) {
  PathChallengeFrame c;
  c.data = {1, 2, 3, 4, 5, 6, 7, 8};
  expect_roundtrip(Frame{c});
  PathResponseFrame p;
  p.data = c.data;
  expect_roundtrip(Frame{p});
}

TEST(Frames, ConnectionCloseWithReason) {
  ConnectionCloseFrame f;
  f.error_code = 7;
  f.reason = "bye now";
  expect_roundtrip(Frame{f});
}

TEST(Frames, HandshakeDone) {
  expect_roundtrip(Frame{HandshakeDoneFrame{}});
}

TEST(Frames, PaddingCoalesces) {
  Writer w;
  for (int i = 0; i < 5; ++i) w.u8(0);
  Reader r(w.data());
  const auto f = parse_frame(r);
  ASSERT_TRUE(f.has_value());
  const auto* padding = std::get_if<PaddingFrame>(&*f);
  ASSERT_NE(padding, nullptr);
  EXPECT_EQ(padding->length, 5u);
  EXPECT_TRUE(r.done());
}

TEST(Frames, UnknownTypeFailsParse) {
  Writer w;
  w.varint(0x7777);
  Reader r(w.data());
  EXPECT_FALSE(parse_frame(r).has_value());
}

TEST(Frames, TruncatedStreamFails) {
  StreamFrame f;
  f.stream_id = 4;
  f.data = {1, 2, 3, 4};
  Writer w;
  encode_frame(Frame{f}, w);
  auto bytes = w.take();
  bytes.pop_back();  // truncate
  Reader r(bytes);
  EXPECT_FALSE(parse_frame(r).has_value());
}

TEST(Frames, ParseFramesWholePayload) {
  Writer w;
  encode_frame(Frame{PingFrame{}}, w);
  StreamFrame s;
  s.stream_id = 0;
  s.data = {1};
  encode_frame(Frame{s}, w);
  std::vector<Frame> frames;
  ASSERT_TRUE(parse_frames_into(w.data(), frames));
  EXPECT_EQ(frames.size(), 2u);
}

TEST(Frames, ParseFramesRejectsTrailingGarbage) {
  Writer w;
  encode_frame(Frame{PingFrame{}}, w);
  w.u8(0x77);  // not a valid frame start... 0x77 parses as varint type 0x37
  std::vector<Frame> frames;
  EXPECT_FALSE(parse_frames_into(w.data(), frames));
}

TEST(Frames, AckEliciting) {
  EXPECT_TRUE(is_ack_eliciting(Frame{PingFrame{}}));
  EXPECT_TRUE(is_ack_eliciting(Frame{StreamFrame{}}));
  EXPECT_TRUE(is_ack_eliciting(Frame{PathChallengeFrame{}}));
  EXPECT_FALSE(is_ack_eliciting(Frame{AckFrame{}}));
  EXPECT_FALSE(is_ack_eliciting(Frame{AckMpFrame{}}));
  EXPECT_FALSE(is_ack_eliciting(Frame{PaddingFrame{}}));
  EXPECT_FALSE(is_ack_eliciting(Frame{ConnectionCloseFrame{}}));
}

TEST(Frames, WireSizeMatchesEncoding) {
  StreamFrame f;
  f.stream_id = 8;
  f.offset = 100000;
  f.data.assign(500, 1);
  Writer w;
  encode_frame(Frame{f}, w);
  EXPECT_EQ(frame_wire_size(Frame{f}), w.size());
}

TEST(Frames, StreamFrameOverheadIsUpperBoundOnHeader) {
  StreamFrame f;
  f.stream_id = 8;
  f.offset = 100000;
  f.data.assign(500, 1);
  const std::size_t overhead =
      stream_frame_overhead(f.stream_id, f.offset, f.data.size());
  EXPECT_EQ(frame_wire_size(Frame{f}), overhead + f.data.size());
}

TEST(TransportParams, Roundtrip) {
  TransportParams p;
  p.enable_multipath = true;
  p.initial_max_data = 1 << 22;
  p.initial_max_stream_data = 1 << 20;
  p.active_connection_id_limit = 6;
  p.max_ack_delay_ms = 20;
  const auto parsed = parse_transport_params(encode_transport_params(p));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->enable_multipath, true);
  EXPECT_EQ(parsed->initial_max_data, p.initial_max_data);
  EXPECT_EQ(parsed->initial_max_stream_data, p.initial_max_stream_data);
  EXPECT_EQ(parsed->active_connection_id_limit, 6u);
  EXPECT_EQ(parsed->max_ack_delay_ms, 20u);
}

TEST(TransportParams, TruncatedFails) {
  TransportParams p;
  auto bytes = encode_transport_params(p);
  bytes.pop_back();
  EXPECT_FALSE(parse_transport_params(bytes).has_value());
}

TEST(AckInfo, Contains) {
  AckInfo info;
  info.ranges = {{10, 20}, {3, 5}};
  EXPECT_TRUE(info.contains(10));
  EXPECT_TRUE(info.contains(20));
  EXPECT_TRUE(info.contains(4));
  EXPECT_FALSE(info.contains(6));
  EXPECT_FALSE(info.contains(21));
  EXPECT_EQ(info.largest_acked(), 20u);
}

}  // namespace
}  // namespace xlink::quic
