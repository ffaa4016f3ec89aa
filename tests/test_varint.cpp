// Unit tests: RFC 9000 varint codec and byte buffer cursors.
#include <gtest/gtest.h>

#include "quic/varint.h"

namespace xlink::quic {
namespace {

TEST(Varint, SizeBoundaries) {
  EXPECT_EQ(varint_size(0), 1u);
  EXPECT_EQ(varint_size(63), 1u);
  EXPECT_EQ(varint_size(64), 2u);
  EXPECT_EQ(varint_size(16383), 2u);
  EXPECT_EQ(varint_size(16384), 4u);
  EXPECT_EQ(varint_size((1ULL << 30) - 1), 4u);
  EXPECT_EQ(varint_size(1ULL << 30), 8u);
  EXPECT_EQ(varint_size(kVarintMax), 8u);
}

class VarintRoundtrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundtrip, EncodesAndDecodes) {
  const std::uint64_t v = GetParam();
  std::vector<std::uint8_t> buf;
  varint_encode(v, buf);
  EXPECT_EQ(buf.size(), varint_size(v));
  Reader r(buf);
  const auto decoded = r.varint();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, v);
  EXPECT_TRUE(r.done());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, VarintRoundtrip,
    ::testing::Values(0ULL, 1ULL, 63ULL, 64ULL, 16383ULL, 16384ULL,
                      (1ULL << 30) - 1, 1ULL << 30, 123456789ULL,
                      0x3fffffffffffffffULL));

TEST(Varint, RfcExampleEncodings) {
  // RFC 9000 appendix A.1 sample values.
  std::vector<std::uint8_t> buf;
  varint_encode(151288809941952652ULL, buf);
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{0xc2, 0x19, 0x7c, 0x5e, 0xff,
                                            0x14, 0xe8, 0x8c}));
  buf.clear();
  varint_encode(494878333ULL, buf);
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{0x9d, 0x7f, 0x3e, 0x7d}));
  buf.clear();
  varint_encode(15293ULL, buf);
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{0x7b, 0xbd}));
  buf.clear();
  varint_encode(37ULL, buf);
  EXPECT_EQ(buf, (std::vector<std::uint8_t>{0x25}));
}

TEST(Reader, UnderrunReturnsNullopt) {
  const std::vector<std::uint8_t> twobyte{0x40};  // claims 2 bytes, has 1
  Reader r(twobyte);
  EXPECT_FALSE(r.varint().has_value());
}

TEST(Reader, EmptyReads) {
  Reader r(std::span<const std::uint8_t>{});
  EXPECT_FALSE(r.u8().has_value());
  EXPECT_FALSE(r.u32().has_value());
  EXPECT_FALSE(r.varint().has_value());
  EXPECT_TRUE(r.done());
}

TEST(Reader, BytesAndPosition) {
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  Reader r(data);
  auto first = r.view(2);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(std::vector<std::uint8_t>(first->begin(), first->end()),
            (std::vector<std::uint8_t>{1, 2}));
  EXPECT_EQ(first->data(), data.data());  // a view, not a copy
  EXPECT_EQ(r.position(), 2u);
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_FALSE(r.view(10).has_value());
  std::array<std::uint8_t, 3> rest{};
  EXPECT_TRUE(r.bytes_into(rest));
  EXPECT_EQ(rest, (std::array<std::uint8_t, 3>{3, 4, 5}));
  EXPECT_TRUE(r.done());
}

TEST(Writer, U32BigEndian) {
  Writer w;
  w.u32(0x01020304);
  EXPECT_EQ(w.data(), (std::vector<std::uint8_t>{1, 2, 3, 4}));
  Reader r(w.data());
  EXPECT_EQ(r.u32(), 0x01020304u);
}

TEST(Writer, TakeMovesBuffer) {
  Writer w;
  w.u8(0xff);
  auto data = w.take();
  EXPECT_EQ(data.size(), 1u);
}

TEST(Varint, MixedStream) {
  Writer w;
  w.varint(5);
  w.u8(0xaa);
  w.varint(70000);
  w.u32(9);
  Reader r(w.data());
  EXPECT_EQ(r.varint(), 5u);
  EXPECT_EQ(r.u8(), 0xaa);
  EXPECT_EQ(r.varint(), 70000u);
  EXPECT_EQ(r.u32(), 9u);
  EXPECT_TRUE(r.done());
}

}  // namespace
}  // namespace xlink::quic
