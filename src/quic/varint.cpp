#include "quic/varint.h"

#include <cstdio>
#include <cstring>

namespace xlink::quic {

std::size_t varint_size(std::uint64_t v) {
  if (v < (1ULL << 6)) return 1;
  if (v < (1ULL << 14)) return 2;
  if (v < (1ULL << 30)) return 4;
  return 8;
}

void varint_encode(std::uint64_t v, std::vector<std::uint8_t>& out) {
  switch (varint_size(v)) {
    case 1:
      out.push_back(static_cast<std::uint8_t>(v));
      break;
    case 2:
      out.push_back(static_cast<std::uint8_t>(0x40 | (v >> 8)));
      out.push_back(static_cast<std::uint8_t>(v));
      break;
    case 4:
      out.push_back(static_cast<std::uint8_t>(0x80 | (v >> 24)));
      out.push_back(static_cast<std::uint8_t>(v >> 16));
      out.push_back(static_cast<std::uint8_t>(v >> 8));
      out.push_back(static_cast<std::uint8_t>(v));
      break;
    default:
      out.push_back(static_cast<std::uint8_t>(0xc0 | (v >> 56)));
      for (int shift = 48; shift >= 0; shift -= 8)
        out.push_back(static_cast<std::uint8_t>(v >> shift));
      break;
  }
}

std::size_t varint_encode_to(std::uint64_t v, std::uint8_t* out) {
  const std::size_t len = varint_size(v);
  switch (len) {
    case 1:
      out[0] = static_cast<std::uint8_t>(v);
      break;
    case 2:
      out[0] = static_cast<std::uint8_t>(0x40 | (v >> 8));
      out[1] = static_cast<std::uint8_t>(v);
      break;
    case 4:
      out[0] = static_cast<std::uint8_t>(0x80 | (v >> 24));
      out[1] = static_cast<std::uint8_t>(v >> 16);
      out[2] = static_cast<std::uint8_t>(v >> 8);
      out[3] = static_cast<std::uint8_t>(v);
      break;
    default:
      out[0] = static_cast<std::uint8_t>(0xc0 | (v >> 56));
      for (int i = 1; i < 8; ++i)
        out[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
      break;
  }
  return len;
}

void Writer::u32(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void BufWriter::u32(std::uint32_t v) {
  if (!fits(4)) return;
  data_[pos_++] = static_cast<std::uint8_t>(v >> 24);
  data_[pos_++] = static_cast<std::uint8_t>(v >> 16);
  data_[pos_++] = static_cast<std::uint8_t>(v >> 8);
  data_[pos_++] = static_cast<std::uint8_t>(v);
}

void BufWriter::bytes(std::span<const std::uint8_t> data) {
  if (!fits(data.size())) return;
  if (!data.empty()) std::memcpy(data_ + pos_, data.data(), data.size());
  pos_ += data.size();
}

std::optional<std::uint8_t> Reader::u8() {
  if (remaining() < 1) return std::nullopt;
  return data_[pos_++];
}

std::optional<std::uint32_t> Reader::u32() {
  if (remaining() < 4) return std::nullopt;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_++];
  return v;
}

std::optional<std::uint64_t> Reader::varint() {
  if (remaining() < 1) return std::nullopt;
  const std::uint8_t first = data_[pos_];
  const std::size_t len = static_cast<std::size_t>(1) << (first >> 6);
  if (remaining() < len) return std::nullopt;
  std::uint64_t v = first & 0x3f;
  ++pos_;
  for (std::size_t i = 1; i < len; ++i) v = (v << 8) | data_[pos_++];
  return v;
}

std::optional<std::span<const std::uint8_t>> Reader::view(std::size_t n) {
  if (remaining() < n) return std::nullopt;
  std::span<const std::uint8_t> out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

bool Reader::bytes_into(std::span<std::uint8_t> out) {
  if (remaining() < out.size()) return false;
  if (!out.empty()) std::memcpy(out.data(), data_.data() + pos_, out.size());
  pos_ += out.size();
  return true;
}

}  // namespace xlink::quic
