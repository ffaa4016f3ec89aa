// RFC 9000 variable-length integer encoding plus byte-buffer reader/writer.
//
// All frames and packet headers serialize through these helpers so wire
// sizes are authentic (they feed congestion control and pacing).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace xlink::quic {

/// Largest value representable as a QUIC varint (2^62 - 1).
constexpr std::uint64_t kVarintMax = (1ULL << 62) - 1;

/// Number of bytes the varint encoding of `v` occupies (1, 2, 4 or 8).
std::size_t varint_size(std::uint64_t v);

/// Appends the varint encoding of `v` to `out`. `v` must be <= kVarintMax.
void varint_encode(std::uint64_t v, std::vector<std::uint8_t>& out);

/// Writes the varint encoding of `v` at `out` (which must have room for
/// varint_size(v) bytes); returns the encoded length.
std::size_t varint_encode_to(std::uint64_t v, std::uint8_t* out);

/// Serialization cursor over a growing byte vector.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void varint(std::uint64_t v) { varint_encode(v, buf_); }
  void bytes(std::span<const std::uint8_t> data);

  void reserve(std::size_t n) { buf_.reserve(n); }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Serialization cursor over caller-owned storage (a pooled packet
/// buffer). Writes never allocate; running past `capacity` latches the
/// overflow flag and discards further bytes, which the caller checks once
/// after encoding instead of per write.
class BufWriter {
 public:
  BufWriter(std::uint8_t* data, std::size_t capacity)
      : data_(data), capacity_(capacity) {}

  void u8(std::uint8_t v) {
    if (!fits(1)) return;
    data_[pos_++] = v;
  }
  void u32(std::uint32_t v);
  void varint(std::uint64_t v) {
    if (!fits(varint_size(v))) return;
    pos_ += varint_encode_to(v, data_ + pos_);
  }
  void bytes(std::span<const std::uint8_t> data);

  std::size_t size() const { return pos_; }
  bool overflowed() const { return overflowed_; }

 private:
  bool fits(std::size_t n) {
    if (capacity_ - pos_ < n) {
      overflowed_ = true;
      return false;
    }
    return true;
  }

  std::uint8_t* data_;
  std::size_t capacity_;
  std::size_t pos_ = 0;
  bool overflowed_ = false;
};

/// Counting writer: measures encoded size without touching memory, for
/// exact preallocation and allocation-free frame_wire_size().
class SizeWriter {
 public:
  void u8(std::uint8_t) { ++size_; }
  void u32(std::uint32_t) { size_ += 4; }
  void varint(std::uint64_t v) { size_ += varint_size(v); }
  void bytes(std::span<const std::uint8_t> data) { size_ += data.size(); }

  std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

/// Parsing cursor over a byte span. All reads return nullopt on underrun,
/// never throwing: malformed network input is data, not a programming error.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::optional<std::uint8_t> u8();
  std::optional<std::uint32_t> u32();
  std::optional<std::uint64_t> varint();
  /// Copies `n` bytes into `out` (avoids an allocation).
  bool bytes_into(std::span<std::uint8_t> out);
  /// Borrows `n` bytes without copying; the view shares the Reader's
  /// underlying storage.
  std::optional<std::span<const std::uint8_t>> view(std::size_t n);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  std::size_t position() const { return pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace xlink::quic
