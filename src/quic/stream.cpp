#include "quic/stream.h"

#include <algorithm>
#include <cstring>

namespace xlink::quic {

std::uint64_t SendStream::write(std::vector<std::uint8_t> data, bool fin) {
  const std::uint64_t offset = buffer_.size();
  if (buffer_.empty())
    buffer_ = std::move(data);
  else
    buffer_.insert(buffer_.end(), data.begin(), data.end());
  if (fin) fin_written_ = true;
  return offset;
}

void SendStream::set_frame_priority(std::uint64_t position, std::uint64_t size,
                                    int priority) {
  frame_priorities_.push_back({position, position + size, priority});
}

int SendStream::frame_priority_at(std::uint64_t offset) const {
  int best = 0;
  for (const auto& r : frame_priorities_)
    if (offset >= r.begin && offset < r.end) best = std::max(best, r.priority);
  return best;
}

std::uint64_t SendStream::frame_priority_run_end(std::uint64_t offset,
                                                 std::uint64_t limit) const {
  const int priority = frame_priority_at(offset);
  for (std::uint64_t at = offset;;) {
    std::uint64_t next = limit;
    for (const auto& r : frame_priorities_) {
      if (r.begin > at) next = std::min(next, r.begin);
      if (r.end > at) next = std::min(next, r.end);
    }
    if (next >= limit) return limit;
    if (frame_priority_at(next) != priority) return next;
    at = next;
  }
}

std::span<const std::uint8_t> SendStream::view_range(std::uint64_t offset,
                                                     std::size_t len) const {
  if (offset >= buffer_.size()) return {};
  const std::size_t n =
      std::min<std::uint64_t>(len, buffer_.size() - offset);
  return {buffer_.data() + offset, n};
}

void SendStream::on_range_acked(std::uint64_t begin, std::uint64_t end,
                                bool fin) {
  acked_.add(begin, end);
  if (fin) fin_acked_ = true;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> SendStream::unacked_within(
    std::uint64_t begin, std::uint64_t end) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  std::uint64_t cursor = begin;
  for (const auto& [b, e] : acked_.intervals()) {
    if (e <= cursor) continue;
    if (b >= end) break;
    if (b > cursor) out.emplace_back(cursor, std::min(b, end));
    cursor = std::max(cursor, e);
    if (cursor >= end) break;
  }
  if (cursor < end) out.emplace_back(cursor, end);
  return out;
}

bool SendStream::fully_acked() const {
  if (!fin_written_) return false;
  if (buffer_.empty()) return true;
  return acked_.contains(0, buffer_.size());
}

void RecvStream::on_data(std::uint64_t offset,
                         std::span<const std::uint8_t> data, bool fin) {
  const std::uint64_t end = offset + data.size();
  if (fin && !final_size_) final_size_ = end;
  received_high_ = std::max(received_high_, end);
  if (data.empty()) return;
  // Count bytes we already had (duplicates from re-injection).
  for (const auto& [b, e] : received_.intervals()) {
    const std::uint64_t lo = std::max<std::uint64_t>(b, offset);
    const std::uint64_t hi = std::min<std::uint64_t>(e, end);
    if (hi > lo) duplicate_bytes_ += hi - lo;
  }
  // Bytes below the read offset were consumed already; store the rest,
  // provisioning zero-filled blocks through the last byte (a gap between
  // the read offset and `offset` gets blocks too, so it reads as zeros).
  if (end > read_offset_) {
    const std::uint64_t last_block = (end - 1) / kBlockBytes;
    while (first_block_ + blocks_.size() <= last_block)
      blocks_.push_back(net::PacketBuffer(kBlockBytes));
    for (std::uint64_t at = std::max(offset, read_offset_); at < end;) {
      const std::size_t in_block = at % kBlockBytes;
      const std::size_t n =
          std::min<std::uint64_t>(kBlockBytes - in_block, end - at);
      std::memcpy(block_at(at) + in_block, data.data() + (at - offset), n);
      at += n;
    }
  }
  received_.add(offset, end);
  if (max_gaps_ && received_.interval_count() > max_gaps_) {
    const std::uint64_t phantom = received_.collapse_to(max_gaps_);
    if (phantom > 0) {
      ++gap_collapses_;
      phantom_bytes_ += phantom;
    }
  }
}

std::uint64_t RecvStream::readable_bytes() const {
  const std::uint64_t contiguous = received_.next_gap(0);
  return contiguous > read_offset_ ? contiguous - read_offset_ : 0;
}

std::size_t RecvStream::read(std::span<std::uint8_t> out) {
  const std::size_t n = std::min<std::uint64_t>(out.size(), readable_bytes());
  for (std::size_t done = 0; done < n;) {
    const std::uint64_t at = read_offset_ + done;
    const std::size_t in_block = at % kBlockBytes;
    const std::size_t k =
        std::min<std::uint64_t>(kBlockBytes - in_block, n - done);
    std::memcpy(out.data() + done, block_at(at) + in_block, k);
    done += k;
  }
  read_offset_ += n;
  // Every block wholly below the read offset holds only consumed bytes.
  for (; first_block_ < read_offset_ / kBlockBytes; ++first_block_)
    blocks_.pop_front();
  return n;
}

}  // namespace xlink::quic
