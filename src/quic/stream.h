// QUIC stream state, send and receive sides.
//
// The connection owns the packetization queue (the paper's pkt_send_q);
// streams own their byte buffers, retransmission source data, ack state,
// reassembly and per-stream flow-control state. XLINK's stream_send API
// attaches priorities at two levels: per-stream priority (early chunk
// streams outrank later ones) and per-range "video frame" priority inside a
// stream (the first video frame of a short video outranks the rest of its
// stream).
//
// A stream lives only as long as its window: the connection retires a send
// stream once the peer has acknowledged all of it and a receive stream once
// the application has read it through its FIN (DESIGN.md §8), so all
// per-stream state -- buffers, ack and reassembly sets, frame priorities,
// flow-control limits -- goes with the stream object.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "net/packet_buffer.h"
#include "quic/interval_set.h"
#include "quic/types.h"
#include "sim/ring_queue.h"

namespace xlink::quic {

/// Priority attached to a byte range by the application (higher wins).
/// Video frame priorities per the paper's stream_send(position, size) API.
struct FramePriorityRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  // half-open
  int priority = 0;
};

class SendStream {
 public:
  explicit SendStream(StreamId id) : id_(id) {}

  StreamId id() const { return id_; }

  /// Appends data; returns the offset at which it was placed. The first
  /// write adopts `data` as the stream buffer instead of copying it.
  std::uint64_t write(std::vector<std::uint8_t> data, bool fin);

  /// Marks [position, position+size) with a video-frame priority; the
  /// paper's stream_send API for first-video-frame acceleration.
  void set_frame_priority(std::uint64_t position, std::uint64_t size,
                          int priority);

  /// Video-frame priority of the byte at `offset` (0 = default).
  int frame_priority_at(std::uint64_t offset) const;

  /// End of the equal-priority run that starts at `offset`: the first
  /// byte in (offset, limit) whose frame_priority_at differs from
  /// offset's, else `limit`. Priorities change only at range boundaries,
  /// so only those are probed.
  std::uint64_t frame_priority_run_end(std::uint64_t offset,
                                       std::uint64_t limit) const;

  /// Stream-level priority; smaller stream ids default to higher priority
  /// (earlier chunks of a video play first). Higher value wins.
  int priority() const { return priority_; }
  void set_priority(int p) { priority_ = p; }

  /// Borrowed view of [offset, offset+len), clamped to written data. Valid
  /// until the next write(); the send path seals the packet synchronously,
  /// so it never holds the view across a mutation.
  std::span<const std::uint8_t> view_range(std::uint64_t offset,
                                           std::size_t len) const;

  /// Records an acknowledged range; `fin` when the acked frame carried
  /// the stream's FIN.
  void on_range_acked(std::uint64_t begin, std::uint64_t end,
                      bool fin = false);
  bool range_acked(std::uint64_t begin, std::uint64_t end) const {
    return acked_.contains(begin, end);
  }

  /// Subranges of [begin, end) not yet acknowledged; what retransmission
  /// and re-injection actually need to duplicate.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> unacked_within(
      std::uint64_t begin, std::uint64_t end) const;

  std::uint64_t total_written() const { return buffer_.size(); }
  bool fin_written() const { return fin_written_; }
  std::uint64_t acked_bytes() const { return acked_.covered_bytes(); }

  /// All data acknowledged and the fin written (a fin-only stream counts
  /// as soon as the fin is written; loss recovery keys off this).
  bool fully_acked() const;

  /// Every byte and the FIN itself acknowledged: the peer holds the whole
  /// stream, so the connection retires it.
  bool delivered() const { return fin_acked_ && fully_acked(); }

  /// Largest MAX_STREAM_DATA the peer has sent (0 = none yet); the send
  /// limit is this or the peer's initial window, whichever is larger.
  std::uint64_t peer_max_data() const { return peer_max_data_; }
  void raise_peer_max_data(std::uint64_t limit) {
    if (limit > peer_max_data_) peer_max_data_ = limit;
  }

 private:
  StreamId id_;
  int priority_ = 0;
  std::vector<std::uint8_t> buffer_;
  bool fin_written_ = false;
  bool fin_acked_ = false;
  IntervalSet acked_;
  std::vector<FramePriorityRange> frame_priorities_;
  std::uint64_t peer_max_data_ = 0;
};

/// Receive side. Bytes live in fixed-size blocks drawn from the thread's
/// PacketBufferPool, one per kBlockBytes of stream offset from the block
/// holding the read offset up to the highest byte received; a block goes
/// back to the pool as soon as the read offset passes it, so memory follows
/// the flow-control window rather than the stream's length.
class RecvStream {
 public:
  /// Stream bytes per receive block: one pooled packet slot.
  static constexpr std::size_t kBlockBytes =
      net::PacketBufferPool::kSlotCapacity;

  explicit RecvStream(StreamId id) : id_(id) {}

  StreamId id() const { return id_; }

  /// Ingests a STREAM frame payload (borrowed from the receive buffer on
  /// the hot path). Duplicate/overlapping ranges are fine (re-injected
  /// packets arrive as duplicates by design).
  void on_data(std::uint64_t offset, std::span<const std::uint8_t> data,
               bool fin);
  void on_data(std::uint64_t offset, std::initializer_list<std::uint8_t> data,
               bool fin) {
    on_data(offset, std::span<const std::uint8_t>(data.begin(), data.size()),
            fin);
  }

  /// Contiguous bytes available past the read offset.
  std::uint64_t readable_bytes() const;

  /// Consumes up to out.size() readable bytes into `out`; returns how many.
  /// Blocks the read offset passes return to the pool.
  std::size_t read(std::span<std::uint8_t> out);

  /// Total contiguously received prefix length.
  std::uint64_t contiguous_received() const { return received_.next_gap(0); }

  std::uint64_t read_offset() const { return read_offset_; }
  std::optional<std::uint64_t> final_size() const { return final_size_; }

  /// Stream fully received and fully consumed.
  bool finished() const {
    return final_size_ && read_offset_ == *final_size_;
  }

  /// Fully received (regardless of how much the app has read).
  bool fully_received() const {
    return final_size_ && contiguous_received() >= *final_size_;
  }

  /// Bytes received more than once (redundancy accounting).
  std::uint64_t duplicate_bytes() const { return duplicate_bytes_; }

  /// Highest stream offset received (what connection flow control has
  /// charged for this stream).
  std::uint64_t received_high() const { return received_high_; }

  /// Flow-control limit granted to the peer on this stream; the connection
  /// sets the initial window and raises it as the application reads.
  std::uint64_t max_data() const { return max_data_; }
  void set_max_data(std::uint64_t limit) { max_data_ = limit; }

  /// Whether the connection has announced this stream fully received.
  bool finish_announced() const { return finish_announced_; }
  void mark_finish_announced() { finish_announced_ = true; }

  /// Caps reassembly fragmentation (hostile-peer hardening): whenever the
  /// tracked interval count exceeds `n`, the smallest gap is collapsed and
  /// its bytes read as phantom zeros (blocks start zero-filled) until -- if
  /// ever -- the real data arrives and overwrites them (on_data copies
  /// unconditionally). Only an adversarial spray reaches the cap;
  /// 0 = unlimited.
  void set_max_gaps(std::size_t n) { max_gaps_ = n; }
  std::uint64_t gap_collapses() const { return gap_collapses_; }
  std::uint64_t phantom_bytes() const { return phantom_bytes_; }
  std::size_t tracked_intervals() const { return received_.interval_count(); }

 private:
  /// The block holding stream offset `offset` (which must be buffered).
  std::uint8_t* block_at(std::uint64_t offset) {
    return blocks_[offset / kBlockBytes - first_block_].data();
  }

  StreamId id_;
  /// Blocks for offsets [first_block_ * kBlockBytes, ...): the front block
  /// holds the read offset.
  sim::RingQueue<net::PacketBuffer> blocks_;
  std::uint64_t first_block_ = 0;
  IntervalSet received_;
  std::uint64_t read_offset_ = 0;
  std::uint64_t received_high_ = 0;
  std::optional<std::uint64_t> final_size_;
  std::uint64_t duplicate_bytes_ = 0;
  std::size_t max_gaps_ = 0;
  std::uint64_t gap_collapses_ = 0;
  std::uint64_t phantom_bytes_ = 0;
  std::uint64_t max_data_ = 0;
  bool finish_announced_ = false;
};

}  // namespace xlink::quic
