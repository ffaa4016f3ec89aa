// Media client: the MediaCacheService role of Fig. 5.
//
// Downloads a video as a sequence of HTTP range requests, one QUIC stream
// per chunk, keeping a configurable number of chunk requests in flight
// (the paper: "the video player may simultaneously request multiple
// streams, with each downloading a small portion of the video"). Reports
// contiguous progress to the VideoPlayer and records per-chunk request
// completion times -- the paper's headline RCT metric.
//
// A completed-chunk cursor remembers how many leading chunks are done, so
// progress walks cost O(chunks in flight), and the client tracks its own
// read offsets: it never asks the transport about a stream it has read
// through (the connection has retired it).
//
// With an ABR algorithm configured, chunks are frame-aligned and each
// chunk's rendition is chosen by an AbrController at issue time: the
// range request targets that rendition's resource and byte range, and
// progress is published to the player as whole frames (the only unit that
// is comparable across renditions).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "quic/connection.h"
#include "telemetry/trace_sink.h"
#include "video/abr.h"
#include "video/player.h"
#include "video/video_model.h"

namespace xlink::http {

class MediaClient {
 public:
  struct Config {
    std::string resource = "video";
    std::uint64_t chunk_bytes = 512 * 1024;
    int max_concurrent = 2;  // concurrent chunk streams (pre-fetch)
    bool verify_content = false;
    /// Anything but kFixed switches the client to frame-aligned chunks
    /// (video::kAbrChunkFrames each) with per-chunk rendition selection.
    video::AbrAlgorithm abr = video::AbrAlgorithm::kFixed;
  };

  struct ChunkMetrics {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    sim::Time issued_at = 0;
    std::optional<sim::Time> completed_at;

    std::optional<sim::Duration> completion_time() const {
      if (!completed_at) return std::nullopt;
      return *completed_at - issued_at;
    }
  };

  /// Aggregate ABR behaviour of this download (zeros when ABR is off).
  struct AbrSummary {
    std::uint64_t decisions = 0;
    std::uint64_t switches = 0;
    std::uint64_t switch_magnitude = 0;  // sum |rung delta|
    /// Frame-weighted chosen bitrate over the top-rung bitrate, in [0,1];
    /// counts issued chunks only.
    double bitrate_utility = 0.0;
  };

  /// `renditions` is required when ABR is on; its top rung must match
  /// `model`'s spec. The fixed-bitrate path ignores it.
  MediaClient(quic::Connection& conn, const video::VideoModel& model,
              Config config,
              std::shared_ptr<const video::RenditionSet> renditions = nullptr);

  /// Attaches a player fed with contiguous download progress.
  void set_player(video::VideoPlayer* player) { player_ = player; }

  /// Latest QoE feedback signal for the hybrid controller (the same
  /// conduit the XLINK scheduler reads).
  void set_qoe_source(
      std::function<std::optional<quic::QoeSignal>()> source) {
    qoe_source_ = std::move(source);
  }
  /// Transport bottleneck-bandwidth estimate in bits/s (delivery-rate
  /// btlbw); 0 = none yet.
  void set_btlbw_source(std::function<std::uint64_t()> source) {
    btlbw_source_ = std::move(source);
  }

  /// Session telemetry sink (abr:decision events, Origin::kSession).
  void set_trace(telemetry::TraceSink* sink) { trace_ = sink; }

  /// Issues the first window of chunk requests (call once established).
  void start();

  bool all_done() const {
    return started_ && completed_ == chunk_count();
  }
  std::function<void()> on_all_done;

  /// Time the last chunk completed (wall clock of the whole download).
  std::optional<sim::Time> all_done_at() const { return all_done_at_; }

  std::size_t chunk_count() const {
    return abr_ ? abr_chunks_.size() : plan_.chunks.size();
  }
  const std::vector<ChunkMetrics>& chunk_metrics() const { return metrics_; }
  /// Completion times of finished chunks, in seconds.
  std::vector<double> completion_times_seconds() const;
  /// Total contiguous bytes downloaded from the start of the video.
  std::uint64_t contiguous_bytes() const;
  std::uint64_t content_mismatches() const { return content_mismatches_; }

  bool abr_enabled() const { return abr_ != nullptr; }
  AbrSummary abr_summary() const;

 private:
  struct AbrChunk {
    std::uint32_t begin_frame = 0;
    std::uint32_t end_frame = 0;  // half-open
    std::size_t rung = 0;         // filled at issue time
  };

  void issue_next();
  void issue_abr_chunk(std::size_t index);
  void on_readable(quic::StreamId id);
  void on_finished_stream(quic::StreamId id);
  void publish_progress();
  /// Moves the completed-chunk cursor past every leading chunk that is
  /// read through and recorded complete.
  void advance_done();
  /// The chunk of a stream that may still see callbacks (at or past the
  /// cursor).
  std::optional<std::size_t> chunk_of_stream(quic::StreamId id) const;
  std::uint64_t chunk_bytes(std::size_t chunk) const {
    return metrics_[chunk].end - metrics_[chunk].begin;
  }
  std::uint64_t chunk_have_bytes(std::size_t chunk) const;
  /// First issued ABR chunk that ends past `frame` (the playhead's chunk,
  /// or the issued count when every issued chunk ends at or before it).
  std::size_t abr_chunk_after(std::uint32_t frame) const;
  /// Whole frames contiguously playable from the start (ABR mode).
  std::uint32_t abr_frames_contiguous() const;
  /// Buffered bytes past `playhead_frame` (actual mixed-rendition bytes).
  std::uint64_t abr_bytes_ahead(std::uint32_t playhead_frame) const;
  /// Bitrate of the rendition under the playhead (QoE snapshot bps).
  std::uint64_t abr_playhead_bps(std::uint32_t playhead_frame) const;

  quic::Connection& conn_;
  const video::VideoModel& model_;
  Config config_;
  video::VideoPlayer* player_ = nullptr;
  std::function<std::optional<quic::QoeSignal>()> qoe_source_;
  std::function<std::uint64_t()> btlbw_source_;
  telemetry::TraceSink* trace_ = nullptr;

  video::ChunkPlan plan_;  // fixed-bitrate mode only
  // ABR mode.
  std::shared_ptr<const video::RenditionSet> renditions_;
  std::unique_ptr<video::AbrController> abr_;
  std::vector<AbrChunk> abr_chunks_;
  std::uint64_t chosen_bitrate_frames_ = 0;  // sum bitrate(rung) * frames
  std::uint64_t top_bitrate_frames_ = 0;     // sum bitrate(top)  * frames

  /// Per issued chunk: its stream, the bytes read from it, and the total
  /// length of the chunks issued before it.
  struct IssuedChunk {
    quic::StreamId stream = 0;
    std::uint64_t read = 0;
    std::uint64_t bytes_before = 0;
  };
  std::vector<IssuedChunk> issued_;
  std::uint64_t issued_bytes_ = 0;  // total length of the issued chunks
  std::vector<ChunkMetrics> metrics_;
  // Completed-chunk cursor: the leading chunks read through and recorded
  // complete (no callback can follow for them), their byte total, and the
  // whole frames they hold (ABR mode).
  std::size_t done_ = 0;
  std::uint64_t done_bytes_ = 0;
  std::uint32_t done_frames_ = 0;
  std::size_t next_chunk_ = 0;
  std::size_t completed_ = 0;
  std::optional<sim::Time> all_done_at_;
  std::uint64_t content_mismatches_ = 0;
  std::vector<std::uint8_t> content_scratch_;  // expected bytes (verify)
  bool started_ = false;
};

}  // namespace xlink::http
