// Deterministic short-video model.
//
// A video is a sequence of frames at a fixed fps. Frame 0 (the first video
// frame, an I-frame) is much larger than the rest; the paper's
// first-video-frame acceleration exists because delivering exactly these
// bytes gates start-up. Frame sizes vary deterministically around the
// target bitrate so the byte<->frame mapping is reproducible everywhere
// (server, client, tests) without shipping content.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/time.h"

namespace xlink::video {

struct VideoSpec {
  sim::Duration duration = sim::seconds(15);
  std::uint32_t fps = 30;
  std::uint64_t bitrate_bps = 2'000'000;
  /// Size of the first video frame (I-frame). 0 = derive as 12x average.
  std::uint64_t first_frame_bytes = 0;
  /// Seed for the deterministic frame-size variation.
  std::uint64_t seed = 1;
};

class VideoModel {
 public:
  explicit VideoModel(VideoSpec spec);

  const VideoSpec& spec() const { return spec_; }
  std::uint32_t frame_count() const {
    return static_cast<std::uint32_t>(frame_offsets_.size() - 1);
  }
  std::uint64_t total_bytes() const { return frame_offsets_.back(); }
  std::uint64_t first_frame_bytes() const { return frame_offsets_[1]; }

  std::uint64_t frame_offset(std::uint32_t i) const {
    return frame_offsets_[i];
  }
  std::uint64_t frame_size(std::uint32_t i) const {
    return frame_offsets_[i + 1] - frame_offsets_[i];
  }

  /// Number of whole frames contained in the contiguous byte prefix.
  std::uint32_t frames_in_prefix(std::uint64_t bytes) const;

  /// Deterministic content byte at `offset`. Content is defined per 8-byte
  /// word: word k is a hash of k and the seed, and byte `offset` is byte
  /// offset % 8 of word offset / 8 (bits 8j..8j+7 hold byte j).
  std::uint8_t byte_at(std::uint64_t offset) const;

  /// Writes content bytes [offset, offset + out.size()) into `out`, a word
  /// at a time; equal to byte_at for every byte (server fill / client
  /// check).
  void fill(std::uint64_t offset, std::span<std::uint8_t> out) const;

  /// Play duration of one frame.
  sim::Duration frame_interval() const {
    return sim::kSecond / spec_.fps;
  }

 private:
  VideoSpec spec_;
  std::vector<std::uint64_t> frame_offsets_;  // size frame_count()+1
};

/// An ascending bitrate ladder. Rung 0 is the lowest rendition; the top
/// rung is the native (drawn) bitrate of the session's video.
struct BitrateLadder {
  std::vector<std::uint64_t> bitrates_bps;  // ascending

  /// The default four-rung ladder: 25/50/75/100% of the native bitrate.
  static BitrateLadder scaled(std::uint64_t top_bps);

  std::size_t rungs() const { return bitrates_bps.size(); }
  std::size_t top_rung() const {
    return bitrates_bps.empty() ? 0 : bitrates_bps.size() - 1;
  }
  std::uint64_t bitrate(std::size_t rung) const {
    return bitrates_bps.empty()
               ? 0
               : bitrates_bps[rung < bitrates_bps.size() ? rung
                                                         : top_rung()];
  }
  /// Highest rung whose bitrate fits within `budget_bps`; rung 0 when even
  /// the lowest rendition does not fit (the client has to fetch something).
  std::size_t rung_for_rate(double budget_bps) const;
};

/// The same video encoded at every rung of a ladder. All renditions share
/// the source's duration, fps, and seed, so they share one frame grid:
/// frame k of rung r covers the same play time as frame k of any other
/// rung, only the byte sizes differ. That is what lets an ABR client
/// splice chunks from different renditions into one playable timeline.
class RenditionSet {
 public:
  /// `top_spec` describes the native rendition (the ladder's top rung).
  RenditionSet(const VideoSpec& top_spec, BitrateLadder ladder);

  const BitrateLadder& ladder() const { return ladder_; }
  std::size_t rungs() const { return models_.size(); }
  std::size_t top_rung() const { return models_.size() - 1; }
  const std::shared_ptr<const VideoModel>& model(std::size_t rung) const {
    return models_[rung < models_.size() ? rung : top_rung()];
  }

 private:
  BitrateLadder ladder_;
  std::vector<std::shared_ptr<const VideoModel>> models_;
};

/// Resource name a rendition is served under ("video" -> "video@2" for
/// rung 2). The top rung keeps the base name so fixed-bitrate clients and
/// ABR clients fetching the native rendition hit the same resource.
std::string rendition_resource(const std::string& base, std::size_t rung,
                               std::size_t top_rung);

/// Splits [0, total) into fixed-size chunks (last one short). The media
/// client requests one chunk per QUIC stream.
struct ChunkPlan {
  struct Chunk {
    std::uint64_t begin;
    std::uint64_t end;  // half-open
  };
  std::vector<Chunk> chunks;

  static ChunkPlan fixed_size(std::uint64_t total_bytes,
                              std::uint64_t chunk_bytes);
};

}  // namespace xlink::video
