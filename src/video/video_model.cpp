#include "video/video_model.h"

#include <algorithm>

#include "sim/bytes.h"
#include "sim/rng.h"

namespace xlink::video {

VideoModel::VideoModel(VideoSpec spec) : spec_(spec) {
  const std::uint64_t frames = std::max<std::uint64_t>(
      1, spec_.duration * spec_.fps / sim::kSecond);
  const double avg_frame_bytes =
      static_cast<double>(spec_.bitrate_bps) / 8.0 / spec_.fps;
  std::uint64_t first = spec_.first_frame_bytes;
  if (first == 0)
    first = static_cast<std::uint64_t>(avg_frame_bytes * 12.0);

  sim::Rng rng(spec_.seed);
  frame_offsets_.reserve(frames + 1);
  frame_offsets_.push_back(0);
  frame_offsets_.push_back(first);
  for (std::uint64_t i = 1; i < frames; ++i) {
    // P-frames: deterministic +-35% variation around the residual average
    // so the whole video still averages to bitrate_bps.
    const double scale = 0.65 + 0.7 * rng.uniform_double();
    const auto size = static_cast<std::uint64_t>(
        std::max(64.0, avg_frame_bytes * scale));
    frame_offsets_.push_back(frame_offsets_.back() + size);
  }
}

std::uint32_t VideoModel::frames_in_prefix(std::uint64_t bytes) const {
  // First index whose end-offset exceeds `bytes`.
  const auto it =
      std::upper_bound(frame_offsets_.begin() + 1, frame_offsets_.end(), bytes);
  return static_cast<std::uint32_t>(it - (frame_offsets_.begin() + 1));
}

namespace {

/// Content word `index` (bytes 8*index .. 8*index + 7) of a video.
std::uint64_t content_word(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t x = index ^ (seed * 0x9e3779b97f4a7c15ULL);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

std::uint8_t VideoModel::byte_at(std::uint64_t offset) const {
  return static_cast<std::uint8_t>(content_word(spec_.seed, offset / 8) >>
                                   (8 * (offset % 8)));
}

void VideoModel::fill(std::uint64_t offset, std::span<std::uint8_t> out) const {
  std::size_t i = 0;
  // Head: up to the first word boundary.
  for (; i < out.size() && (offset + i) % 8 != 0; ++i)
    out[i] = byte_at(offset + i);
  for (; i + 8 <= out.size(); i += 8)
    sim::store_le64(out.data() + i, content_word(spec_.seed, (offset + i) / 8));
  for (; i < out.size(); ++i) out[i] = byte_at(offset + i);
}

BitrateLadder BitrateLadder::scaled(std::uint64_t top_bps) {
  BitrateLadder ladder;
  ladder.bitrates_bps = {top_bps / 4, top_bps / 2, top_bps * 3 / 4, top_bps};
  return ladder;
}

std::size_t BitrateLadder::rung_for_rate(double budget_bps) const {
  std::size_t best = 0;
  for (std::size_t r = 1; r < bitrates_bps.size(); ++r) {
    if (static_cast<double>(bitrates_bps[r]) <= budget_bps) best = r;
  }
  return best;
}

RenditionSet::RenditionSet(const VideoSpec& top_spec, BitrateLadder ladder)
    : ladder_(std::move(ladder)) {
  if (ladder_.bitrates_bps.empty())
    ladder_ = BitrateLadder::scaled(top_spec.bitrate_bps);
  const std::uint64_t top_bps = ladder_.bitrates_bps.back();
  models_.reserve(ladder_.rungs());
  for (std::uint64_t bps : ladder_.bitrates_bps) {
    VideoSpec spec = top_spec;
    spec.bitrate_bps = bps;
    // Scale an explicit I-frame size with the rung; 0 keeps the 12x-average
    // derivation, which already scales.
    if (top_spec.first_frame_bytes != 0 && top_bps != 0)
      spec.first_frame_bytes = top_spec.first_frame_bytes * bps / top_bps;
    models_.push_back(std::make_shared<const VideoModel>(spec));
  }
}

std::string rendition_resource(const std::string& base, std::size_t rung,
                               std::size_t top_rung) {
  if (rung >= top_rung) return base;
  return base + "@" + std::to_string(rung);
}

ChunkPlan ChunkPlan::fixed_size(std::uint64_t total_bytes,
                                std::uint64_t chunk_bytes) {
  ChunkPlan plan;
  for (std::uint64_t begin = 0; begin < total_bytes; begin += chunk_bytes) {
    plan.chunks.push_back({begin, std::min(begin + chunk_bytes, total_bytes)});
  }
  if (plan.chunks.empty()) plan.chunks.push_back({0, 0});
  return plan;
}

}  // namespace xlink::video
