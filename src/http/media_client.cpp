#include "http/media_client.h"

#include <algorithm>

#include "http/range_protocol.h"

namespace xlink::http {

MediaClient::MediaClient(quic::Connection& conn,
                         const video::VideoModel& model, Config config,
                         std::shared_ptr<const video::RenditionSet> renditions)
    : conn_(conn),
      model_(model),
      config_(std::move(config)),
      renditions_(std::move(renditions)) {
  if (config_.abr != video::AbrAlgorithm::kFixed) {
    abr_ = video::make_abr_controller(config_.abr, renditions_->ladder());
    // Frame-aligned chunks: one rendition decision per kAbrChunkFrames.
    const std::uint32_t frames = model_.frame_count();
    const std::uint32_t per = video::kAbrChunkFrames;
    for (std::uint32_t begin = 0; begin < frames; begin += per) {
      AbrChunk ck;
      ck.begin_frame = begin;
      ck.end_frame = std::min(begin + per, frames);
      abr_chunks_.push_back(ck);
    }
    if (abr_chunks_.empty()) abr_chunks_.push_back({0, 0, 0});
  } else {
    plan_ = video::ChunkPlan::fixed_size(model_.total_bytes(),
                                         config_.chunk_bytes);
  }
  conn_.on_stream_readable = [this](quic::StreamId id) { on_readable(id); };
  conn_.on_stream_data_finished = [this](quic::StreamId id) {
    on_finished_stream(id);
  };
}

void MediaClient::start() {
  if (started_) return;
  started_ = true;
  issue_next();
}

void MediaClient::issue_abr_chunk(std::size_t index) {
  AbrChunk& ck = abr_chunks_[index];
  video::AbrInputs in;
  in.chunk_index = index;
  if (player_) in.buffer_level = player_->buffer_level();
  if (qoe_source_) in.qoe = qoe_source_();
  if (btlbw_source_) in.btlbw_bps = btlbw_source_();
  const auto prev = abr_->last_rung();
  const video::AbrDecision d = abr_->choose(in);
  ck.rung = d.rung;
  XLINK_TRACE(trace_,
              telemetry::Event::abr_decision(
                  conn_.loop().now(), index, d.rung,
                  prev ? static_cast<std::uint64_t>(*prev)
                       : telemetry::kNoValue,
                  d.estimate_bps != 0 ? d.estimate_bps : telemetry::kNoValue,
                  static_cast<std::uint64_t>(
                      sim::to_millis(in.buffer_level))));

  const std::uint32_t frames = ck.end_frame - ck.begin_frame;
  const std::uint64_t ladder_bps = renditions_->ladder().bitrate(d.rung);
  chosen_bitrate_frames_ += ladder_bps * frames;
  top_bitrate_frames_ +=
      renditions_->ladder().bitrate(renditions_->top_rung()) * frames;

  const video::VideoModel& m = *renditions_->model(d.rung);
  ChunkMetrics met;
  met.begin = m.frame_offset(ck.begin_frame);
  met.end = m.frame_offset(ck.end_frame);
  met.issued_at = conn_.loop().now();

  const quic::StreamId id = conn_.open_stream();
  conn_.set_stream_priority(id, -static_cast<int>(index));
  issued_.push_back({id, 0, issued_bytes_});
  issued_bytes_ += met.end - met.begin;
  metrics_.push_back(met);

  RangeRequest req;
  req.resource = video::rendition_resource(config_.resource, d.rung,
                                           renditions_->top_rung());
  req.begin = met.begin;
  req.end = met.end;
  conn_.stream_send(id, encode_request(req), /*fin=*/true);
}

void MediaClient::issue_next() {
  while (next_chunk_ < chunk_count() &&
         next_chunk_ - completed_ <
             static_cast<std::size_t>(config_.max_concurrent)) {
    if (abr_) {
      issue_abr_chunk(next_chunk_);
      ++next_chunk_;
      continue;
    }
    const auto& chunk = plan_.chunks[next_chunk_];
    const quic::StreamId id = conn_.open_stream();
    // Earlier chunks play first: higher stream priority on our requests
    // (the server applies the same rule to its response data).
    conn_.set_stream_priority(id, -static_cast<int>(next_chunk_));
    issued_.push_back({id, 0, issued_bytes_});
    issued_bytes_ += chunk.end - chunk.begin;
    ChunkMetrics m;
    m.begin = chunk.begin;
    m.end = chunk.end;
    m.issued_at = conn_.loop().now();
    metrics_.push_back(m);

    RangeRequest req;
    req.resource = config_.resource;
    req.begin = chunk.begin;
    req.end = chunk.end;
    conn_.stream_send(id, encode_request(req), /*fin=*/true);
    ++next_chunk_;
  }
}

std::optional<std::size_t> MediaClient::chunk_of_stream(
    quic::StreamId id) const {
  for (std::size_t i = done_; i < issued_.size(); ++i)
    if (issued_[i].stream == id) return i;
  return std::nullopt;
}

void MediaClient::on_readable(quic::StreamId id) {
  const auto chunk = chunk_of_stream(id);
  if (!chunk) return;
  // Drain (updates flow control). The read that reaches the chunk's end
  // also reaches the FIN, which retires the stream: stop there.
  IssuedChunk& ck = issued_[*chunk];
  while (ck.read < chunk_bytes(*chunk)) {
    auto data = conn_.consume_stream(id, 64 * 1024);
    if (data.empty()) break;
    if (config_.verify_content) {
      // Content bytes depend only on offset and seed, which all
      // renditions share, so model_ verifies any rendition.
      content_scratch_.resize(data.size());
      model_.fill(metrics_[*chunk].begin + ck.read, content_scratch_);
      if (data != content_scratch_) {
        for (std::size_t i = 0; i < data.size(); ++i)
          content_mismatches_ += data[i] != content_scratch_[i];
      }
    }
    ck.read += data.size();
  }
  advance_done();
  publish_progress();
}

void MediaClient::on_finished_stream(quic::StreamId id) {
  const auto chunk = chunk_of_stream(id);
  if (!chunk) return;
  auto& m = metrics_[*chunk];
  if (m.completed_at) return;
  m.completed_at = conn_.loop().now();
  ++completed_;
  if (abr_) abr_->on_chunk_downloaded(m.end - m.begin, *m.completed_at -
                                                           m.issued_at);
  advance_done();
  publish_progress();
  issue_next();
  if (all_done()) {
    all_done_at_ = conn_.loop().now();
    if (on_all_done) on_all_done();
  }
}

void MediaClient::advance_done() {
  for (; done_ < issued_.size(); ++done_) {
    const ChunkMetrics& m = metrics_[done_];
    if (!m.completed_at || issued_[done_].read < chunk_bytes(done_)) return;
    done_bytes_ += chunk_bytes(done_);
    if (abr_) {
      const AbrChunk& ck = abr_chunks_[done_];
      const video::VideoModel& model = *renditions_->model(ck.rung);
      done_frames_ = std::max(
          done_frames_, std::min(model.frames_in_prefix(m.end), ck.end_frame));
    }
  }
}

std::uint64_t MediaClient::chunk_have_bytes(std::size_t chunk) const {
  const IssuedChunk& ck = issued_[chunk];
  const std::uint64_t len = chunk_bytes(chunk);
  if (ck.read >= len) return len;  // read through: the stream has retired
  // Not opened yet (nothing received), or retired short of the requested
  // length: what the client read is all the stream ever held.
  const auto* stream = conn_.recv_stream(ck.stream);
  return std::min(stream ? stream->contiguous_received() : ck.read, len);
}

std::uint64_t MediaClient::contiguous_bytes() const {
  std::uint64_t total = done_bytes_;
  for (std::size_t i = done_; i < issued_.size(); ++i) {
    const std::uint64_t have = chunk_have_bytes(i);
    total += have;
    if (have < chunk_bytes(i)) break;  // gap: later chunks are not contiguous
  }
  return total;
}

std::uint32_t MediaClient::abr_frames_contiguous() const {
  std::uint32_t frames = done_frames_;
  for (std::size_t i = done_; i < issued_.size(); ++i) {
    const AbrChunk& ck = abr_chunks_[i];
    const std::uint64_t have = chunk_have_bytes(i);
    // frames_in_prefix over this rendition's byte space: offsets below
    // metrics_[i].begin == frame_offset(begin_frame) count the chunk's
    // predecessors "for free", so the result is an absolute frame count.
    const video::VideoModel& m = *renditions_->model(ck.rung);
    const std::uint32_t in_prefix =
        m.frames_in_prefix(metrics_[i].begin + have);
    frames = std::max(frames, std::min(in_prefix, ck.end_frame));
    if (have < chunk_bytes(i)) break;  // gap
  }
  return frames;
}

std::size_t MediaClient::abr_chunk_after(std::uint32_t frame) const {
  const auto issued_end =
      abr_chunks_.begin() + static_cast<std::ptrdiff_t>(issued_.size());
  return static_cast<std::size_t>(
      std::partition_point(abr_chunks_.begin(), issued_end,
                           [frame](const AbrChunk& ck) {
                             return ck.end_frame <= frame;
                           }) -
      abr_chunks_.begin());
}

std::uint64_t MediaClient::abr_bytes_ahead(
    std::uint32_t playhead_frame) const {
  const std::uint64_t total = contiguous_bytes();
  // Played-past chunks count whole; the playhead's own chunk counts up to
  // the playhead in its rendition's byte space.
  const std::size_t i = abr_chunk_after(playhead_frame);
  std::uint64_t consumed = issued_bytes_;
  if (i < issued_.size()) {
    consumed = issued_[i].bytes_before;
    const AbrChunk& ck = abr_chunks_[i];
    if (ck.begin_frame < playhead_frame) {
      const video::VideoModel& m = *renditions_->model(ck.rung);
      consumed += m.frame_offset(playhead_frame) - metrics_[i].begin;
    }
  }
  return total > consumed ? total - consumed : 0;
}

std::uint64_t MediaClient::abr_playhead_bps(
    std::uint32_t playhead_frame) const {
  const std::size_t i = abr_chunk_after(playhead_frame);
  if (i < issued_.size() && abr_chunks_[i].begin_frame <= playhead_frame)
    return renditions_->ladder().bitrate(abr_chunks_[i].rung);
  return 0;  // playhead past the issued chunks; player keeps its last bps
}

void MediaClient::publish_progress() {
  if (!player_) return;
  if (abr_) {
    const std::uint32_t playhead = player_->frames_played();
    const std::uint32_t avail = abr_frames_contiguous();
    player_->on_abr_progress(avail, abr_bytes_ahead(playhead),
                             abr_playhead_bps(playhead));
    return;
  }
  player_->on_contiguous_bytes(contiguous_bytes());
}

MediaClient::AbrSummary MediaClient::abr_summary() const {
  AbrSummary s;
  if (!abr_) return s;
  s.decisions = abr_->decisions();
  s.switches = abr_->switches();
  s.switch_magnitude = abr_->switch_magnitude();
  s.bitrate_utility =
      top_bitrate_frames_ > 0
          ? static_cast<double>(chosen_bitrate_frames_) /
                static_cast<double>(top_bitrate_frames_)
          : 0.0;
  return s;
}

std::vector<double> MediaClient::completion_times_seconds() const {
  std::vector<double> out;
  for (const auto& m : metrics_) {
    if (const auto t = m.completion_time())
      out.push_back(sim::to_seconds(*t));
  }
  return out;
}

}  // namespace xlink::http
