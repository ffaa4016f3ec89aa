#include "http/media_server.h"

#include <algorithm>

namespace xlink::http {

MediaServer::MediaServer(quic::Connection& conn, Config config)
    : conn_(conn), config_(config) {
  conn_.on_stream_readable = [this](quic::StreamId id) { on_readable(id); };
}

void MediaServer::add_video(
    const std::string& name,
    std::shared_ptr<const video::VideoModel> model) {
  videos_[name] = std::move(model);
}

void MediaServer::on_readable(quic::StreamId id) {
  // A request is its whole stream. The read that reaches the FIN retires
  // the stream, so a request is complete exactly when its stream is gone,
  // and a late readable for a served request finds nothing to do.
  if (!conn_.recv_stream(id)) return;
  auto data = conn_.consume_stream(id, 4096);
  if (conn_.recv_stream(id)) {  // more bytes to come before the FIN
    if (!data.empty()) {
      auto& buf = partial_requests_[id];
      buf.insert(buf.end(), data.begin(), data.end());
    }
    return;
  }
  if (auto partial = partial_requests_.extract(id)) {
    partial.mapped().insert(partial.mapped().end(), data.begin(), data.end());
    data = std::move(partial.mapped());
  }
  if (const auto req = parse_request(data)) serve(id, *req);
}

void MediaServer::serve(quic::StreamId id, const RangeRequest& req) {
  auto vit = videos_.find(req.resource);
  if (vit == videos_.end()) {
    conn_.stream_send(id, {}, /*fin=*/true);  // empty body: not found
    return;
  }
  const video::VideoModel& model = *vit->second;
  const std::uint64_t begin = std::min(req.begin, model.total_bytes());
  const std::uint64_t end = std::min(req.end, model.total_bytes());

  std::vector<std::uint8_t> body(end - begin);
  model.fill(begin, body);

  ++requests_served_;
  bytes_served_ += body.size();

  // Earlier chunks (smaller stream ids) outrank later ones: the paper's
  // stream-priority rule for sequentially-played video portions.
  conn_.set_stream_priority(id, -static_cast<int>(id / 4));

  // First-video-frame acceleration: elevate the bytes of frame 0 if this
  // range covers any of them. Positions are stream offsets of the body.
  const std::uint64_t ff_end = model.first_frame_bytes();
  if (config_.first_frame_acceleration && begin < ff_end) {
    const std::uint64_t prioritized = std::min(end, ff_end) - begin;
    conn_.stream_send_prioritized(id, std::move(body), /*fin=*/true,
                                  kFirstFramePriority,
                                  /*position=*/0, /*size=*/prioritized);
  } else {
    conn_.stream_send(id, std::move(body), /*fin=*/true);
  }
}

}  // namespace xlink::http
