// Media server: serves video byte ranges over QUIC streams.
//
// The edge-server role of Fig. 2. Understands the videos it hosts well
// enough to express first-video-frame priority to the transport through
// the stream_send API (paper §5.1): if a requested range overlaps the
// first video frame, those bytes are marked with elevated video-frame
// priority so XLINK's re-injection can accelerate them.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "quic/connection.h"
#include "http/range_protocol.h"
#include "video/video_model.h"

namespace xlink::http {

class MediaServer {
 public:
  struct Config {
    /// Express first-video-frame priority to the transport (Fig. 12's
    /// toggle: off reproduces "XLINK w/o first-frame acceleration").
    bool first_frame_acceleration = true;
  };

  /// Video-frame priority of the first frame's bytes under first-frame
  /// acceleration; every other byte keeps the default priority 0.
  static constexpr int kFirstFramePriority = 1;

  MediaServer(quic::Connection& conn, Config config);

  void add_video(const std::string& name,
                 std::shared_ptr<const video::VideoModel> model);

  std::uint64_t requests_served() const { return requests_served_; }
  std::uint64_t bytes_served() const { return bytes_served_; }

 private:
  void on_readable(quic::StreamId id);
  void serve(quic::StreamId id, const RangeRequest& req);

  quic::Connection& conn_;
  Config config_;
  std::map<std::string, std::shared_ptr<const video::VideoModel>> videos_;
  /// Request bytes of streams whose FIN has not been read yet.
  std::map<quic::StreamId, std::vector<std::uint8_t>> partial_requests_;
  std::uint64_t requests_served_ = 0;
  std::uint64_t bytes_served_ = 0;
};

}  // namespace xlink::http
