// Session: one complete video-over-multipath-QUIC run.
//
// Owns the event loop, the emulated network, both connection endpoints,
// the media server/client, the video player, and the QoE capture conduit.
// This is the unit every bench and the A/B driver build on.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/session.h"
#include "harness/endpoint.h"
#include "http/media_client.h"
#include "http/media_server.h"
#include "net/network.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_sink.h"
#include "video/player.h"
#include "video/qoe_capture.h"

namespace xlink::harness {

/// Per-session telemetry: when enabled, the Session owns one TraceSink
/// shared by both connection endpoints, the schedulers, and the player,
/// and (optionally) exports the trace as a qlog JSON file after run().
/// Tracing only reads simulator state, so enabling it does not perturb
/// any session outcome.
struct TraceConfig {
  bool enabled = false;
  std::size_t capacity = telemetry::TraceSink::kDefaultCapacity;
  /// When non-empty, Session::run() writes the qlog trace here.
  std::string qlog_path;
  /// Scenario label recorded in the qlog common_fields (e.g. bench name).
  std::string label;
};

struct SessionConfig {
  core::Scheme scheme = core::Scheme::kXlink;
  core::SchemeOptions options;
  /// Replaces the server-side packet scheduler (for comparing custom
  /// schedulers like ECF/BLEST outside the scheme catalogue).
  std::shared_ptr<quic::Scheduler> server_scheduler_override;
  std::vector<net::PathSpec> paths;  // candidate paths, any order
  video::VideoSpec video;
  http::MediaClient::Config client;
  http::MediaServer::Config server;
  sim::Duration time_limit = sim::seconds(120);
  /// Reorder candidate paths by the wireless-aware primary rank (§5.3).
  bool wireless_aware_primary = true;
  /// Attach a player (QoE metrics) or run as a plain download (Fig. 8).
  bool with_player = true;
  /// Extra delay before the client brings up secondary paths (models the
  /// radio/interface bring-up cost on phones).
  sim::Duration secondary_path_delay = 0;
  std::uint64_t seed = 1;
  TraceConfig trace;
};

/// The outcome of one session. Its integer counters live in `metrics`.
struct SessionResult {
  /// Completed chunks, then incomplete ones censored at the session's end.
  std::vector<double> chunk_rct_seconds;
  std::optional<double> first_frame_seconds;
  /// Time until playback started (startup buffer filled). Startup waiting
  /// is not a stall: it is excluded from rebuffer and play time.
  std::optional<double> startup_delay_seconds;
  double rebuffer_rate = 0.0;
  double rebuffer_seconds = 0.0;
  double play_seconds = 0.0;
  bool video_finished = false;
  bool download_finished = false;
  double download_seconds = 0.0;  // start -> last chunk (or censored)
  double redundancy_ratio = 0.0;
  // ABR (http/media_client + video/abr): zeros when ABR is off.
  bool abr_enabled = false;
  double abr_bitrate_utility = 0.0;  // frame-weighted chosen/top, [0,1]
  /// Per network path: bytes the server pushed down it.
  std::vector<std::uint64_t> path_down_bytes;
  /// Per network path: droptail high-water mark of the downlink queue --
  /// the congestion a paced sender avoids building (CC ablation bench).
  std::vector<std::uint64_t> path_peak_queue_bytes;
  /// Structured per-session metrics (counters/gauges/histograms), filled
  /// by Session::fill_metrics and deterministic for a fixed seed: the only
  /// home of counters such as "session.rebuffers" or
  /// "quic.server.reinjected_bytes". Day-level aggregation merges these in
  /// session-index order (see harness/parallel.h).
  telemetry::MetricsRegistry metrics;
};

class Session {
 public:
  explicit Session(SessionConfig config);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Runs to completion (download + playback) or the time limit.
  SessionResult run();

  /// Optional periodic observer for time-series benches (Fig. 1, Fig. 6);
  /// set before run().
  std::function<void(Session&)> on_sample;
  sim::Duration sample_period = sim::millis(50);

  // Accessors for observers.
  sim::EventLoop& loop() { return loop_; }
  net::Network& network() { return *network_; }
  quic::Connection& client_conn() { return *client_conn_; }
  quic::Connection& server_conn() { return *server_conn_; }
  video::VideoPlayer* player() { return player_.get(); }
  http::MediaClient& media_client() { return *media_client_; }
  const video::VideoModel& video_model() const { return *video_model_; }
  /// The session's configuration; its `paths` moved into network().
  const SessionConfig& config() const { return config_; }
  /// The session's trace sink; nullptr unless config.trace.enabled.
  telemetry::TraceSink* trace_sink() { return trace_.get(); }

 private:
  void open_secondary_paths();
  void cm_probe();
  void sample_tick();
  bool finished() const;
  /// Writes every session counter into result.metrics; a new counter is
  /// one add_counter line here.
  void fill_metrics(SessionResult& result) const;

  SessionConfig config_;
  sim::EventLoop loop_;
  // Declared before the connections/player so the sink outlives everything
  // that holds a raw pointer to it.
  std::unique_ptr<telemetry::TraceSink> trace_;
  std::unique_ptr<net::Network> network_;
  std::shared_ptr<video::VideoModel> video_model_;
  std::shared_ptr<const video::RenditionSet> renditions_;  // ABR only
  std::unique_ptr<quic::Connection> client_conn_;
  std::unique_ptr<quic::Connection> server_conn_;
  std::unique_ptr<Endpoint> client_ep_;
  std::unique_ptr<Endpoint> server_ep_;
  std::unique_ptr<http::MediaServer> media_server_;
  std::unique_ptr<http::MediaClient> media_client_;
  std::unique_ptr<video::VideoPlayer> player_;
  std::unique_ptr<video::QoeCapture> qoe_capture_;

  std::size_t paths_opened_ = 1;
  // CM policy state.
  std::uint64_t cm_last_rx_packets_ = 0;
  sim::Time cm_last_progress_ = 0;
  std::size_t cm_current_path_ = 0;
};

/// Convenience: builds a PathSpec for a technology with a trace and an RTT
/// drawn from the technology's distribution.
net::PathSpec make_path_spec(net::Wireless tech, trace::LinkTrace down_trace,
                             sim::Duration rtt, double loss_rate = 0.0);

}  // namespace xlink::harness
