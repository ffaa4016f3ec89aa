#include "harness/scenario.h"

#include <algorithm>

#include "core/primary_path.h"
#include "telemetry/qlog.h"

namespace xlink::harness {

// Player sampling period of the QoE capture, and the connection-migration
// baseline's policy: migrate after kCmStallThreshold without download
// progress, checked every kCmProbeInterval.
constexpr sim::Duration kQoePeriod = sim::millis(100);
constexpr sim::Duration kCmStallThreshold = sim::millis(600);
constexpr sim::Duration kCmProbeInterval = sim::millis(100);

net::PathSpec make_path_spec(net::Wireless tech, trace::LinkTrace down_trace,
                             sim::Duration rtt, double loss_rate) {
  net::PathSpec spec;
  spec.tech = tech;
  spec.down_trace = std::move(down_trace);
  spec.one_way_delay = rtt / 2;
  spec.loss_rate = loss_rate;
  // Uplink (requests + acks) is rarely the bottleneck: fixed 20 Mbps.
  spec.fixed_rate_mbps = 20.0;
  return spec;
}

Session::Session(SessionConfig config) : config_(std::move(config)) {
  if (config_.trace.enabled) {
    trace_ = std::make_unique<telemetry::TraceSink>(config_.trace.capacity);
    trace_->set_enabled(true);
  }
  sim::Rng rng(config_.seed);
  network_ = std::make_unique<net::Network>(loop_, rng.fork());
  network_->set_trace(trace_.get());

  // Wireless-aware primary path selection: path 0 starts the connection.
  // The specs (and their multi-megabyte traces) move into the network.
  std::vector<net::PathSpec> ordered = std::move(config_.paths);
  config_.paths.clear();
  if (config_.wireless_aware_primary && ordered.size() > 1) {
    std::vector<net::Wireless> techs;
    techs.reserve(ordered.size());
    for (const auto& p : ordered) techs.push_back(p.tech);
    std::vector<net::PathSpec> re;
    re.reserve(ordered.size());
    for (std::size_t idx : core::rank_paths(techs))
      re.push_back(std::move(ordered[idx]));
    ordered = std::move(re);
  }
  for (auto& spec : ordered) network_->add_path(std::move(spec));

  video_model_ = std::make_shared<video::VideoModel>(config_.video);

  auto client_cfg = core::make_scheme_config(config_.scheme,
                                             quic::Role::kClient,
                                             config_.options);
  client_cfg.trace = trace_.get();
  client_conn_ = std::make_unique<quic::Connection>(loop_,
                                                    std::move(client_cfg));
  auto server_cfg = core::make_scheme_config(config_.scheme,
                                             quic::Role::kServer,
                                             config_.options);
  if (config_.server_scheduler_override)
    server_cfg.scheduler = config_.server_scheduler_override;
  server_cfg.trace = trace_.get();
  server_conn_ = std::make_unique<quic::Connection>(loop_,
                                                    std::move(server_cfg));

  client_ep_ = std::make_unique<Endpoint>(*network_, *client_conn_,
                                          Endpoint::Side::kClient);
  server_ep_ = std::make_unique<Endpoint>(*network_, *server_conn_,
                                          Endpoint::Side::kServer);
  client_ep_->set_trace(trace_.get());
  server_ep_->set_trace(trace_.get());
  client_ep_->bind_all();
  server_ep_->bind_all();

  // NAT rebind faults invalidate the client's 4-tuple: the client must
  // re-validate the path (RFC 9000 §9.3) when the injector fires one.
  for (std::size_t i = 0; i < network_->path_count(); ++i) {
    if (auto* f = network_->path(i).faults()) {
      f->on_nat_rebind = [this, i] {
        client_conn_->rebind_path(static_cast<quic::PathId>(i));
      };
    }
  }

  media_server_ = std::make_unique<http::MediaServer>(*server_conn_,
                                                      config_.server);
  media_server_->add_video(config_.client.resource, video_model_);

  if (config_.client.abr != video::AbrAlgorithm::kFixed) {
    // One RenditionSet shared by client (chunk decisions) and server
    // (serving every rung). The top rung is the drawn video spec, already
    // registered under the base resource above.
    renditions_ = std::make_shared<const video::RenditionSet>(
        config_.video, video::BitrateLadder::scaled(config_.video.bitrate_bps));
    for (std::size_t r = 0; r < renditions_->top_rung(); ++r) {
      media_server_->add_video(
          video::rendition_resource(config_.client.resource, r,
                                    renditions_->top_rung()),
          renditions_->model(r));
    }
  }

  media_client_ = std::make_unique<http::MediaClient>(
      *client_conn_, *video_model_, config_.client, renditions_);
  media_client_->set_trace(trace_.get());
  if (renditions_) {
    // The hybrid controller's transport rate signal: the data sender's
    // delivery-rate btlbw summed over active paths (in deployment the
    // transport SDK surfaces this to the app; here we read the sender
    // estimate directly -- deterministic, simulator state only).
    media_client_->set_btlbw_source([this]() {
      std::uint64_t bps = 0;
      for (quic::PathId id : server_conn_->active_path_ids()) {
        bps += static_cast<std::uint64_t>(
            server_conn_->path_state(id).bandwidth_estimate_bytes_per_sec() *
            8.0);
      }
      return bps;
    });
  }

  if (config_.with_player) {
    player_ = std::make_unique<video::VideoPlayer>(loop_, *video_model_);
    player_->set_trace(trace_.get());
    media_client_->set_player(player_.get());
    qoe_capture_ =
        std::make_unique<video::QoeCapture>(loop_, *player_, kQoePeriod);
    client_conn_->set_qoe_provider(
        [this]() { return qoe_capture_->latest(); });
    // The hybrid ABR controller reads the same (staleness-included)
    // conduit the scheduler's feedback loop does, not the live player.
    media_client_->set_qoe_source(
        [this]() { return qoe_capture_->latest(); });
  }

  client_conn_->on_established = [this] {
    media_client_->start();
    if (core::is_multipath(config_.scheme)) {
      if (config_.secondary_path_delay == 0) {
        open_secondary_paths();
      } else {
        loop_.schedule_in(config_.secondary_path_delay,
                          [this] { open_secondary_paths(); });
      }
    }
  };
}

Session::~Session() = default;

void Session::open_secondary_paths() {
  while (paths_opened_ < network_->path_count()) {
    if (!client_conn_->open_path()) break;  // waiting for CIDs
    ++paths_opened_;
  }
  if (paths_opened_ < network_->path_count()) {
    loop_.schedule_in(sim::millis(10), [this] { open_secondary_paths(); });
  }
}

void Session::cm_probe() {
  if (finished()) return;
  // Stall = no download progress (what a video app can actually observe;
  // stray packets still trickle in during an outage, so packet arrival is
  // a misleading liveness signal).
  const std::uint64_t progress = media_client_->contiguous_bytes();
  if (progress != cm_last_rx_packets_) {
    cm_last_rx_packets_ = progress;
    cm_last_progress_ = loop_.now();
  } else if (!media_client_->all_done() &&
             loop_.now() - cm_last_progress_ >= kCmStallThreshold &&
             network_->path_count() > 1) {
    // Stalled: migrate to the next interface under a fresh connection ID
    // (path ids wrap onto physical links in the endpoint). Migration stops
    // silently once the CID supply is exhausted, like a real connection.
    ++cm_current_path_;
    client_conn_->migrate_to_path(
        static_cast<quic::PathId>(cm_current_path_));
    cm_last_progress_ = loop_.now();
  }
  loop_.schedule_in(kCmProbeInterval, [this] { cm_probe(); });
}

void Session::sample_tick() {
  if (!on_sample) return;
  on_sample(*this);
  loop_.schedule_in(sample_period, [this] { sample_tick(); });
}

bool Session::finished() const {
  if (!media_client_->all_done()) return false;
  if (player_ && !player_->finished()) return false;
  return true;
}

SessionResult Session::run() {
  client_conn_->connect();
  if (config_.scheme == core::Scheme::kConnMigration) {
    cm_last_progress_ = loop_.now();
    loop_.schedule_in(kCmProbeInterval, [this] { cm_probe(); });
  }
  if (on_sample) sample_tick();

  // Run in slices so completion can stop the loop early.
  const sim::Duration slice = sim::millis(20);
  while (loop_.now() < config_.time_limit) {
    loop_.run_until(std::min(config_.time_limit, loop_.now() + slice));
    if (finished()) break;
  }

  SessionResult result;
  result.chunk_rct_seconds = media_client_->completion_times_seconds();
  result.download_finished = media_client_->all_done();
  // Censor incomplete chunks at the elapsed time (they are the tail).
  for (const auto& m : media_client_->chunk_metrics()) {
    if (!m.completed_at)
      result.chunk_rct_seconds.push_back(
          sim::to_seconds(loop_.now() - m.issued_at));
  }
  result.download_seconds =
      media_client_->all_done_at()
          ? sim::to_seconds(*media_client_->all_done_at())
          : sim::to_seconds(loop_.now());

  if (player_) {
    if (auto ff = player_->first_frame_latency())
      result.first_frame_seconds = sim::to_seconds(*ff);
    if (auto sd = player_->startup_delay())
      result.startup_delay_seconds = sim::to_seconds(*sd);
    result.rebuffer_rate = player_->rebuffer_rate();
    result.rebuffer_seconds = sim::to_seconds(player_->total_rebuffer_time());
    result.play_seconds = sim::to_seconds(player_->total_play_time());
    result.video_finished = player_->finished();
  }

  if (media_client_->abr_enabled()) {
    result.abr_enabled = true;
    result.abr_bitrate_utility = media_client_->abr_summary().bitrate_utility;
  }

  result.redundancy_ratio = server_conn_->stats().redundancy_ratio();
  for (std::size_t i = 0; i < network_->path_count(); ++i) {
    result.path_down_bytes.push_back(
        network_->path(i).down_stats().bytes_delivered);
    result.path_peak_queue_bytes.push_back(
        network_->path(i).down_stats().peak_queued_bytes);
  }

  fill_metrics(result);

  if (trace_ && !config_.trace.qlog_path.empty()) {
    telemetry::QlogMeta meta;
    meta.title = "xlink trace";
    meta.scenario = config_.trace.label;
    meta.scheme = core::to_string(config_.scheme);
    meta.seed = config_.seed;
    telemetry::write_qlog_file(config_.trace.qlog_path, *trace_, meta);
  }
  return result;
}

void Session::fill_metrics(SessionResult& result) const {
  telemetry::MetricsRegistry& m = result.metrics;
  const auto& server = server_conn_->stats();
  const auto& client = client_conn_->stats();

  m.add_counter("quic.server.packets_sent", server.packets_sent);
  m.add_counter("quic.server.packets_lost", server.packets_lost);
  m.add_counter("quic.server.ptos", server.ptos);
  m.add_counter("quic.server.bytes_sent", server.bytes_sent);
  m.add_counter("quic.server.stream_bytes_sent", server.stream_bytes_sent);
  m.add_counter("quic.server.reinjected_bytes", server.reinjected_bytes);
  m.add_counter("quic.server.retransmitted_bytes",
                server.retransmitted_bytes);
  m.add_counter("quic.client.packets_received", client.packets_received);
  m.add_counter("quic.client.acks_sent", client.acks_sent);
  if (server.fec_repair_packets_sent > 0 || client.fec_erased_seen > 0) {
    m.add_counter("fec.server.repair_packets", server.fec_repair_packets_sent);
    m.add_counter("fec.server.repair_bytes", server.fec_repair_bytes_sent);
    m.add_counter("fec.server.windows_protected",
                  server.fec_windows_protected);
    m.add_counter("fec.client.recovered_packets", client.fec_recovered_packets);
    m.add_counter("fec.client.wasted_symbols", client.fec_wasted_symbols);
    m.add_counter("fec.client.erased_seen", client.fec_erased_seen);
  }

  const auto& chunks = media_client_->chunk_metrics();
  m.add_counter("session.count", 1);
  m.add_counter("session.chunks_total", chunks.size());
  m.add_counter("session.chunks_completed",
                std::count_if(chunks.begin(), chunks.end(), [](const auto& c) {
                  return c.completed_at.has_value();
                }));
  m.add_counter("session.rebuffers", player_ ? player_->rebuffer_count() : 0);
  m.add_counter("session.downloads_finished",
                result.download_finished ? 1 : 0);
  m.add_counter("session.videos_finished", result.video_finished ? 1 : 0);

  for (double rct : result.chunk_rct_seconds)
    m.observe("session.chunk_rct_seconds", rct);
  if (result.first_frame_seconds)
    m.observe("session.first_frame_seconds", *result.first_frame_seconds);
  if (result.startup_delay_seconds)
    m.observe("session.startup_delay_seconds", *result.startup_delay_seconds);
  if (result.play_seconds > 0.0)
    m.observe("session.rebuffer_rate", result.rebuffer_rate);

  if (result.abr_enabled) {
    const auto abr = media_client_->abr_summary();
    m.add_counter("session.abr.decisions", abr.decisions);
    m.add_counter("session.abr.switches", abr.switches);
    m.add_counter("session.abr.switch_magnitude", abr.switch_magnitude);
    m.observe("session.abr_bitrate_utility", result.abr_bitrate_utility);
  }

  if (trace_) {
    m.add_counter("telemetry.events_recorded", trace_->recorded());
    m.add_counter("telemetry.events_dropped", trace_->dropped());
  }
}

}  // namespace xlink::harness
