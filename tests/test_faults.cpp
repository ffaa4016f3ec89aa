// Fault injection + path failover state machine: scripted scenarios.
//
//  - FaultInjector drop/corrupt/delay semantics, deterministic per seed.
//  - Primary-path blackout: the scheduler abandons the dead path within the
//    consecutive-PTO budget, orphaned in-flight data is rescued, the path
//    is resurrected after the blackout, and recovery beats the no-failover
//    baseline.
//  - Directional (uplink-only) drop kills acks independently of data.
//  - Bit corruption is rejected by the AEAD and never corrupts content.
//  - NAT rebind forces re-validation via PATH_CHALLENGE.
//  - PTO exponential backoff is capped (RFC 9002-style).
//  - Fault + path-health events survive the qlog round trip and feed the
//    analyzer's failover timeline.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/scenario.h"
#include "net/fault.h"
#include "quic/loss_detection.h"
#include "telemetry/analyzer.h"
#include "telemetry/qlog.h"
#include "trace/synthetic.h"

namespace xlink {
namespace {

using net::FaultKind;
using net::FaultPlan;

// ------------------------------------------------------------- unit level

TEST(FaultPlan, BuildersAndHorizon) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.last_fault_end(), 0u);
  plan.blackout(sim::seconds(1), sim::seconds(2))
      .corrupt(sim::seconds(4), sim::seconds(1), 0.5)
      .nat_rebind(sim::seconds(6));
  ASSERT_EQ(plan.windows.size(), 3u);
  EXPECT_EQ(plan.windows[0].kind, FaultKind::kBlackout);
  EXPECT_EQ(plan.windows[0].start, sim::seconds(1));
  EXPECT_EQ(plan.windows[0].end, sim::seconds(3));
  EXPECT_DOUBLE_EQ(plan.windows[1].probability, 0.5);
  EXPECT_EQ(plan.last_fault_end(), sim::seconds(6));
}

TEST(FaultInjector, BlackoutDropsBothDirectionsOnlyInsideWindow) {
  sim::EventLoop loop;
  FaultPlan plan;
  plan.blackout(sim::millis(100), sim::millis(100));
  net::FaultInjector inj(loop, plan, sim::Rng(7), nullptr, 0);

  net::Datagram d{1, 2, 3};
  EXPECT_TRUE(inj.admit(net::FaultInjector::Direction::kUp, d));
  loop.schedule_at(sim::millis(150), [] {});
  loop.run_until(sim::millis(150));
  EXPECT_FALSE(inj.admit(net::FaultInjector::Direction::kUp, d));
  EXPECT_FALSE(inj.admit(net::FaultInjector::Direction::kDown, d));
  loop.schedule_at(sim::millis(250), [] {});
  loop.run_until(sim::millis(250));
  EXPECT_TRUE(inj.admit(net::FaultInjector::Direction::kDown, d));
  EXPECT_EQ(inj.stats().packets_dropped, 2u);
  EXPECT_EQ(inj.stats().windows_fired, 1u);
}

TEST(FaultInjector, UplinkDropIsDirectional) {
  sim::EventLoop loop;
  FaultPlan plan;
  plan.uplink_drop(0, sim::seconds(1));
  net::FaultInjector inj(loop, plan, sim::Rng(7), nullptr, 0);
  loop.schedule_at(sim::millis(10), [] {});
  loop.run_until(sim::millis(10));

  net::Datagram d{1, 2, 3};
  EXPECT_FALSE(inj.admit(net::FaultInjector::Direction::kUp, d));
  EXPECT_TRUE(inj.admit(net::FaultInjector::Direction::kDown, d));
}

TEST(FaultInjector, CorruptFlipsBitsDeterministically) {
  FaultPlan plan;
  plan.corrupt(0, sim::seconds(1), 1.0);
  const net::Datagram original(64, 0xAB);

  auto run_once = [&](std::uint64_t seed) {
    sim::EventLoop loop;
    net::FaultInjector inj(loop, plan, sim::Rng(seed), nullptr, 0);
    loop.schedule_at(sim::millis(1), [] {});
    loop.run_until(sim::millis(1));
    net::Datagram d = original.clone();
    EXPECT_TRUE(inj.admit(net::FaultInjector::Direction::kDown, d));
    EXPECT_EQ(inj.stats().packets_corrupted, 1u);
    return d;
  };
  const net::Datagram a = run_once(42);
  const net::Datagram b = run_once(42);
  EXPECT_NE(a, original) << "corruption must change the datagram";
  EXPECT_EQ(a, b) << "same seed must corrupt identically";
}

TEST(LossDetectionBackoff, PtoBackoffIsCapped) {
  const sim::Duration base = sim::millis(100);
  EXPECT_EQ(quic::backed_off_pto(base, 0), base);
  EXPECT_EQ(quic::backed_off_pto(base, 1), 2 * base);
  EXPECT_EQ(quic::backed_off_pto(base, 3), 8 * base);
  // Exponent cap: shift stops growing past kMaxPtoBackoffShift.
  EXPECT_EQ(quic::backed_off_pto(sim::millis(1), 50),
            sim::millis(1) << quic::kMaxPtoBackoffShift);
  // Absolute cap: interval never exceeds kMaxPto.
  EXPECT_EQ(quic::backed_off_pto(sim::seconds(2), 6), quic::kMaxPto);
  EXPECT_EQ(quic::backed_off_pto(quic::kMaxPto, 1), quic::kMaxPto);
}

// --------------------------------------------------------- session level

harness::SessionConfig fault_session_config(std::uint64_t seed) {
  harness::SessionConfig cfg;
  cfg.scheme = core::Scheme::kXlink;
  cfg.seed = seed;
  // Sized so the transfer spans the scripted fault windows: ~16 MB against
  // ~30 Mbps aggregate keeps data in flight well past t=5s fault-free.
  cfg.video.duration = sim::seconds(16);
  cfg.video.bitrate_bps = 8'000'000;
  cfg.video.seed = seed;
  cfg.client.chunk_bytes = 192 * 1024;
  cfg.client.verify_content = true;
  cfg.time_limit = sim::seconds(90);
  // Keep spec order == network path index so fault plans land where the
  // test scripted them.
  cfg.wireless_aware_primary = false;
  cfg.trace.enabled = true;
  // Path 0: fast primary (the one we will kill). Path 1: slower survivor.
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi, trace::stable_lte(seed, sim::seconds(40)),
      sim::millis(20)));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::stable_lte(seed + 1, sim::seconds(40)),
      sim::millis(60)));
  // Modest queues keep bufferbloat out of the smoothed RTT so the PTO
  // clock (and hence the failover budget) tracks propagation delay.
  for (auto& p : cfg.paths) p.queue_capacity_bytes = 256 * 1024;
  return cfg;
}

TEST(Failover, PrimaryBlackoutFailsOverRescuesAndResurrects) {
  const sim::Time blackout_start = sim::seconds(2);
  const sim::Duration blackout_len = sim::seconds(3);

  harness::SessionConfig cfg = fault_session_config(11);
  cfg.paths[0].fault_plan.blackout(blackout_start, blackout_len);
  harness::Session session(std::move(cfg));
  const auto result = session.run();

  // Exactly-once delivery despite the outage.
  EXPECT_TRUE(result.download_finished);
  EXPECT_EQ(session.media_client().content_mismatches(), 0u);

  const auto& server = session.server_conn().stats();
  EXPECT_GE(server.failovers, 1u) << "blackout must trip the PTO budget";
  EXPECT_GE(server.path_resurrections, 1u)
      << "path must come back after the blackout clears";
  EXPECT_GE(server.dead_path_probes, 1u);

  // The scheduler stops using the dead path within the consecutive-PTO
  // budget: once the server declares failover, only backoff probes may
  // appear on path 0 until the window clears.
  const auto events = session.trace_sink()->snapshot();
  std::optional<sim::Time> failover_at;
  std::optional<sim::Time> resurrect_at;
  std::uint64_t sent_on_dead_path = 0;
  for (const auto& e : events) {
    if (e.type == telemetry::EventType::kPathHealth && e.path == 0 &&
        e.origin == telemetry::Origin::kServer) {
      if (e.a == 2 && !failover_at) failover_at = e.t;         // -> probing
      if (e.a == 0 && failover_at && !resurrect_at) resurrect_at = e.t;
    }
    if (e.type == telemetry::EventType::kPacketSent && e.path == 0 &&
        e.origin == telemetry::Origin::kServer && failover_at &&
        e.t > *failover_at && e.t < blackout_start + blackout_len) {
      ++sent_on_dead_path;
    }
  }
  ASSERT_TRUE(failover_at.has_value());
  ASSERT_TRUE(resurrect_at.has_value());
  EXPECT_GT(*resurrect_at, blackout_start + blackout_len)
      << "resurrection only once the path actually works again";
  // Failover latency: the server gives up on the dead path within the PTO
  // budget, well before the outage clears (1.215 s after it starts), and
  // the first probe ack after it clears resurrects the path (3.030 s).
  EXPECT_LE(*failover_at - blackout_start, sim::millis(1500));
  EXPECT_LE(*resurrect_at - (blackout_start + blackout_len),
            sim::millis(3500));
  // Capped-backoff probing is sparse: far fewer packets than data traffic
  // would produce over a 3 s window.
  EXPECT_LE(sent_on_dead_path, 12u);

  // No worse than the transport without failover, measured on this seed
  // and blackout while path health could still be switched off: PTOs
  // probing in place and the scheduler alone steering around the dead
  // path rebuffered 0.178 s and downloaded in 10.594 s. With failover the
  // same build measured 0 s and 9.192 s.
  EXPECT_LE(result.rebuffer_seconds, 0.178);
  EXPECT_LE(result.download_seconds, 10.594);
}

TEST(Failover, UplinkOnlyDropKillsAcksAndStillRecovers) {
  harness::SessionConfig cfg = fault_session_config(12);
  // Kill only client->server on the primary: data still flows down but the
  // server hears no acks, which must be enough to trigger failover.
  cfg.paths[0].fault_plan.uplink_drop(sim::seconds(2), sim::seconds(3));
  harness::Session session(std::move(cfg));
  const auto result = session.run();

  EXPECT_TRUE(result.download_finished);
  EXPECT_EQ(session.media_client().content_mismatches(), 0u);
  EXPECT_GE(session.server_conn().stats().failovers, 1u);
  EXPECT_GE(session.server_conn().stats().path_resurrections, 1u);
}

TEST(Failover, CorruptionIsRejectedByAeadNotDelivered) {
  harness::SessionConfig cfg = fault_session_config(13);
  cfg.paths[0].fault_plan.corrupt(sim::seconds(1), sim::seconds(2), 0.3);
  harness::Session session(std::move(cfg));
  const auto result = session.run();

  EXPECT_TRUE(result.download_finished);
  EXPECT_EQ(session.media_client().content_mismatches(), 0u)
      << "corrupted datagrams must never reach the stream";
  const auto corrupted =
      session.network().path(0).faults()->stats().packets_corrupted;
  EXPECT_GT(corrupted, 0u);
  EXPECT_GT(session.client_conn().stats().auth_failures +
                session.server_conn().stats().auth_failures,
            0u)
      << "every corrupted datagram fails AEAD at its receiver";
}

TEST(Failover, NatRebindForcesRevalidation) {
  harness::SessionConfig cfg = fault_session_config(14);
  const sim::Time rebind_at = sim::seconds(2);
  cfg.paths[0].fault_plan.nat_rebind(rebind_at);
  harness::Session session(std::move(cfg));
  const auto result = session.run();

  EXPECT_TRUE(result.download_finished);
  EXPECT_EQ(session.media_client().content_mismatches(), 0u);
  EXPECT_EQ(session.network().path(0).faults()->stats().nat_rebinds, 1u);

  // The client must have dropped path 0 back to validating and then
  // re-validated it (PATH_CHALLENGE / PATH_RESPONSE round trip).
  bool revalidating = false;
  bool revalidated = false;
  for (const auto& e : session.trace_sink()->snapshot()) {
    if (e.type != telemetry::EventType::kPathStatus || e.path != 0) continue;
    if (e.origin != telemetry::Origin::kClient || e.t < rebind_at) continue;
    if (e.a == 0) revalidating = true;               // kValidating
    if (revalidating && e.a == 1) revalidated = true;  // back to kActive
  }
  EXPECT_TRUE(revalidating);
  EXPECT_TRUE(revalidated);
}

TEST(Failover, AnalyzerBuildsFailoverTimelineFromQlog) {
  harness::SessionConfig cfg = fault_session_config(15);
  cfg.paths[0].fault_plan.blackout(sim::seconds(2), sim::seconds(3));
  harness::Session session(std::move(cfg));
  const auto result = session.run();
  EXPECT_TRUE(result.download_finished);

  telemetry::QlogMeta meta;
  meta.scenario = "failover-timeline";
  std::ostringstream os;
  telemetry::write_qlog(os, session.trace_sink()->snapshot(), meta,
                        session.trace_sink()->recorded(),
                        session.trace_sink()->dropped());
  const auto parsed = telemetry::parse_qlog(os.str());
  ASSERT_TRUE(parsed.has_value());

  const auto report = telemetry::analyze(*parsed);
  EXPECT_EQ(report.faults_fired, 1u);
  EXPECT_GE(report.failovers, 1u);
  EXPECT_GE(report.resurrections, 1u);
  EXPECT_GE(report.health_transitions, 2u);
  ASSERT_FALSE(report.failover_timeline.empty());
  EXPECT_TRUE(report.failover_timeline.front().is_fault);

  const std::string rendered = telemetry::render_report(report);
  EXPECT_NE(rendered.find("failover timeline"), std::string::npos);
  EXPECT_NE(rendered.find("blackout"), std::string::npos);
}

TEST(Failover, LastSurvivingPathIsNeverFailedOver) {
  // Single path + blackout: graceful degradation, not failover (there is
  // nowhere to fail over to). The session stalls through the outage and
  // still completes.
  harness::SessionConfig cfg = fault_session_config(16);
  cfg.paths.pop_back();
  cfg.scheme = core::Scheme::kSinglePath;
  cfg.paths[0].fault_plan.blackout(sim::seconds(2), sim::seconds(2));
  harness::Session session(std::move(cfg));
  const auto result = session.run();

  EXPECT_TRUE(result.download_finished);
  EXPECT_EQ(session.media_client().content_mismatches(), 0u);
  EXPECT_EQ(session.server_conn().stats().failovers, 0u);
  EXPECT_EQ(session.client_conn().stats().failovers, 0u);
}

}  // namespace
}  // namespace xlink
