// Chaos suite: randomized fault plans x seeds against full sessions.
//
// Every run must uphold the transport's core invariants no matter what the
// fault injector throws at it:
//   1. no crash / sanitizer finding (the binary runs under ASan/UBSan in CI),
//   2. every stream byte delivered exactly once, content byte-exact,
//   3. the session finishes within a bounded time after the last fault
//      clears (no permanent stall),
//   4. every injected fault and every path-health transition is visible in
//      the exported qlog.
//
// The sweep size defaults to 60 sessions (>= 50 required), which CI runs
// in both its plain and its ASan/UBSan test jobs, and can be reduced for
// local smoke runs via XLINK_CHAOS_SEEDS. Plans are derived from the seed
// alone, so any failing session replays bit-identically in isolation.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "harness/scenario.h"
#include "net/fault.h"
#include "telemetry/qlog.h"
#include "trace/synthetic.h"

namespace xlink {
namespace {

std::size_t chaos_session_count() {
  if (const char* env = std::getenv("XLINK_CHAOS_SEEDS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 60;
}

/// Derives a randomized fault plan for one path from a forked rng. Windows
/// land inside [1s, 7s) so every plan clears well before the time limit.
net::FaultPlan random_plan(sim::Rng& rng) {
  net::FaultPlan plan;
  const std::uint64_t n_windows = 1 + rng.uniform(3);
  for (std::uint64_t i = 0; i < n_windows; ++i) {
    const sim::Time start = sim::millis(1000 + rng.uniform(4000));
    const sim::Duration dur = sim::millis(300 + rng.uniform(1700));
    switch (rng.uniform(7)) {
      case 0: plan.blackout(start, dur); break;
      case 1: plan.uplink_drop(start, dur); break;
      case 2: plan.downlink_drop(start, dur); break;
      case 3: plan.corrupt(start, dur, 0.2 + 0.6 * rng.uniform_double()); break;
      case 4:
        plan.reorder(start, dur, 0.3 + 0.4 * rng.uniform_double(),
                     sim::millis(20 + rng.uniform(80)));
        break;
      case 5:
        plan.delay_spike(start, dur, sim::millis(50 + rng.uniform(250)));
        break;
      default: plan.nat_rebind(start); break;
    }
  }
  return plan;
}

struct ChaosOutcome {
  std::uint64_t faults_traced = 0;
  std::uint64_t health_traced = 0;
  std::uint64_t failovers = 0;
};

ChaosOutcome run_chaos_session(std::uint64_t seed) {
  sim::Rng rng(seed * 7919 + 13);

  harness::SessionConfig cfg;
  cfg.scheme = rng.chance(0.25) ? core::Scheme::kVanillaMp
                                : core::Scheme::kXlink;
  cfg.seed = seed;
  // Sized so the transfer overlaps the fault windows in [1s, 7s): the
  // aggregate link rate is ~30 Mbps, so ~8-12 MB keeps data in flight
  // through the whole fault horizon.
  cfg.video.duration = sim::seconds(10);
  cfg.video.bitrate_bps = 7'000'000 + rng.uniform(3'000'000);
  cfg.video.seed = seed;
  cfg.client.chunk_bytes = 128 * 1024;
  cfg.client.verify_content = true;
  cfg.time_limit = sim::seconds(120);
  cfg.wireless_aware_primary = false;
  cfg.trace.enabled = true;
  cfg.trace.capacity = 1 << 18;

  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi, trace::stable_lte(seed, sim::seconds(60)),
      sim::millis(15 + rng.uniform(30))));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::stable_lte(seed + 1, sim::seconds(60)),
      sim::millis(30 + rng.uniform(60))));

  // Fault at least one path; half the time both.
  cfg.paths[0].fault_plan = random_plan(rng);
  if (rng.chance(0.5)) cfg.paths[1].fault_plan = random_plan(rng);
  sim::Time horizon = cfg.paths[0].fault_plan.last_fault_end();
  horizon = std::max(horizon, cfg.paths[1].fault_plan.last_fault_end());

  harness::Session session(std::move(cfg));
  const auto result = session.run();
  const auto& cconf = session.config();

  // (2) exactly-once, byte-exact delivery.
  EXPECT_TRUE(result.download_finished) << "seed " << seed;
  EXPECT_EQ(session.media_client().content_mismatches(), 0u)
      << "seed " << seed;
  EXPECT_EQ(session.media_client().contiguous_bytes(),
            session.video_model().total_bytes())
      << "seed " << seed;

  // (3) bounded stall: done within a grace period of the last fault end.
  const auto done_at = session.media_client().all_done_at();
  EXPECT_TRUE(done_at.has_value()) << "seed " << seed;
  if (done_at) {
    EXPECT_LE(*done_at, horizon + sim::seconds(45))
        << "seed " << seed << " scheme " << core::to_string(cconf.scheme);
  }

  // (4) every fired fault window + health transition is in the qlog.
  std::uint64_t expected_fired = 0;
  for (std::size_t i = 0; i < session.network().path_count(); ++i) {
    if (const auto* f = session.network().path(i).faults())
      expected_fired += f->stats().windows_fired;
  }
  telemetry::QlogMeta meta;
  meta.seed = seed;
  std::ostringstream os;
  telemetry::write_qlog(os, session.trace_sink()->snapshot(), meta,
                        session.trace_sink()->recorded(),
                        session.trace_sink()->dropped());
  const auto parsed = telemetry::parse_qlog(os.str());
  EXPECT_TRUE(parsed.has_value()) << "seed " << seed;

  ChaosOutcome out;
  out.failovers = session.server_conn().stats().failovers +
                  session.client_conn().stats().failovers;
  if (parsed) {
    std::uint64_t fault_opens = 0;
    for (const auto& e : parsed->events) {
      if (e.type == telemetry::EventType::kFault) {
        ++out.faults_traced;
        if (e.flag & 1) ++fault_opens;
      }
      if (e.type == telemetry::EventType::kPathHealth) ++out.health_traced;
    }
    EXPECT_EQ(fault_opens, expected_fired) << "seed " << seed;
    if (out.failovers > 0) {
      EXPECT_GT(out.health_traced, 0u)
          << "seed " << seed << ": failovers must leave a telemetry trail";
    }
  }
  return out;
}

TEST(Chaos, RandomFaultPlansUpholdInvariants) {
  const std::size_t sessions = chaos_session_count();
  std::uint64_t total_faults = 0;
  std::uint64_t total_failovers = 0;
  std::uint64_t total_health = 0;
  for (std::size_t i = 0; i < sessions; ++i) {
    SCOPED_TRACE("chaos session " + std::to_string(i));
    const ChaosOutcome out = run_chaos_session(1000 + i);
    total_faults += out.faults_traced;
    total_failovers += out.failovers;
    total_health += out.health_traced;
    if (::testing::Test::HasFatalFailure()) break;
  }
  // The sweep as a whole must actually exercise the machinery: faults
  // fired, and at least some sessions drove a full failover.
  EXPECT_GT(total_faults, sessions);
  EXPECT_GT(total_failovers, 0u);
  EXPECT_GT(total_health, 0u);
}

}  // namespace
}  // namespace xlink
