// Determinism contract of the parallel experiment engine: a day replayed
// on N workers must produce bit-identical DayMetrics to the serial path,
// because per-session results land in index-keyed slots and are folded in
// index order. Kept in its own binary so it can be run under
// ThreadSanitizer (-DXLINK_SANITIZE=thread) without paying TSan cost for
// the whole suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "harness/ab_test.h"
#include "harness/parallel.h"
#include "sim/thread_pool.h"

namespace xlink::harness {
namespace {

PopulationConfig small_pop() {
  PopulationConfig pop;
  pop.sessions_per_day = 6;  // keep the suite quick, esp. under TSan
  pop.time_limit = sim::seconds(60);
  return pop;
}

void expect_identical(const DayMetrics& a, const DayMetrics& b) {
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.metrics.counter("session.downloads_finished"),
            b.metrics.counter("session.downloads_finished"));
  // Raw sample vectors in insertion order: the strongest form of the
  // claim — not just equal percentiles, the same doubles in the same
  // order.
  EXPECT_EQ(a.rct.samples(), b.rct.samples());
  EXPECT_EQ(a.first_frame.samples(), b.first_frame.samples());
  EXPECT_EQ(a.rebuffer_rate, b.rebuffer_rate);
  EXPECT_EQ(a.redundancy_pct, b.redundancy_pct);
  // Merged MetricsRegistry: counters, gauges, and histogram buckets all
  // compare exactly (defaulted operator==) — the merge-in-index-order
  // contract extended to the telemetry subsystem.
  EXPECT_EQ(a.metrics, b.metrics);
}

TEST(ParallelHarness, RunDayBitIdenticalAcrossJobCounts) {
  const PopulationConfig pop = small_pop();
  const core::SchemeOptions opts;
  for (const std::uint64_t day_seed : {901ULL, 902ULL, 903ULL}) {
    for (const core::Scheme scheme :
         {core::Scheme::kSinglePath, core::Scheme::kXlink}) {
      const DayMetrics serial = run_day(scheme, opts, pop, day_seed, 1);
      const DayMetrics parallel = run_day(scheme, opts, pop, day_seed, 4);
      expect_identical(serial, parallel);
    }
  }
}

TEST(ParallelHarness, FecRunDayBitIdenticalAcrossJobCounts) {
  // FEC exercises extra per-session state (framer windows, recovery
  // stashes, pooled repair buffers); the bit-identical contract must hold
  // for the fec+reinject arm too.
  const PopulationConfig pop = small_pop();
  core::SchemeOptions opts;
  opts.xlink_redundancy = core::XlinkRedundancy::kReinjectPlusFec;
  opts.fec.window = 8;
  opts.fec.min_repairs = 2;
  opts.fec.max_repairs = 4;
  const DayMetrics serial = run_day(core::Scheme::kXlink, opts, pop, 911, 1);
  const DayMetrics parallel =
      run_day(core::Scheme::kXlink, opts, pop, 911, 4);
  expect_identical(serial, parallel);
  // Repair symbols actually flowed: the arm is not silently FEC-free.
  EXPECT_GT(serial.redundancy_pct, 0.0);
}

TEST(ParallelHarness, AbDayMatchesTwoSerialRunDays) {
  const PopulationConfig pop = small_pop();
  const core::SchemeOptions opts;
  const std::uint64_t day_seed = 777;
  const AbDay ab = run_ab_day(core::Scheme::kSinglePath, opts,
                              core::Scheme::kVanillaMp, opts, pop, day_seed,
                              4);
  expect_identical(ab.arm_a,
                   run_day(core::Scheme::kSinglePath, opts, pop, day_seed, 1));
  expect_identical(ab.arm_b,
                   run_day(core::Scheme::kVanillaMp, opts, pop, day_seed, 1));
}

TEST(ParallelHarness, ResultsLandInIndexOrderSlots) {
  const PopulationConfig pop = small_pop();
  auto make_config = [&pop](std::size_t i) {
    SessionConfig cfg = draw_session_conditions(pop, 4200 + i);
    cfg.scheme = core::Scheme::kSinglePath;
    return cfg;
  };
  const auto serial = run_sessions_parallel(4, make_config, 1);
  const auto parallel = run_sessions_parallel(4, make_config, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].chunk_rct_seconds, parallel[i].chunk_rct_seconds);
    EXPECT_EQ(serial[i].metrics.counter("quic.server.bytes_sent"),
              parallel[i].metrics.counter("quic.server.bytes_sent"));
    EXPECT_EQ(serial[i].metrics.counter("quic.server.reinjected_bytes"),
              parallel[i].metrics.counter("quic.server.reinjected_bytes"));
  }
}

TEST(ParallelHarness, TracingDoesNotPerturbSessionResults) {
  const PopulationConfig pop = small_pop();
  auto make_config = [&pop](std::size_t i, bool traced) {
    SessionConfig cfg = draw_session_conditions(pop, 6100 + i);
    cfg.scheme = core::Scheme::kXlink;
    cfg.trace.enabled = traced;
    return cfg;
  };
  const auto plain = run_sessions_parallel(
      3, [&](std::size_t i) { return make_config(i, false); }, 2);
  const auto traced = run_sessions_parallel(
      3, [&](std::size_t i) { return make_config(i, true); }, 2);
  ASSERT_EQ(plain.size(), traced.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].chunk_rct_seconds, traced[i].chunk_rct_seconds);
    EXPECT_EQ(plain[i].first_frame_seconds, traced[i].first_frame_seconds);
    EXPECT_EQ(plain[i].rebuffer_seconds, traced[i].rebuffer_seconds);
    // The traced run's registry additionally carries telemetry.* counters;
    // everything else in it must match.
    for (const char* name :
         {"quic.server.bytes_sent", "quic.server.reinjected_bytes",
          "quic.server.packets_lost", "quic.server.packets_sent"})
      EXPECT_EQ(plain[i].metrics.counter(name),
                traced[i].metrics.counter(name))
          << name;
    EXPECT_GT(traced[i].metrics.counter("telemetry.events_recorded"), 0u);
  }
}

TEST(ParallelHarness, TracedSessionsExportIdenticalQlogsAcrossJobCounts) {
  const PopulationConfig pop = small_pop();
  auto read_file = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  };
  auto qlog_path = [](unsigned jobs, std::size_t i) {
    return ::testing::TempDir() + "/xlink_par_trace_j" +
           std::to_string(jobs) + "_" + std::to_string(i) + ".qlog";
  };
  auto run = [&](unsigned jobs) {
    run_sessions_parallel(
        4,
        [&](std::size_t i) {
          SessionConfig cfg = draw_session_conditions(pop, 6200 + i);
          cfg.scheme = core::Scheme::kXlink;
          cfg.trace.enabled = true;
          cfg.trace.label = "determinism";
          cfg.trace.qlog_path = qlog_path(jobs, i);
          return cfg;
        },
        jobs);
  };
  run(1);
  run(4);
  for (std::size_t i = 0; i < 4; ++i) {
    const std::string serial = read_file(qlog_path(1, i));
    const std::string parallel = read_file(qlog_path(4, i));
    ASSERT_FALSE(serial.empty());
    // Byte-identical trace files: same events, same order, same JSON.
    EXPECT_EQ(serial, parallel) << "session " << i;
    std::remove(qlog_path(1, i).c_str());
    std::remove(qlog_path(4, i).c_str());
  }
}

TEST(ThreadPool, ParallelForEachVisitsEveryIndexExactlyOnce) {
  sim::ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for_each(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ParallelForEachPropagatesFirstException) {
  sim::ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for_each(100,
                                      [](std::size_t i) {
                                        if (i == 42)
                                          throw std::runtime_error("boom");
                                      }),
               std::runtime_error);
}

TEST(ThreadPool, SerialFallbackRunsInline) {
  // jobs=1 must execute on the calling thread in index order.
  std::vector<std::size_t> order;
  sim::parallel_for_each(5, [&](std::size_t i) { order.push_back(i); }, 1);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, DefaultJobsHonoursEnvVar) {
  ::setenv("XLINK_JOBS", "3", 1);
  EXPECT_EQ(sim::ThreadPool::default_jobs(), 3u);
  ::setenv("XLINK_JOBS", "not-a-number", 1);
  EXPECT_GE(sim::ThreadPool::default_jobs(), 1u);  // falls back to hardware
  ::unsetenv("XLINK_JOBS");
  EXPECT_GE(sim::ThreadPool::default_jobs(), 1u);
}

TEST(ThreadPool, DefaultJobsRejectsEnvEdgeValues) {
  // Every rejected value must fall back to hardware_concurrency (>= 1),
  // never to 0 workers or an absurd pool size.
  const unsigned hw_fallback = [] {
    ::unsetenv("XLINK_JOBS");
    return sim::ThreadPool::default_jobs();
  }();
  const char* rejected[] = {
      "0",                      // zero workers is not a pool
      "4097",                   // above the sanity cap
      "99999999999999999999",   // overflows unsigned long (ERANGE)
      "8garbage",               // trailing junk
      "-2",                     // strtoul wraps negatives to huge values
      " 4",                     // leading whitespace is accepted by strtoul,
                                // but the full-string parse still succeeds;
                                // see the accepted list below
      "",                       // empty string
  };
  for (const char* v : rejected) {
    if (std::string(v) == " 4") continue;  // handled separately below
    ::setenv("XLINK_JOBS", v, 1);
    EXPECT_EQ(sim::ThreadPool::default_jobs(), hw_fallback)
        << "XLINK_JOBS='" << v << "'";
  }
  // Boundary values that must be accepted verbatim.
  ::setenv("XLINK_JOBS", "1", 1);
  EXPECT_EQ(sim::ThreadPool::default_jobs(), 1u);
  ::setenv("XLINK_JOBS", "4096", 1);
  EXPECT_EQ(sim::ThreadPool::default_jobs(), 4096u);
  ::setenv("XLINK_JOBS", " 4", 1);  // strtoul skips leading whitespace
  EXPECT_EQ(sim::ThreadPool::default_jobs(), 4u);
  ::unsetenv("XLINK_JOBS");
}

TEST(ParallelHarness, AbDayArmsShareSessionSeeds) {
  // The A/B property: both arms draw the same per-session conditions. With
  // the SAME scheme on both arms, the two arms must therefore be
  // bit-identical — any divergence means the arm-seed pairing broke.
  const PopulationConfig pop = small_pop();
  const core::SchemeOptions opts;
  const AbDay ab = run_ab_day(core::Scheme::kVanillaMp, opts,
                              core::Scheme::kVanillaMp, opts, pop, 888, 4);
  expect_identical(ab.arm_a, ab.arm_b);
  // And the shared conditions equal what run_day draws for that seed.
  expect_identical(ab.arm_a,
                   run_day(core::Scheme::kVanillaMp, opts, pop, 888, 1));
}

TEST(ThreadPool, SubmitAndWaitIdleDrainEverything) {
  sim::ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) pool.submit([&done] { ++done; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 64);
}

}  // namespace
}  // namespace xlink::harness
