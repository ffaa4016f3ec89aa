// Determinism and crash-safety contract of the grid-sharding subsystem
// (harness/shard.h): a spool worked by any number of workers at any
// XLINK_JOBS value, killed and resumed at any point, must merge to the
// byte-identical output of the in-process sweep. Kept in its own binary
// because the crash tests fork().
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "harness/grids.h"
#include "harness/shard.h"

namespace xlink::harness::shard {
namespace {

namespace fs = std::filesystem;

PopulationConfig tiny_pop() {
  PopulationConfig pop;
  pop.sessions_per_day = 2;  // smallest population that still folds
  pop.time_limit = sim::seconds(45);
  return pop;
}

/// A grid exercising every cell flavor: a plain run_day cell, an A/B cell,
/// and a fig10-style raw-seed + playtime-sampled cell.
GridSpec mixed_grid(std::size_t extra_day_cells = 2) {
  GridSpec spec;
  spec.name = "test-mixed";
  {
    GridCell ab;
    ab.label = "ab";
    ab.ab = true;
    ab.scheme_a = core::Scheme::kSinglePath;
    ab.scheme_b = core::Scheme::kXlink;
    ab.pop = tiny_pop();
    ab.day_seed = 7101;
    spec.cells.push_back(ab);
  }
  {
    GridCell sampled;
    sampled.label = "sampled";
    sampled.scheme_a = core::Scheme::kXlink;
    sampled.pop = tiny_pop();
    sampled.day_seed = 555000;
    sampled.raw_session_seeds = true;
    sampled.sample_playtime = true;
    spec.cells.push_back(sampled);
  }
  {
    // BBR + pacing exercises the rate-based CC path and the pacer's timer
    // arithmetic under the same byte-identical merge contract.
    GridCell bbr;
    bbr.label = "bbr-paced";
    bbr.scheme_a = core::Scheme::kXlink;
    bbr.options_a.cc = quic::CcAlgorithm::kBbr;
    bbr.options_a.pacing = true;
    bbr.pop = tiny_pop();
    bbr.day_seed = 7103;
    spec.cells.push_back(bbr);
  }
  for (std::size_t d = 0; d < extra_day_cells; ++d) {
    GridCell day;
    day.label = "day" + std::to_string(d);
    day.scheme_a = d % 2 ? core::Scheme::kVanillaMp : core::Scheme::kXlink;
    day.pop = tiny_pop();
    day.day_seed = 7200 + d;
    spec.cells.push_back(day);
  }
  return spec;
}

std::string render(const GridSpec& spec, const std::vector<CellResult>& r) {
  std::ostringstream os;
  write_grid_results(spec, r, os);
  return os.str();
}

std::string fresh_spool_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/xlink_spool_" + tag;
  fs::remove_all(dir);
  return dir;
}

TEST(DoubleCodec, RoundTripsBitExact) {
  const double values[] = {
      0.0,
      -0.0,
      1.0,
      -1.5,
      1.0 / 3.0,
      3.14159265358979323846,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::epsilon(),
      -12345.6789e-120,
  };
  for (const double v : values) {
    const double back = decode_double(encode_double(v));
    EXPECT_EQ(std::signbit(v), std::signbit(back));
    EXPECT_EQ(v, back) << encode_double(v);
    // Canonical form: re-encoding the decoded value is a fixed point.
    EXPECT_EQ(encode_double(v), encode_double(back));
  }
  EXPECT_THROW(decode_double("not-a-number"), std::runtime_error);
  EXPECT_THROW(decode_double("1.5 trailing"), std::runtime_error);
}

TEST(GridManifest, RoundTripsEveryCellField) {
  GridSpec spec = mixed_grid();
  spec.cells[0].options_b.cc = quic::CcAlgorithm::kCoupledLia;
  spec.cells[0].options_b.control.mode = core::ControlMode::kAlwaysOn;
  spec.cells[0].options_b.xlink_ack_policy = quic::AckPathPolicy::kOriginalPath;
  spec.cells[0].options_b.xlink_insert_mode = quic::InsertMode::kFrontOfClass;
  spec.cells[0].options_b.aead_key = ~0ULL;  // all 64 bits must survive
  spec.cells[0].options_b.xlink_redundancy =
      core::XlinkRedundancy::kReinjectPlusFec;
  spec.cells[0].options_b.fec.window = 12;
  spec.cells[0].options_b.fec.min_repairs = 2;
  spec.cells[0].options_b.fec.max_repairs = 5;
  spec.cells[0].options_b.fec.loss_multiplier = 1.0 / 3.0;  // bit-exact codec
  spec.cells[0].options_b.pacing = true;
  spec.cells[1].options_a.cc = quic::CcAlgorithm::kBbr;
  spec.cells[1].pop.p_5g = 1.0 / 3.0;        // non-terminating binary fraction
  spec.cells[1].pop.abr = video::AbrAlgorithm::kHybrid;
  spec.cells[1].day_seed = (1ULL << 62) + 3; // above 2^53: needs string codec

  std::ostringstream os;
  write_manifest(spec, os);
  const GridSpec back = parse_manifest(os.str());

  ASSERT_EQ(back.cells.size(), spec.cells.size());
  EXPECT_EQ(back.name, spec.name);
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    const GridCell& a = spec.cells[i];
    const GridCell& b = back.cells[i];
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.ab, b.ab);
    EXPECT_EQ(a.scheme_a, b.scheme_a);
    EXPECT_EQ(a.scheme_b, b.scheme_b);
    EXPECT_EQ(a.options_a.cc, b.options_a.cc);
    EXPECT_EQ(a.options_a.pacing, b.options_a.pacing);
    EXPECT_EQ(a.options_b.cc, b.options_b.cc);
    EXPECT_EQ(a.options_b.pacing, b.options_b.pacing);
    EXPECT_EQ(a.options_b.control.tth1, b.options_b.control.tth1);
    EXPECT_EQ(a.options_b.control.tth2, b.options_b.control.tth2);
    EXPECT_EQ(a.options_b.control.mode, b.options_b.control.mode);
    EXPECT_EQ(a.options_b.xlink_ack_policy, b.options_b.xlink_ack_policy);
    EXPECT_EQ(a.options_b.xlink_insert_mode, b.options_b.xlink_insert_mode);
    EXPECT_EQ(a.options_b.aead_key, b.options_b.aead_key);
    EXPECT_EQ(a.options_b.xlink_redundancy, b.options_b.xlink_redundancy);
    EXPECT_EQ(a.options_b.fec.window, b.options_b.fec.window);
    EXPECT_EQ(a.options_b.fec.min_repairs, b.options_b.fec.min_repairs);
    EXPECT_EQ(a.options_b.fec.max_repairs, b.options_b.fec.max_repairs);
    EXPECT_EQ(a.options_b.fec.loss_multiplier, b.options_b.fec.loss_multiplier);
    EXPECT_EQ(a.pop.sessions_per_day, b.pop.sessions_per_day);
    EXPECT_EQ(a.pop.p_5g, b.pop.p_5g);  // bit-exact, not approximately
    EXPECT_EQ(a.pop.time_limit, b.pop.time_limit);
    EXPECT_EQ(a.pop.abr, b.pop.abr);
    EXPECT_EQ(a.day_seed, b.day_seed);
    EXPECT_EQ(a.raw_session_seeds, b.raw_session_seeds);
    EXPECT_EQ(a.sample_playtime, b.sample_playtime);
  }
  EXPECT_THROW(parse_manifest("{\"oops\": 1}"), std::runtime_error);
  EXPECT_THROW(parse_manifest("not json at all"), std::runtime_error);

  // An unknown enum key is rejected with the enum's name and the key.
  for (const auto& [field, bad, what] :
       {std::tuple{"\"cc\": \"bbr\"", "\"cc\": \"vegas\"",
                   "shard: unknown cc key 'vegas'"},
        std::tuple{"\"insert_mode\": \"front_of_class\"",
                   "\"insert_mode\": \"middle\"",
                   "shard: unknown insert mode key 'middle'"}}) {
    std::string text = os.str();
    const std::size_t at = text.find(field);
    ASSERT_NE(at, std::string::npos) << field;
    text.replace(at, std::strlen(field), bad);
    try {
      parse_manifest(text);
      ADD_FAILURE() << "accepted " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), what);
    }
  }
}

TEST(GridShardFile, CellResultRoundTripsBitExact) {
  GridSpec spec = mixed_grid(0);
  for (const GridCell& cell : spec.cells) {
    const CellResult run = run_cell(cell, 2);
    std::ostringstream os;
    write_cell_result(cell, run, os);
    const CellResult back = parse_cell_result(os.str());

    EXPECT_EQ(run.arm_a.rct.samples(), back.arm_a.rct.samples());
    EXPECT_EQ(run.arm_a.first_frame.samples(),
              back.arm_a.first_frame.samples());
    EXPECT_EQ(run.arm_a.rebuffer_rate, back.arm_a.rebuffer_rate);
    EXPECT_EQ(run.arm_a.redundancy_pct, back.arm_a.redundancy_pct);
    EXPECT_EQ(run.arm_a.sessions, back.arm_a.sessions);
    EXPECT_EQ(run.arm_a.metrics.counter("session.downloads_finished"),
              back.arm_a.metrics.counter("session.downloads_finished"));
    // The registry compares exactly: counters, gauges, histogram buckets.
    EXPECT_EQ(run.arm_a.metrics, back.arm_a.metrics);
    if (cell.ab) {
      EXPECT_EQ(run.arm_b.metrics, back.arm_b.metrics);
    }
    if (cell.sample_playtime) {
      EXPECT_EQ(run.playtime_a.samples(), back.playtime_a.samples());
    }
  }
  EXPECT_THROW(parse_cell_result("{\"xlink_grid_manifest\": 1}"),
               std::runtime_error);
}

TEST(GridShardFile, AeadKeyNeverChangesCellMetrics) {
  // Packet protection is not part of the model: the same cell under two
  // keys, so different ciphertext and tags on every packet, must write
  // the byte-identical shard. FEC makes recovered packets take the same
  // decrypt path.
  GridCell cell;
  cell.label = "keyed";
  cell.scheme_a = core::Scheme::kXlink;
  cell.options_a.xlink_redundancy = core::XlinkRedundancy::kReinjectPlusFec;
  cell.pop = tiny_pop();
  cell.day_seed = 7401;
  const auto shard_with_key = [&cell](std::uint64_t key) {
    GridCell keyed = cell;
    keyed.options_a.aead_key = key;
    std::ostringstream os;
    write_cell_result(keyed, run_cell(keyed, 2), os);
    return os.str();
  };
  const std::string shard = shard_with_key(0x5eed);
  const CellResult parsed = parse_cell_result(shard);
  EXPECT_EQ(parsed.arm_a.sessions, 2);
  EXPECT_GT(parsed.arm_a.metrics.counter("fec.client.recovered_packets"), 0u);
  EXPECT_EQ(shard_with_key(0x0123'4567'89ab'cdefULL), shard);
}

// ------------------------------------------------- shard parser rejections
//
// Shards and manifests are read from files other processes wrote, so the
// parser must reject every malformed value with a "shard:" error rather
// than cast it, truncate it, or read it as something else.

/// A hand-built one-arm shard whose day totals are all nonzero, so each
/// total the parser cross-checks against the registry can disagree.
std::string sample_shard() {
  CellResult r;
  r.arm_a.sessions = 2;
  r.arm_a.abr_utility.add_all({0.5, 0.75});
  r.arm_a.metrics.add_counter("session.count", 2);
  r.arm_a.metrics.add_counter("session.downloads_finished", 1);
  r.arm_a.metrics.add_counter("session.abr.decisions", 7);
  r.arm_a.metrics.add_counter("session.abr.switches", 3);
  r.arm_a.metrics.add_counter("session.abr.switch_magnitude", 4);
  r.arm_a.metrics.observe("session.chunk_rct_seconds", 0.25);  // bucket -2
  std::ostringstream os;
  write_cell_result(GridCell{}, r, os);
  return os.str();
}

/// Replaces the only `from` in `text` with `to` and expects `parse` to
/// reject the result with a "shard: " error.
template <typename Parse>
void expect_rejected(Parse parse, std::string text, const std::string& from,
                     const std::string& to) {
  const auto at = text.find(from);
  ASSERT_NE(at, std::string::npos) << from;
  ASSERT_EQ(text.find(from, at + 1), std::string::npos) << from;
  text.replace(at, from.size(), to);
  try {
    parse(text);
    ADD_FAILURE() << "accepted " << to;
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("shard: ", 0), 0u) << e.what();
  }
}

void expect_bad_shard(const std::string& from, const std::string& to) {
  expect_rejected(parse_cell_result, sample_shard(), from, to);
}

TEST(ShardParser, SampleShardRoundTripsByteIdentically) {
  const std::string text = sample_shard();
  std::ostringstream os;
  write_cell_result(GridCell{}, parse_cell_result(text), os);
  EXPECT_EQ(os.str(), text);
}

TEST(ShardParser, RejectsNegativeIntegers) {
  expect_bad_shard("\"sessions\": 2", "\"sessions\": -1");
  expect_bad_shard("\"session.count\": \"2\"", "\"session.count\": -1");
}

TEST(ShardParser, RejectsOutOfRangeIntegers) {
  GridSpec spec;
  spec.cells.resize(1);
  spec.cells[0].day_seed = 7101;
  std::ostringstream os;
  write_manifest(spec, os);
  expect_rejected(parse_manifest, os.str(), "\"day_seed\": \"7101\"",
                  "\"day_seed\": 1e300");
  expect_bad_shard("\"sessions\": 2", "\"sessions\": 1e300");
  expect_bad_shard("\"session.count\": \"2\"",
                   "\"session.count\": 18446744073709551616");
}

TEST(ShardParser, RejectsFractionalIntegers) {
  expect_bad_shard("\"sessions\": 2", "\"sessions\": 2.5");
  expect_bad_shard("\"session.count\": \"2\"", "\"session.count\": 2.5");
}

TEST(ShardParser, RejectsNonNumericHistogramBuckets) {
  expect_bad_shard("\"-2\": \"1\"", "\"x\": \"1\"");
  expect_bad_shard("\"-2\": \"1\"", "\"-2x\": \"1\"");
  expect_bad_shard("\"-2\": \"1\"", "\"\": \"1\"");
}

// Each day total the file repeats must agree with the registry and samples
// it is derived from.

TEST(ShardParser, RejectsUnfinishedDownloadsThatDisagreeWithRegistry) {
  expect_bad_shard("\"unfinished_downloads\": 1",
                   "\"unfinished_downloads\": 0");
}

TEST(ShardParser, RejectsAbrDecisionsThatDisagreeWithRegistry) {
  expect_bad_shard("\"abr_decisions\": \"7\"", "\"abr_decisions\": \"8\"");
}

TEST(ShardParser, RejectsAbrSwitchesThatDisagreeWithRegistry) {
  expect_bad_shard("\"abr_switches\": \"3\"", "\"abr_switches\": \"4\"");
}

TEST(ShardParser, RejectsAbrSwitchMagnitudeThatDisagreesWithRegistry) {
  expect_bad_shard("\"abr_switch_magnitude\": \"4\"",
                   "\"abr_switch_magnitude\": \"5\"");
}

TEST(ShardParser, RejectsAbrSessionsThatDisagreeWithUtilitySamples) {
  expect_bad_shard("\"abr_sessions\": 2", "\"abr_sessions\": 3");
}

// The headline contract, straight from the acceptance criteria: merge of a
// spool worked by {1, 2, 5} worker instances x XLINK_JOBS {1, 4} is
// byte-identical to the in-process sweep.
TEST(GridShard, MergeMatchesInProcessAtEveryShardAndJobCount) {
  const GridSpec spec = mixed_grid();
  const std::string baseline = render(spec, run_grid_inprocess(spec, 1));

  int combo = 0;
  for (const int workers : {1, 2, 5}) {
    for (const unsigned jobs : {1u, 4u}) {
      const std::string dir =
          fresh_spool_dir("combo" + std::to_string(combo++));
      Spool::plan(spec, dir);
      // Worker "processes" as independent Spool instances draining the
      // same directory concurrently — the same claim protocol real
      // processes use, plus a thread race on every rename.
      std::vector<std::thread> crew;
      for (int w = 0; w < workers; ++w)
        crew.emplace_back([&dir, jobs] {
          Spool spool(dir);
          run_worker(spool, jobs);
        });
      for (std::thread& t : crew) t.join();

      Spool spool(dir);
      std::vector<std::size_t> missing;
      const auto results = spool.collect(&missing);
      EXPECT_TRUE(missing.empty());
      EXPECT_EQ(render(spool.spec(), results), baseline)
          << workers << " workers, jobs=" << jobs;
      fs::remove_all(dir);
    }
  }
}

TEST(GridShard, FecArmMergesIdenticallyAtEveryShardCount) {
  // FEC options ride the manifest codec: a sharded fec+reinject grid must
  // reproduce the in-process merge byte-for-byte at every shard count
  // (a dropped or mis-parsed FEC field would change the day's arithmetic).
  GridSpec spec;
  spec.name = "test-fec";
  GridCell cell;
  cell.label = "fec-day";
  cell.scheme_a = core::Scheme::kXlink;
  cell.options_a.xlink_redundancy = core::XlinkRedundancy::kReinjectPlusFec;
  cell.options_a.fec.window = 8;
  cell.options_a.fec.min_repairs = 2;
  cell.options_a.fec.max_repairs = 4;
  cell.pop = tiny_pop();
  cell.day_seed = 7301;
  spec.cells.push_back(cell);
  GridCell ab = cell;
  ab.label = "fec-ab";
  ab.ab = true;
  ab.scheme_b = core::Scheme::kXlink;
  ab.options_b = cell.options_a;
  ab.options_a.xlink_redundancy = core::XlinkRedundancy::kReinject;
  ab.day_seed = 7302;
  spec.cells.push_back(ab);

  const std::string baseline = render(spec, run_grid_inprocess(spec, 1));
  for (const int workers : {1, 2, 5}) {
    const std::string dir =
        fresh_spool_dir("fec_w" + std::to_string(workers));
    Spool::plan(spec, dir);
    std::vector<std::thread> crew;
    for (int w = 0; w < workers; ++w)
      crew.emplace_back([&dir] {
        Spool spool(dir);
        run_worker(spool, 4);
      });
    for (std::thread& t : crew) t.join();

    Spool spool(dir);
    std::vector<std::size_t> missing;
    const auto results = spool.collect(&missing);
    EXPECT_TRUE(missing.empty());
    EXPECT_EQ(render(spool.spec(), results), baseline)
        << workers << " workers";
    fs::remove_all(dir);
  }
}

TEST(GridShard, AbrArmMergesIdenticallyAtEveryShardAndJobCount) {
  // The ABR ablation grid rides the same spool contract: the controller
  // choice and chunking knobs travel through the manifest codec and the
  // new DayMetrics ABR fields through the cell-result codec, so any
  // asymmetry in either shows up as a merge mismatch. Uses the real
  // "abr-smoke" grid (6 arms: {minrtt, xlink} x {rate, buffer, hybrid})
  // exactly as CI runs it.
  const GridSpec spec = grids::build_grid("abr-smoke").spec;
  ASSERT_EQ(spec.cells.size(), 6u);
  const std::string baseline = render(spec, run_grid_inprocess(spec, 1));
  ASSERT_NE(baseline.find("abr_decisions"), std::string::npos);

  int combo = 0;
  for (const int workers : {1, 2, 5}) {
    for (const unsigned jobs : {1u, 4u}) {
      const std::string dir =
          fresh_spool_dir("abr_combo" + std::to_string(combo++));
      Spool::plan(spec, dir);
      std::vector<std::thread> crew;
      for (int w = 0; w < workers; ++w)
        crew.emplace_back([&dir, jobs] {
          Spool spool(dir);
          run_worker(spool, jobs);
        });
      for (std::thread& t : crew) t.join();

      Spool spool(dir);
      std::vector<std::size_t> missing;
      const auto results = spool.collect(&missing);
      EXPECT_TRUE(missing.empty());
      EXPECT_EQ(render(spool.spec(), results), baseline)
          << workers << " workers, jobs=" << jobs;
      fs::remove_all(dir);
    }
  }
}

TEST(GridShard, ConcurrentClaimsNeverDoubleAssign) {
  // Claim-protocol stress: many threads race claim_next on a grid of empty
  // cells; every cell must be claimed exactly once.
  GridSpec spec;
  spec.name = "claim-race";
  for (int i = 0; i < 64; ++i) {
    GridCell cell;
    cell.label = "c";
    cell.label += std::to_string(i);
    cell.pop = tiny_pop();
    cell.day_seed = 9000 + static_cast<std::uint64_t>(i);
    spec.cells.push_back(cell);
  }
  const std::string dir = fresh_spool_dir("race");
  Spool::plan(spec, dir);

  std::mutex mu;
  std::vector<std::size_t> claimed;
  std::vector<std::thread> crew;
  for (int w = 0; w < 8; ++w)
    crew.emplace_back([&] {
      Spool spool(dir);
      while (auto index = spool.claim_next()) {
        {
          std::lock_guard lk(mu);
          claimed.push_back(*index);
        }
        // Complete with a dummy result so claim_next converges; the race
        // under test is claiming, not cell execution.
        spool.complete(*index, CellResult{});
      }
    });
  for (std::thread& t : crew) t.join();

  EXPECT_EQ(claimed.size(), spec.cells.size());
  EXPECT_EQ(std::set<std::size_t>(claimed.begin(), claimed.end()).size(),
            spec.cells.size());
  fs::remove_all(dir);
}

TEST(GridShard, ResumeSkipsCompletedCells) {
  const GridSpec spec = mixed_grid(1);
  const std::string dir = fresh_spool_dir("resume");
  Spool::plan(spec, dir);
  {
    Spool spool(dir);
    run_worker(spool, 2);
    EXPECT_EQ(spool.completed(), spec.cells.size());
  }
  // A second worker on the finished spool must find nothing to do.
  Spool again(dir);
  const WorkerReport report = run_worker(again, 2);
  EXPECT_TRUE(report.cell_wall_seconds.empty());
  fs::remove_all(dir);
}

TEST(GridShard, PlannedPrecomputedCellsAreNeverRerun) {
  const GridSpec spec = mixed_grid(1);
  CellResult canned = run_cell(spec.cells[0], 1);
  const std::string dir = fresh_spool_dir("precomputed");
  Spool planned = Spool::plan(spec, dir, {{0, canned}});
  EXPECT_TRUE(planned.has_result(0));
  Spool spool(dir);
  const WorkerReport report = run_worker(spool, 2);
  for (const auto& [index, seconds] : report.cell_wall_seconds)
    EXPECT_NE(index, 0u);  // cell 0 came from the plan
  EXPECT_EQ(spool.completed(), spec.cells.size());
  fs::remove_all(dir);
}

TEST(GridShard, KilledWorkerMidGridResumesToIdenticalMerge) {
  const GridSpec spec = mixed_grid();
  const std::string baseline = render(spec, run_grid_inprocess(spec, 1));
  const std::string dir = fresh_spool_dir("crash");
  Spool::plan(spec, dir);

  // A real worker process that completes one cell, claims a second, and
  // dies without finishing it — the mid-grid kill of the acceptance
  // criteria.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    Spool spool(dir);
    if (auto first = spool.claim_next())
      spool.complete(*first, run_cell(spool.spec().cells[*first], 1));
    (void)spool.claim_next();  // claim held at death
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);

  // Exactly one completed cell and one orphaned claim.
  Spool spool(dir);
  EXPECT_EQ(spool.completed(), 1u);

  // The resumed worker must reclaim the dead child's cell and finish the
  // grid; merge stays byte-identical to the in-process sweep.
  run_worker(spool, 4);
  std::vector<std::size_t> missing;
  const auto results = spool.collect(&missing);
  EXPECT_TRUE(missing.empty());
  EXPECT_EQ(render(spool.spec(), results), baseline);
  fs::remove_all(dir);
}

TEST(GridShard, AbandonReturnsClaimToPool) {
  const GridSpec spec = mixed_grid(0);
  const std::string dir = fresh_spool_dir("abandon");
  Spool::plan(spec, dir);
  Spool spool(dir);
  const auto first = spool.claim_next();
  ASSERT_TRUE(first.has_value());
  spool.abandon(*first);
  // The abandoned cell is claimable again (lowest index first).
  const auto again = spool.claim_next();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *first);
  EXPECT_THROW(spool.abandon(999), std::runtime_error);
  fs::remove_all(dir);
}

TEST(GridShard, ReclaimAllClaimsForceRespools) {
  const GridSpec spec = mixed_grid(0);
  const std::string dir = fresh_spool_dir("reclaim");
  Spool::plan(spec, dir);
  Spool spool(dir);
  std::size_t claimed = 0;
  while (spool.claim_next().has_value()) ++claimed;
  ASSERT_EQ(claimed, spec.cells.size());
  // Every cell is claimed by THIS (live) process, so a fresh worker
  // cannot steal them...
  Spool other(dir);
  EXPECT_FALSE(other.claim_next().has_value());
  // ...until the cross-machine escape hatch force-respools them.
  EXPECT_EQ(other.reclaim_all_claims(), claimed);
  EXPECT_TRUE(other.claim_next().has_value());
  fs::remove_all(dir);
}

TEST(GridShard, Fig10GridDerivesThresholdsFromCalibration) {
  // Build the real fig10 grid at smoke scale and check its shape: the
  // calibration cell is precomputed, the settings cells carry thresholds
  // derived from the calibration playtime distribution.
  const auto planned = grids::build_grid("fig10-smoke", 2);
  ASSERT_EQ(planned.precomputed.size(), 1u);
  EXPECT_EQ(planned.precomputed[0].first, 0u);
  ASSERT_EQ(planned.spec.cells.size(), 9u);
  EXPECT_EQ(planned.spec.cells[0].label, "calibration");
  EXPECT_EQ(planned.spec.cells[1].label, "sp");
  EXPECT_TRUE(planned.spec.cells[0].sample_playtime);
  EXPECT_TRUE(planned.spec.cells[0].raw_session_seeds);

  const stats::Summary& playtime = planned.precomputed[0].second.playtime_a;
  ASSERT_FALSE(playtime.empty());
  const auto th = [&playtime](double x) {
    return static_cast<sim::Duration>(playtime.percentile(100.0 - x) *
                                      sim::kMillisecond);
  };
  const GridCell& c9080 = planned.spec.cells[4];
  EXPECT_EQ(c9080.label, "90-80");
  EXPECT_EQ(c9080.options_a.control.tth1, th(90));
  EXPECT_GE(c9080.options_a.control.tth2, c9080.options_a.control.tth1);

  EXPECT_THROW(grids::build_grid("no-such-grid"), std::runtime_error);
}

}  // namespace
}  // namespace xlink::harness::shard
