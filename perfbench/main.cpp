// xlink_perfbench: the repository benchmark.
//
// Runs one named session workload closed-loop for a fixed time and prints
// its end-to-end metrics (tracing off) or its per-layer metrics (a traced
// run, compared against an untraced one in the same process). The library
// is driven only through its public API: run_sessions_parallel with a
// setup hook, fold_day, the shard codec, and the Session / Connection /
// EmulatedPath hooks that the benchmark wraps with its own spans. Nothing
// inside src/ is instrumented.
//
// Usage:
//   xlink_perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//                   [--expect-digest HEX]
//   xlink_perfbench --workload NAME --seed N --digest-only
//   xlink_perfbench --list
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when the
// output check passed.
#include <sched.h>
#include <sys/resource.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness/parallel.h"
#include "harness/shard.h"
#include "kernels.h"
#include "net/packet_buffer.h"
#include "perfbench.h"
#include "quic/guard.h"
#include "trace/synthetic.h"

namespace xlink::perfbench {
namespace {

// -------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  const char* why;
  bool parallel;         // min(nproc, 4) workers; otherwise serial
  std::size_t sessions;  // per batch
  harness::SessionConfig (*make)(std::uint64_t seed, std::size_t i);
  harness::shard::GridCell (*cell)(std::uint64_t seed);
};

std::uint64_t session_seed(std::uint64_t seed, std::size_t i) {
  return seed * 1000003ULL + i;  // run_day's derivation
}

// ab_day: one fig11-shaped A/B day, both arms in one parallel batch,
// exactly as run_ab_day lays it out (SP in slots [0, N), XLINK in [N, 2N)).
// The day is the default population, enlarged so that one day's aggregates
// vary little from one workload seed to the next.
harness::PopulationConfig ab_day_population() {
  harness::PopulationConfig pop;
  pop.sessions_per_day = 160;
  return pop;
}

harness::shard::GridCell ab_day_cell(std::uint64_t seed) {
  harness::shard::GridCell cell;
  cell.label = "ab_day";
  cell.ab = true;
  cell.scheme_a = core::Scheme::kSinglePath;
  cell.scheme_b = core::Scheme::kXlink;
  cell.pop = ab_day_population();
  cell.day_seed = seed;
  return cell;
}

harness::SessionConfig ab_day_session(std::uint64_t seed, std::size_t i) {
  const harness::PopulationConfig pop = ab_day_population();
  const auto n = static_cast<std::size_t>(pop.sessions_per_day);
  const bool xlink = i >= n;
  harness::SessionConfig cfg = harness::draw_session_conditions(
      pop, session_seed(seed, xlink ? i - n : i));
  cfg.scheme = xlink ? core::Scheme::kXlink : core::Scheme::kSinglePath;
  return cfg;
}

// burst_loss: the heaviest arm of the FEC ablation (re-injection plus FEC)
// with BBR and pacing, under Gilbert-Elliott burst loss on both paths.
core::SchemeOptions burst_loss_options() {
  core::SchemeOptions o;
  o.xlink_redundancy = core::XlinkRedundancy::kReinjectPlusFec;
  o.fec.window = 8;
  o.fec.min_repairs = 4;
  o.fec.max_repairs = 6;
  o.fec.loss_multiplier = 8.0;
  o.cc = quic::CcAlgorithm::kBbr;
  o.pacing = true;
  return o;
}

harness::shard::GridCell burst_loss_cell(std::uint64_t seed) {
  harness::shard::GridCell cell;
  cell.label = "burst_loss";
  cell.options_a = burst_loss_options();
  cell.day_seed = seed;
  return cell;
}

harness::SessionConfig burst_loss_session(std::uint64_t seed, std::size_t i) {
  const std::uint64_t s = session_seed(seed, i);
  harness::SessionConfig cfg;
  cfg.scheme = core::Scheme::kXlink;
  cfg.options = burst_loss_options();
  cfg.seed = s;
  cfg.time_limit = sim::seconds(60);
  cfg.video.duration = sim::seconds(12);
  cfg.video.bitrate_bps = 3'000'000;
  cfg.video.first_frame_bytes = 128 * 1024;
  cfg.video.seed = s;
  cfg.client.chunk_bytes = 256 * 1024;
  cfg.client.max_concurrent = 2;
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi, trace::campus_walk_wifi(s * 5 + 1, sim::seconds(40)),
      sim::millis(30)));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::stable_lte(s * 5 + 2, sim::seconds(40)),
      sim::millis(90)));
  net::PathSpec::GeLoss ge;
  ge.p_good_to_bad = 0.006;
  ge.p_bad_to_good = 0.35;
  ge.loss_good = 0.0;
  ge.loss_bad = 0.45;
  for (auto& p : cfg.paths) p.ge_loss = ge;
  return cfg;
}

// long_hd: one long high-bitrate video over two clean paths.
harness::shard::GridCell long_hd_cell(std::uint64_t seed) {
  harness::shard::GridCell cell;
  cell.label = "long_hd";
  cell.day_seed = seed;
  return cell;
}

harness::SessionConfig long_hd_session(std::uint64_t seed, std::size_t i) {
  const std::uint64_t s = session_seed(seed, i);
  harness::SessionConfig cfg;
  cfg.scheme = core::Scheme::kXlink;
  cfg.seed = s;
  cfg.time_limit = sim::seconds(120);
  cfg.video.duration = sim::seconds(60);
  cfg.video.bitrate_bps = 8'000'000;
  cfg.video.seed = s;
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::k5gNsa, trace::nr_5g(s * 5 + 1, sim::seconds(90)),
      sim::millis(30)));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::stable_lte(s * 5 + 2, sim::seconds(90)),
      sim::millis(60)));
  return cfg;
}

const Workload kWorkloads[] = {
    {"ab_day",
     "fig11-shaped SP vs XLINK day on the parallel engine, fold and shard "
     "codec; short sessions, so set-up is a visible share",
     true, 320, ab_day_session, ab_day_cell},
    {"burst_loss",
     "XLINK re-injection plus FEC, BBR and pacing under Gilbert-Elliott burst "
     "loss; loss recovery, timers and FEC do their work here",
     false, 24, burst_loss_session, burst_loss_cell},
    {"long_hd",
     "60 s videos at 8 Mb/s over clean 5G NSA plus LTE; per-byte stream work "
     "and memory that grows with content length",
     false, 1, long_hd_session, long_hd_cell},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

// ---------------------------------------------------------------- metrics

/// kSpeed metrics are the gated end-to-end numbers (--trace 0). kOutcome
/// metrics are the session outcomes: printed with them, but reported with
/// the traced run, because they are exact functions of code and seed (the
/// digest guards them bit for bit), and some are zero by design. kLayer
/// metrics come from the traced run and the kernels (--trace 1).
enum class Group { kSpeed, kOutcome, kLayer };

struct MetricDef {
  const char* name;
  const char* unit;
  Group group;
  const char* meaning;
};

const MetricDef kMetrics[] = {
    {"sessions_per_s", "1/s", Group::kSpeed,
     "sessions / batch wall time, median over batches"},
    {"session_ms_p50", "ms", Group::kSpeed,
     "session wall time, construction to teardown, median"},
    {"session_ms_tail", "ms", Group::kSpeed,
     "highest percentile with >=10 sessions beyond it"},
    {"cpu_ms_per_session", "ms", Group::kSpeed,
     "process user+sys CPU / sessions, median over batches"},
    {"peak_rss_mb", "MB", Group::kSpeed,
     "ru_maxrss of this single-workload process"},
    {"setup_s", "s", Group::kSpeed,
     "make_config entry to setup hook, summed per batch, median"},
    {"session_fail_ratio", "ratio", Group::kOutcome,
     "failed / attempted sessions"},
    {"rebuffer_pct", "%", Group::kOutcome,
     "DayMetrics::rebuffer_rate x 100, XLINK arm"},
    {"chunk_rct_p99_s", "s", Group::kOutcome,
     "chunk request completion time, p99"},
    {"first_frame_ms_p50", "ms", Group::kOutcome,
     "first-video-frame latency, median"},
    {"redundancy_pct", "%", Group::kOutcome,
     "re-injected + FEC repair bytes / first transmission"},
    {"harness.session_setup_ms", "ms", Group::kLayer,
     "mean set-up time per session"},
    {"harness.worker_busy_ratio", "ratio", Group::kLayer,
     "sum session wall / (batch wall x workers)"},
    {"harness.straggler_s", "s", Group::kLayer,
     "batch wall - time the first worker went idle"},
    {"harness.fold_codec_ms", "ms", Group::kLayer,
     "fold_day per arm + shard codec round trip"},
    {"http.server.on_readable.calls", "count", Group::kLayer, "per session"},
    {"http.server.on_readable.self_us", "us", Group::kLayer, "per session"},
    {"http.server.on_readable.share", "%", Group::kLayer,
     "of session run time"},
    {"http.client.on_readable.calls", "count", Group::kLayer, "per session"},
    {"http.client.on_readable.self_us", "us", Group::kLayer, "per session"},
    {"http.client.on_readable.share", "%", Group::kLayer,
     "of session run time"},
    {"quic.client.on_datagram.calls", "count", Group::kLayer, "per session"},
    {"quic.client.on_datagram.self_us", "us", Group::kLayer, "per session"},
    {"quic.client.on_datagram.share", "%", Group::kLayer,
     "of session run time"},
    {"quic.server.on_datagram.calls", "count", Group::kLayer, "per session"},
    {"quic.server.on_datagram.self_us", "us", Group::kLayer, "per session"},
    {"quic.server.on_datagram.share", "%", Group::kLayer,
     "of session run time"},
    {"quic.server.packets_sent", "count", Group::kLayer, "per session"},
    {"quic.server.packets_lost", "count", Group::kLayer, "per session"},
    {"quic.server.ptos", "count", Group::kLayer, "per session"},
    {"quic.server.retransmitted_bytes", "B", Group::kLayer, "per session"},
    {"quic.client.acks_sent", "count", Group::kLayer, "per session"},
    {"net.send.calls", "count", Group::kLayer, "per session"},
    {"net.send.self_ns", "ns", Group::kLayer, "per call"},
    {"net.pool_slab_allocs", "count", Group::kLayer,
     "per session, on the session's thread"},
    {"net.pool_oversize_allocs", "count", Group::kLayer, "per session"},
    {"sim.events_fired", "count", Group::kLayer, "per session"},
    {"sim.other.share", "%", Group::kLayer,
     "session run time outside every span"},
    {"core.reinjected_bytes", "B", Group::kLayer, "per session"},
    {"fec.repair_packets", "count", Group::kLayer, "per session"},
    {"fec.recovered_packets", "count", Group::kLayer, "per session"},
    {"fec.useful_ratio", "ratio", Group::kLayer,
     "recovered / repair packets sent"},
    {"quic.aead_seal_open_ns.1200B", "ns", Group::kLayer, "kernel"},
    {"quic.aead_seal_open_ns.ack", "ns", Group::kLayer,
     "kernel, smallest (ACK-only) packet"},
    {"quic.frame_parse_ns.1200B", "ns", Group::kLayer, "kernel"},
    {"sim.schedule_fire_ns", "ns", Group::kLayer, "kernel, per event"},
    {"fec.encode_decode_ns_per_pkt", "ns", Group::kLayer,
     "kernel, per source packet"},
    {"video.byte_fill_ns_per_byte", "ns", Group::kLayer, "kernel"},
    {"bench.trace_overhead_pct", "%", Group::kLayer,
     "traced vs untraced session_ms_p50"},
};

// ---------------------------------------------------------------- batches

/// What the benchmark learns about one session from outside the library.
struct SessionSlot {
  SpanRecorder spans;
  std::thread::id thread;
  std::int64_t config_ns = 0;  // make_config entry
  std::int64_t setup_ns = 0;   // setup hook entry (Session constructed)
  std::int64_t run_ns = 0;     // setup hook exit (run() about to start)
  std::int64_t end_ns = 0;     // teardown
  std::uint64_t events = 0;
  std::uint64_t slab_allocs = 0;
  std::uint64_t oversize_allocs = 0;
  net::PacketBufferPool::Counters pool_at_setup;
  bool ended = false;
};

/// Stamps a session's teardown from the destructor of a callable owned by
/// its client connection. ~Session destroys the connections after the
/// media layers and before the network and event loop, so the loop's event
/// count is still readable here, and the stamp covers nearly all teardown.
class TeardownProbe {
 public:
  TeardownProbe(SessionSlot& slot, const sim::EventLoop& loop)
      : slot_(slot), loop_(loop) {}
  ~TeardownProbe() {
    slot_.end_ns = now_ns();
    slot_.events = loop_.events_fired();
    const auto& pool = net::PacketBufferPool::local().counters();
    slot_.slab_allocs = pool.slab_allocs - slot_.pool_at_setup.slab_allocs;
    slot_.oversize_allocs =
        pool.oversize_allocs - slot_.pool_at_setup.oversize_allocs;
    slot_.ended = true;
  }
  TeardownProbe(const TeardownProbe&) = delete;
  TeardownProbe& operator=(const TeardownProbe&) = delete;

 private:
  SessionSlot& slot_;
  const sim::EventLoop& loop_;
};

void wrap_readable(quic::Connection& conn, SpanRecorder& rec, SpanKind kind) {
  conn.on_stream_readable = [inner = std::move(conn.on_stream_readable), &rec,
                             kind](quic::StreamId id) {
    Span span(rec, kind);
    inner(id);
  };
}

/// Re-binds the session's layer boundaries through spans. Each replacement
/// does exactly what the harness Endpoint and the media layers installed,
/// so session outcomes are unchanged.
void install_spans(harness::Session& s, SpanRecorder& rec) {
  net::Network& network = s.network();
  quic::Connection& client = s.client_conn();
  quic::Connection& server = s.server_conn();
  for (std::size_t i = 0; i < network.path_count(); ++i) {
    const auto id = static_cast<quic::PathId>(i);
    network.path(i).set_down_receiver([&rec, &client, id](net::Datagram d) {
      Span span(rec, SpanKind::kClientDatagram);
      client.on_datagram(id, std::move(d));
    });
    network.path(i).set_up_receiver([&rec, &server, id](net::Datagram d) {
      Span span(rec, SpanKind::kServerDatagram);
      server.on_datagram(id, std::move(d));
    });
  }
  // Path ids beyond the link count wrap onto links, as in the Endpoint.
  client.set_send_callback(
      [&rec, &network](quic::PathId path, net::Datagram d) {
        Span span(rec, SpanKind::kNetSend);
        if (network.path_count() == 0) return;
        network.path(path % network.path_count()).send_up(std::move(d));
      });
  server.set_send_callback(
      [&rec, &network](quic::PathId path, net::Datagram d) {
        Span span(rec, SpanKind::kNetSend);
        if (network.path_count() == 0) return;
        network.path(path % network.path_count()).send_down(std::move(d));
      });
  wrap_readable(client, rec, SpanKind::kClientReadable);
  wrap_readable(server, rec, SpanKind::kServerReadable);
}

/// One batch's measurements and its folded outcome.
struct BatchStats {
  std::size_t sessions = 0;
  std::size_t failed = 0;
  std::string error;
  double wall_s = 0.0;
  double setup_s = 0.0;
  double busy_ratio = 0.0;
  double straggler_s = 0.0;
  double fold_codec_ms = 0.0;
  double cpu_s = 0.0;  // process user+sys CPU over the batch
  std::vector<double> session_ms;
  Digest digest;
  // Traced accumulations over the batch's sessions.
  std::array<SpanTotals, kSpanKinds> spans{};
  std::int64_t run_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t slab_allocs = 0;
  std::uint64_t oversize_allocs = 0;
  harness::shard::CellResult cell;
};

harness::shard::CellResult fold(const Workload& w,
                                const std::vector<harness::SessionResult>& r) {
  harness::shard::CellResult cell;
  if (w.cell(0).ab) {
    const std::size_t n = r.size() / 2;
    cell.arm_a = harness::fold_day({r.begin(), r.begin() + n});
    cell.arm_b = harness::fold_day({r.begin() + n, r.end()});
  } else {
    cell.arm_a = harness::fold_day(r);
  }
  return cell;
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

BatchStats run_batch(const Workload& w, std::uint64_t seed, unsigned jobs,
                     bool traced) {
  BatchStats b;
  b.sessions = w.sessions;
  std::vector<SessionSlot> slots(w.sessions);
  std::vector<harness::SessionResult> results;

  const std::int64_t start = now_ns();
  const double cpu0 = cpu_seconds();
  try {
    results = harness::run_sessions_parallel(
        w.sessions,
        [&](std::size_t i) {
          slots[i].config_ns = now_ns();
          slots[i].thread = std::this_thread::get_id();
          return w.make(seed, i);
        },
        [&](std::size_t i, harness::Session& s) {
          SessionSlot& slot = slots[i];
          slot.setup_ns = now_ns();
          slot.pool_at_setup = net::PacketBufferPool::local().counters();
          auto probe = std::make_shared<TeardownProbe>(slot, s.loop());
          quic::Connection& client = s.client_conn();
          client.on_established =
              [inner = std::move(client.on_established), probe] { inner(); };
          if (traced) install_spans(s, slot.spans);
          slot.run_ns = now_ns();
        },
        jobs);
  } catch (const std::exception& e) {
    b.error = e.what();
    b.failed = w.sessions;
  }
  const std::int64_t run_end = now_ns();

  if (b.error.empty()) {
    for (const auto& r : results)
      if (!r.download_finished) ++b.failed;
    const std::int64_t t0 = now_ns();
    b.cell = fold(w, results);
    b.digest = digest_of(w.cell(seed), b.cell);
    b.fold_codec_ms = static_cast<double>(now_ns() - t0) / 1e6;
  }
  b.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  b.cpu_s = cpu_seconds() - cpu0;

  // Per-worker last end: the first worker to go idle bounds the straggler.
  std::map<std::thread::id, std::int64_t> last_end;
  double busy_ns = 0.0;
  for (const SessionSlot& slot : slots) {
    if (!slot.ended) {
      if (b.error.empty()) b.error = "a session was never torn down";
      continue;
    }
    const double session_ns = static_cast<double>(slot.end_ns - slot.config_ns);
    busy_ns += session_ns;
    b.session_ms.push_back(session_ns / 1e6);
    b.setup_s +=static_cast<double>(slot.setup_ns - slot.config_ns) / 1e9;
    auto& end = last_end[slot.thread];
    end = std::max(end, slot.end_ns);
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      b.spans[k].calls += slot.spans.totals(static_cast<SpanKind>(k)).calls;
      b.spans[k].self_ns += slot.spans.totals(static_cast<SpanKind>(k)).self_ns;
    }
    b.run_ns += slot.end_ns - slot.run_ns;
    b.events += slot.events;
    b.slab_allocs += slot.slab_allocs;
    b.oversize_allocs += slot.oversize_allocs;
  }
  const double run_wall_ns = static_cast<double>(run_end - start);
  b.busy_ratio = run_wall_ns > 0 ? busy_ns / (run_wall_ns * jobs) : 0.0;
  if (!last_end.empty()) {
    std::int64_t first_idle = run_end;
    for (const auto& [thread, end] : last_end)
      first_idle = std::min(first_idle, end);
    // A worker that never ran a session was idle from the start.
    if (last_end.size() < jobs) first_idle = start;
    b.straggler_s = static_cast<double>(run_end - first_idle) / 1e9;
  }
  return b;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Phase {
  std::vector<BatchStats> batches;
  std::size_t sessions = 0;

  bool add(BatchStats b) {
    sessions += b.sessions;
    batches.push_back(std::move(b));
    return batches.back().error.empty();
  }
};

/// Moves the calling thread from CPU to CPU of the set the process started
/// with, and restores that set when destroyed. On a shared host the speed
/// of one virtual CPU drifts by tens of percent as its sibling threads get
/// busy, and a lone serial thread stays wherever it first ran; rotating the
/// serial batches over every CPU makes each run sample the same mix.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin_next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);  // best effort
  }

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Closed-loop rounds for about `seconds`, at least `min_rounds`. A round is
/// one untraced batch, followed by one traced batch when `traced` is given:
/// alternating them lets a slow spell of a shared machine hit both sides of
/// the trace-overhead comparison alike. Serial rounds rotate over the CPUs.
/// Another round starts while it would end less than half a round past the
/// budget, so the round count does not flip on small speed changes.
void run_rounds(const Workload& w, std::uint64_t seed, unsigned jobs,
                double seconds, std::size_t min_rounds, Phase& plain,
                Phase* traced) {
  CpuRotation rotation;
  const std::int64_t start = now_ns();
  for (std::size_t rounds = 1;; ++rounds) {
    const std::int64_t round_start = now_ns();
    if (jobs == 1) rotation.pin_next();
    if (!plain.add(run_batch(w, seed, jobs, false))) return;
    if (traced && !traced->add(run_batch(w, seed, jobs, true))) return;
    const std::int64_t end = now_ns();
    const double elapsed = static_cast<double>(end - start) / 1e9;
    const double round = static_cast<double>(end - round_start) / 1e9;
    if (rounds >= min_rounds && elapsed + round / 2 >= seconds) return;
  }
}

/// Each session's wall time over the phase's repetitions of it, as
/// repeated_time, so a slow spell of the machine does not reach the
/// percentiles.
std::vector<double> per_session_ms(const Phase& p) {
  std::vector<double> out;
  if (p.batches.empty()) return out;
  for (std::size_t i = 0; i < p.batches.front().session_ms.size(); ++i) {
    std::vector<double> reps;
    for (const BatchStats& b : p.batches)
      if (i < b.session_ms.size()) reps.push_back(b.session_ms[i]);
    out.push_back(repeated_time(std::move(reps)));
  }
  return out;
}

/// One value per batch of the phase.
template <typename F>
std::vector<double> per_batch(const Phase& p, F&& f) {
  std::vector<double> v;
  for (const BatchStats& b : p.batches) v.push_back(f(b));
  return v;
}

// ---------------------------------------------------------------- running

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool have_seed = false;
  double seconds = 10.0;
  bool trace = false;
  bool list = false;
  bool digest_only = false;
  std::string expect_digest;
};

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: xlink_perfbench --workload NAME --seed N [--seconds S] "
               "[--trace 0|1] [--expect-digest HEX]\n"
               "       xlink_perfbench --workload NAME --seed N --digest-only\n"
               "       xlink_perfbench --list\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(out, " %s", w.name);
  std::fprintf(out, "\n");
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (*s == '\0' || *s == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      o.list = true;
      continue;
    }
    if (arg == "--digest-only") {
      o.digest_only = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const char* value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, o.seed)) return std::nullopt;
      o.have_seed = true;
    } else if (arg == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(o.seconds > 0.0 && o.seconds <= 600.0))
        return std::nullopt;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return std::nullopt;
      o.trace = value[0] == '1';
    } else if (arg == "--expect-digest") {
      o.expect_digest = value;
    } else {
      return std::nullopt;
    }
  }
  if (o.list) return o;
  if (!find_workload(o.workload) || !o.have_seed) return std::nullopt;
  return o;
}

/// The JSON of --trace 0 carries the speed metrics; that of --trace 1 the
/// outcomes and the layer metrics.
bool reported(const MetricDef& m, bool trace) {
  return (m.group == Group::kSpeed) != trace;
}

void list_all() {
  std::printf("workloads:\n");
  for (const Workload& w : kWorkloads)
    std::printf("  %-12s %s\n", w.name, w.why);
  for (const bool trace : {false, true}) {
    std::printf("metrics reported with --trace %d:\n", trace ? 1 : 0);
    for (const MetricDef& m : kMetrics)
      if (reported(m, trace))
        std::printf("  %-34s %-6s %s\n", m.name, m.unit, m.meaning);
  }
}

/// Collects named values and emits them in catalogue order.
class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }

  void note(const std::string& name, std::string text) {
    notes_[name] = std::move(text);
  }

  /// Human-readable lines for every measured metric of the groups.
  void print(const char* title, Group a, Group b) const {
    std::printf("%s\n", title);
    for (const MetricDef& m : kMetrics) {
      const auto it = values_.find(m.name);
      if ((m.group != a && m.group != b) || it == values_.end()) continue;
      const auto note = notes_.find(m.name);
      std::printf("  %-34s %14.4f %-6s%s%s\n", m.name, it->second, m.unit,
                  note == notes_.end() ? "" : "  ",
                  note == notes_.end() ? "" : note->second.c_str());
    }
  }

  /// The JSON "metrics" object of one mode; false if a metric is missing.
  bool json(bool trace, std::string& out) const {
    out = "{";
    for (const MetricDef& m : kMetrics) {
      if (!reported(m, trace)) continue;
      const auto it = values_.find(m.name);
      if (it == values_.end()) return false;
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    out.size() > 1 ? ", " : "", m.name, it->second, m.unit);
      out += buf;
    }
    out += "}";
    return true;
  }

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> notes_;
};

/// The XLINK arm's DayMetrics: arm B of the A/B day, the only arm
/// elsewhere.
const harness::DayMetrics& xlink_arm(const BatchStats& b) {
  return b.cell.arm_b.sessions > 0 ? b.cell.arm_b : b.cell.arm_a;
}

/// QoE of the workload's XLINK arm.
void report_outcomes(const BatchStats& b, Report& r) {
  const harness::DayMetrics& day = xlink_arm(b);
  r.set("chunk_rct_p99_s", day.rct.percentile(99));
  r.set("first_frame_ms_p50", day.first_frame.median() * 1000.0);
  r.set("rebuffer_pct", day.rebuffer_rate * 100.0);
  r.set("redundancy_pct", day.redundancy_pct);
}

/// Per-session counters the library already tallies, from the batch's
/// merged registries (all arms).
void report_counters(const BatchStats& b, Report& r) {
  telemetry::MetricsRegistry m = b.cell.arm_a.metrics;
  m.merge(b.cell.arm_b.metrics);
  const double n = static_cast<double>(b.sessions);
  const auto per_session = [&](const char* counter) {
    return static_cast<double>(m.counter(counter)) / n;
  };
  r.set("quic.server.packets_sent", per_session("quic.server.packets_sent"));
  r.set("quic.server.packets_lost", per_session("quic.server.packets_lost"));
  r.set("quic.server.ptos", per_session("quic.server.ptos"));
  r.set("quic.server.retransmitted_bytes",
        per_session("quic.server.retransmitted_bytes"));
  r.set("quic.client.acks_sent", per_session("quic.client.acks_sent"));
  r.set("core.reinjected_bytes", per_session("quic.server.reinjected_bytes"));
  const double repair = per_session("fec.server.repair_packets");
  const double recovered = per_session("fec.client.recovered_packets");
  r.set("fec.repair_packets", repair);
  r.set("fec.recovered_packets", recovered);
  r.set("fec.useful_ratio", repair > 0 ? recovered / repair : 0.0);
}

void report_spans(const Phase& p, Report& r) {
  std::array<SpanTotals, kSpanKinds> spans{};
  std::int64_t run_ns = 0;
  std::uint64_t events = 0, slab = 0, oversize = 0;
  double setup_s = 0.0;
  for (const BatchStats& b : p.batches) {
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      spans[k].calls += b.spans[k].calls;
      spans[k].self_ns += b.spans[k].self_ns;
    }
    run_ns += b.run_ns;
    events += b.events;
    slab += b.slab_allocs;
    oversize += b.oversize_allocs;
    setup_s += b.setup_s;
  }
  const double n = static_cast<double>(p.sessions);
  const auto put = [&](const std::string& name, SpanKind kind) {
    const SpanTotals& t = spans[static_cast<std::size_t>(kind)];
    r.set(name + ".calls", static_cast<double>(t.calls) / n);
    r.set(name + ".self_us", static_cast<double>(t.self_ns) / 1e3 / n);
    r.set(name + ".share", 100.0 * static_cast<double>(t.self_ns) /
                               static_cast<double>(run_ns));
  };
  put("http.server.on_readable", SpanKind::kServerReadable);
  put("http.client.on_readable", SpanKind::kClientReadable);
  put("quic.client.on_datagram", SpanKind::kClientDatagram);
  put("quic.server.on_datagram", SpanKind::kServerDatagram);
  const SpanTotals& send = spans[static_cast<std::size_t>(SpanKind::kNetSend)];
  r.set("net.send.calls", static_cast<double>(send.calls) / n);
  r.set("net.send.self_ns", send.calls ? static_cast<double>(send.self_ns) /
                                             static_cast<double>(send.calls)
                                       : 0.0);
  std::int64_t covered = 0;
  for (const SpanTotals& t : spans) covered += t.self_ns;
  r.set("sim.other.share", 100.0 * static_cast<double>(run_ns - covered) /
                               static_cast<double>(run_ns));
  r.set("sim.events_fired", static_cast<double>(events) / n);
  r.set("net.pool_slab_allocs", static_cast<double>(slab) / n);
  r.set("net.pool_oversize_allocs", static_cast<double>(oversize) / n);
  r.set("harness.session_setup_ms", setup_s * 1e3 / n);
  r.set("harness.worker_busy_ratio",
        median(per_batch(p, [](const BatchStats& b) { return b.busy_ratio; })));
  r.set("harness.straggler_s", median(per_batch(p, [](const BatchStats& b) {
          return b.straggler_s;
        })));
  r.set("harness.fold_codec_ms", median(per_batch(p, [](const BatchStats& b) {
          return b.fold_codec_ms;
        })));
}

int run(const Options& o) {
  const Workload& w = *find_workload(o.workload);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned jobs = w.parallel ? std::min(nproc, 4u) : 1u;
#ifdef XLINK_AUDIT_DISABLED
  const char* audit_hooks = "off";
#else
  const char* audit_hooks = "on";
#endif
#ifdef XLINK_TELEMETRY_DISABLED
  const char* telemetry_hooks = "off";
#else
  const char* telemetry_hooks = "on";
#endif
  std::printf(
      "perfbench: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
      "workers=%u sessions_per_batch=%zu build=%s audit_hooks=%s "
      "audit_runtime=%s telemetry_hooks=%s\n",
      w.name, static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, nproc, jobs, w.sessions, XLINK_PERFBENCH_BUILD_TYPE,
      audit_hooks, quic::audit_enabled_by_env() ? "on" : "off",
      telemetry_hooks);

  std::vector<std::string> problems;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string reference_digest;
  const auto account = [&](const Phase& p, const char* label) {
    for (const BatchStats& b : p.batches) {
      attempted += b.sessions;
      failed += b.failed;
      if (!b.error.empty()) {
        problems.push_back(std::string(label) + ": " + b.error);
        continue;
      }
      if (!b.digest.round_trip)
        problems.push_back(std::string(label) + ": shard codec round trip "
                                                "changed the bytes");
      if (reference_digest.empty()) reference_digest = b.digest.hex;
      if (b.digest.hex != reference_digest) {
        problems.push_back(std::string(label) + ": digest " + b.digest.hex +
                           " differs from " + reference_digest);
        failed += b.sessions;
      }
    }
  };

  if (o.digest_only) {
    Phase one;
    run_rounds(w, o.seed, jobs, 0.0, 1, one, nullptr);
    account(one, "digest");
    for (const std::string& p : problems)
      std::fprintf(stderr, "check failed: %s\n", p.c_str());
    std::printf("digest %s %llu %s\n", w.name,
                static_cast<unsigned long long>(o.seed),
                reference_digest.c_str());
    return problems.empty() && failed == 0 ? 0 : 1;
  }

  // At least two untraced batches, so each digest is compared with a
  // repetition; the first untraced batch is the reference.
  Phase plain;
  std::optional<Phase> traced;
  if (o.trace) traced.emplace();
  run_rounds(w, o.seed, jobs, o.seconds, 2, plain,
             traced ? &*traced : nullptr);
  account(plain, "untraced");
  if (traced) account(*traced, "traced");

  if (!o.expect_digest.empty() && o.expect_digest != reference_digest) {
    problems.push_back("digest " + reference_digest +
                       " differs from the recorded seed-commit digest " +
                       o.expect_digest);
  }

  Report r;
  const std::vector<double> session_ms = per_session_ms(plain);
  const Tail tail = tail_percentile(session_ms);
  r.set("sessions_per_s",
        static_cast<double>(w.sessions) /
            repeated_time(per_batch(
                plain, [](const BatchStats& b) { return b.wall_s; })));
  r.set("session_ms_p50", median(session_ms));
  r.set("session_ms_tail", tail.value);
  char note[96];
  std::snprintf(note, sizeof note, "p%.4g of %zu sessions, %zu beyond",
                tail.percentile, tail.samples, tail.beyond);
  r.note("session_ms_tail", note);
  r.set("cpu_ms_per_session",
        repeated_time(per_batch(plain, [](const BatchStats& b) {
          return b.cpu_s * 1e3 / static_cast<double>(b.sessions);
        })));
  r.set("setup_s", repeated_time(per_batch(
                       plain, [](const BatchStats& b) { return b.setup_s; })));
  r.set("session_fail_ratio", static_cast<double>(failed) /
                                  static_cast<double>(attempted));
  const BatchStats& first = plain.batches.front();
  report_outcomes(first, r);
  r.note("session_fail_ratio", "digest " + reference_digest);

  // A failed first batch leaves the traced phase empty; its metrics then
  // stay unmeasured and the run fails its check.
  if (traced && !traced->batches.empty()) {
    report_spans(*traced, r);
    report_counters(first, r);
    const double traced_p50 = median(per_session_ms(*traced));
    const double plain_p50 = median(session_ms);
    r.set("bench.trace_overhead_pct", 100.0 * (traced_p50 / plain_p50 - 1.0));
    for (const KernelResult& k : run_kernels()) {
      r.set(k.name, k.value);
      if (!k.ok) problems.push_back("kernel " + k.name + " failed its check");
    }
  }
  r.set("peak_rss_mb", peak_rss_mb());

  r.print("end-to-end (untraced):", Group::kSpeed, Group::kOutcome);
  if (traced) r.print("per-layer (traced):", Group::kLayer, Group::kLayer);
  std::string metrics;
  if (!r.json(o.trace, metrics))
    problems.push_back("internal: a reported metric was not measured");
  for (const std::string& p : problems)
    std::printf("check failed: %s\n", p.c_str());

  const bool correct = problems.empty() && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace xlink::perfbench

int main(int argc, char** argv) {
  using namespace xlink::perfbench;
  const std::optional<Options> o = parse_args(argc, argv);
  if (!o) {
    usage(stderr);
    return 2;
  }
  if (o->list) {
    list_all();
    return 0;
  }
  try {
    return run(*o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xlink_perfbench: %s\n", e.what());
    return 1;
  }
}
