// xlink_qlog: analyzer CLI for qlog traces produced by the telemetry
// subsystem. Prints per-path timelines, re-injection efficiency, the
// failover timeline (injected faults + path-health transitions), and
// stall attribution for one trace file.
//
//   xlink_qlog trace.qlog            analyze an existing trace
//   xlink_qlog --window 500 t.qlog   use a 500ms stall-attribution window
//   xlink_qlog --demo                run a built-in traced exemplar
//                                    session, write demo.qlog, analyze it
//
// --demo doubles as the subsystem's end-to-end smoke test (wired into
// ctest): session -> TraceSink -> qlog file -> parser -> analyzer.
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "harness/scenario.h"
#include "telemetry/analyzer.h"
#include "telemetry/qlog.h"
#include "trace/synthetic.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--window MS] <trace.qlog>\n"
               "       %s --demo [out.qlog]\n"
               "MS is a whole number of milliseconds from 1 to 3600000.\n",
               argv0, argv0);
  return 2;
}

/// The --window value: a whole number of milliseconds, 1 ms to one hour.
/// Anything else (a sign, a suffix, an empty string) is rejected.
std::optional<xlink::sim::Duration> parse_window(const char* text) {
  const char* end = text + std::strlen(text);
  std::uint64_t ms = 0;
  const auto [stop, err] = std::from_chars(text, end, ms);
  if (err != std::errc() || stop != end || ms < 1 || ms > 3'600'000)
    return std::nullopt;
  return xlink::sim::millis(ms);
}

// Runs a traced XLINK session over a subway cellular + onboard Wi-Fi
// scenario (lossy enough to exercise loss, PTO, and re-injection events,
// plus a scripted Wi-Fi blackout so the failover timeline has content)
// and writes its qlog to `path`.
bool write_demo_trace(const std::string& path) {
  using namespace xlink;
  harness::SessionConfig cfg;
  cfg.scheme = core::Scheme::kXlink;
  cfg.seed = 4001;
  cfg.time_limit = sim::seconds(60);
  cfg.video.duration = sim::seconds(12);
  cfg.video.bitrate_bps = 2'500'000;
  cfg.client.chunk_bytes = 512 * 1024;
  cfg.client.max_concurrent = 2;
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi, trace::onboard_wifi(9018, sim::seconds(60)),
      sim::millis(60)));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::subway_cellular(9017, sim::seconds(60)),
      sim::millis(110)));
  // Mid-session Wi-Fi outage: drives path-health transitions so the demo
  // report includes a populated failover timeline.
  cfg.paths[0].fault_plan.blackout(sim::seconds(3), sim::seconds(2));
  cfg.trace.enabled = true;
  cfg.trace.qlog_path = path;
  cfg.trace.label = "demo_subway";

  harness::Session session(std::move(cfg));
  const auto result = session.run();
  const auto& m = result.metrics;
  const std::uint64_t completed = m.counter("session.chunks_completed");
  std::printf("demo session: %" PRIu64 "/%" PRIu64 " chunks, %" PRIu64
              " rebuffer(s), wrote %s\n",
              completed, m.counter("session.chunks_total"),
              m.counter("session.rebuffers"), path.c_str());
  return completed > 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xlink;
  bool demo = false;
  sim::Duration window = sim::seconds(1);
  std::string file;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(arg, "--window") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      const auto parsed = parse_window(argv[++i]);
      if (!parsed) return usage(argv[0]);
      window = *parsed;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      return usage(argv[0]);
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg);
      return usage(argv[0]);
    } else {
      file = arg;
    }
  }

  if (demo) {
    if (file.empty()) file = "xlink_qlog_demo.qlog";
    if (!write_demo_trace(file)) {
      std::fprintf(stderr, "demo session failed to make progress\n");
      return 1;
    }
  } else if (file.empty()) {
    return usage(argv[0]);
  }

  const auto trace = telemetry::parse_qlog_file(file);
  if (!trace) {
    std::fprintf(stderr, "failed to parse %s as an xlink qlog trace\n",
                 file.c_str());
    return 1;
  }
  if (trace->events.empty()) {
    std::fprintf(stderr, "%s contains no events\n", file.c_str());
    return 1;
  }
  const auto report = telemetry::analyze(*trace, window);
  std::fputs(telemetry::render_report(report).c_str(), stdout);
  return 0;
}
