// Unit tests: telemetry subsystem — TraceSink ring buffer, JSON
// writer/parser, qlog round-trip, MetricsRegistry merge semantics, the
// trace analyzer, and end-to-end tracing of a harness session.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "harness/scenario.h"
#include "telemetry/analyzer.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/qlog.h"
#include "telemetry/trace_sink.h"
#include "trace/synthetic.h"

namespace xlink::telemetry {
namespace {

// ------------------------------------------------------------- TraceSink

TEST(TraceSink, DisabledByDefaultAndMacroIsNullSafe) {
  TraceSink sink;
  EXPECT_FALSE(sink.enabled());
  TraceSink* null_sink = nullptr;
  XLINK_TRACE(null_sink, Event::pto(1, Origin::kServer, 0, 1));
  XLINK_TRACE(&sink, Event::pto(2, Origin::kServer, 0, 1));  // disabled
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.recorded(), 0u);
}

TEST(TraceSink, RecordsInOrderWhenEnabled) {
  TraceSink sink;
  sink.set_enabled(true);
  for (std::uint64_t pn = 0; pn < 5; ++pn)
    XLINK_TRACE(&sink,
                Event::packet_sent(pn * 10, Origin::kServer, 0, pn, 1200,
                                   true, false));
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t pn = 0; pn < 5; ++pn) {
    EXPECT_EQ(events[pn].t, pn * 10);
    EXPECT_EQ(events[pn].a, pn);
  }
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, RingKeepsNewestAndCountsDropped) {
  TraceSink sink(4);
  sink.set_enabled(true);
  for (std::uint64_t pn = 0; pn < 6; ++pn)
    sink.record(Event::packet_sent(pn, Origin::kServer, 0, pn, 1, true,
                                   false));
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.recorded(), 6u);
  EXPECT_EQ(sink.dropped(), 2u);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first, and the two oldest are gone.
  EXPECT_EQ(events.front().a, 2u);
  EXPECT_EQ(events.back().a, 5u);
}

TEST(TraceSink, ClearResets) {
  TraceSink sink(2);
  sink.set_enabled(true);
  sink.record(Event::pto(1, Origin::kServer, 0, 1));
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.recorded(), 0u);
  EXPECT_TRUE(sink.enabled());  // clear drops events, not the switch
}

// ------------------------------------------------------------------ JSON

TEST(Json, EscapesSpecials) {
  EXPECT_EQ(json_escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(json_escape("plain"), "plain");
}

TEST(Json, WriterParserRoundTrip) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("name", "bench \"quoted\"");
  w.kv("n", std::uint64_t{42});
  w.kv("ratio", 0.5);
  w.kv("ok", true);
  w.key("rows");
  w.begin_array();
  w.value(1);
  w.value("two");
  w.begin_object();
  w.kv("nested", 3);
  w.end_object();
  w.end_array();
  w.end_object();

  const auto parsed = parse_json(os.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->get_str("name"), "bench \"quoted\"");
  EXPECT_EQ(parsed->get_u64("n"), 42u);
  EXPECT_DOUBLE_EQ(parsed->get_num("ratio"), 0.5);
  const JsonValue* rows = parsed->get("rows");
  ASSERT_TRUE(rows && rows->is_array());
  ASSERT_EQ(rows->array.size(), 3u);
  EXPECT_DOUBLE_EQ(rows->array[0].number, 1.0);
  EXPECT_EQ(rows->array[1].str, "two");
  EXPECT_EQ(rows->array[2].get_u64("nested"), 3u);
}

TEST(Json, ParserRejectsMalformed) {
  EXPECT_FALSE(parse_json("{").has_value());
  EXPECT_FALSE(parse_json("{\"a\": }").has_value());
  EXPECT_FALSE(parse_json("[1, 2,]").has_value());
  EXPECT_FALSE(parse_json("").has_value());
}

TEST(Json, AccessorsReturnDefaultsOnMissingMembers) {
  const auto parsed = parse_json("{\"x\": 1}");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->get_u64("missing", 7), 7u);
  EXPECT_EQ(parsed->get_str("missing", "d"), "d");
  EXPECT_EQ(parsed->get("missing"), nullptr);
}

// ------------------------------------------------------------------ qlog

std::vector<Event> one_of_each_event() {
  using E = Event;
  return {
      E::packet_sent(100, Origin::kServer, 0, 7, 1350, true, false),
      E::packet_sent(110, Origin::kServer, 1, 8, 900, true, true),
      E::packet_received(120, Origin::kClient, 1, 8, 900),
      E::ack_mp(130, Origin::kServer, 0, 7, 1350, 48000, true),
      E::ack_mp(140, Origin::kServer, 1, 8, 0, 0, false),
      E::loss(150, Origin::kServer, 0, 3, 1350, 1),
      E::pto(160, Origin::kServer, 1, 2),
      E::cc_state(170, Origin::kServer, 0, 40000, 12000, 65535, 52000, true),
      E::cc_state(180, Origin::kServer, 1, 20000, 500, kNoValue, 0, false),
      E::path_status(190, Origin::kClient, 1, 2),
      E::path_bound(200, Origin::kClient, 1, 3),
      E::reinjection(210, Origin::kServer, 0, 2700, 5),
      E::double_threshold_gate(220, Origin::kServer, true, 4, 800000,
                               120000),
      E::double_threshold_gate(230, Origin::kServer, false, 2, kNoValue,
                               kNoValue),
      E::qoe_signal(240, Origin::kServer, 1 << 20, 48, 2500000),
      E::player_first_frame(250, 250000),
      E::player_stall(260, 12),
      E::player_resume(270, 10000, 12),
      E::player_finished(280, 360),
      E::fault(290, 1, 0, true, 2),
      E::fault(300, 1, 6, false, 3),
      E::path_health(310, Origin::kServer, 1, 2, 3),
      E::abr_decision(320, 0, 2, kNoValue, kNoValue, 0),
      E::abr_decision(330, 7, 1, 2, 1800000, 4200),
      E::fec_repair_sent(340, Origin::kServer, 1, 17, 1216, 400, 8, 2, 1),
      E::fec_recovered(350, Origin::kClient, 1, 403, 17, 12000),
      E::fec_wasted(360, Origin::kClient, 1, 18, 2),
      E::guard_violation(370, Origin::kServer, 0, 0x0a, 3, 1025),
      E::audit_check(380, Origin::kServer, 9, 0, 42),
      E::fec_stash_evicted(390, Origin::kClient, 0, 77, 1250, 64000),
      E::cc_rate_sample(400, Origin::kServer, 0, 1250000, 1500000, 21000,
                        true),
      E::cc_rate_sample(410, Origin::kServer, 1, 600000, 900000, 48000,
                        false),
      E::cc_state(420, Origin::kServer, 1, 60000, 30000, 50000, 41000, false,
                  2500000),
      E::loss(430, Origin::kServer, 1, 9, 1200, 0),
      E::packet_sent(440, Origin::kClient, 0, 12, 60, false, false),
  };
}

TEST(Qlog, RoundTripPreservesEveryField) {
  const std::vector<Event> events = one_of_each_event();
  QlogMeta meta;
  meta.title = "round trip";
  meta.scenario = "unit \"test\"";  // exercises escaping in common_fields
  meta.scheme = "XLINK";
  meta.seed = 424242;

  std::ostringstream os;
  write_qlog(os, events, meta, events.size() + 3, 3);
  const auto parsed = parse_qlog(os.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->meta.title, meta.title);
  EXPECT_EQ(parsed->meta.scenario, meta.scenario);
  EXPECT_EQ(parsed->meta.scheme, meta.scheme);
  EXPECT_EQ(parsed->meta.seed, meta.seed);
  EXPECT_EQ(parsed->recorded, events.size() + 3);
  EXPECT_EQ(parsed->dropped, 3u);
  ASSERT_EQ(parsed->events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(parsed->events[i], events[i]) << "event " << i << " ("
                                            << event_name(events[i].type)
                                            << ")";
}

TEST(Qlog, EventNamesRoundTrip) {
  // Every EventType value up to the last one has a name that maps back to
  // it and an entry in one_of_each_event(); no value past it has a name.
  const std::vector<Event> events = one_of_each_event();
  constexpr int kLast = static_cast<int>(EventType::kAbrDecision);
  for (int v = 0; v <= 255; ++v) {
    const auto type = static_cast<EventType>(v);
    const std::string name = event_name(type);
    if (v > kLast) {
      EXPECT_EQ(name, "unknown") << "value " << v;
      continue;
    }
    ASSERT_NE(name, "unknown") << "value " << v << " has no name";
    EventType back;
    ASSERT_TRUE(event_type_from_name(name.c_str(), back)) << name;
    EXPECT_EQ(back, type) << name;
    EXPECT_TRUE(std::any_of(events.begin(), events.end(),
                            [type](const Event& e) { return e.type == type; }))
        << name << " has no entry in one_of_each_event()";
  }
  EventType out;
  EXPECT_FALSE(event_type_from_name("transport:no_such_event", out));
}

TEST(Qlog, ExportBytesArePinned) {
  // A round trip passes a renamed key or a reordered field as long as
  // export and import agree; this pins the bytes themselves (FNV-1a of the
  // document for one_of_each_event()). Parsing that document and writing
  // it again reproduces the same bytes.
  const std::vector<Event> events = one_of_each_event();
  QlogMeta meta;
  meta.title = "pinned";
  meta.scenario = "one of each event";
  meta.scheme = "XLINK";
  meta.seed = 7;
  std::ostringstream os;
  write_qlog(os, events, meta);
  const std::string text = os.str();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  EXPECT_EQ(h, 0x79b403240c71b084ull) << std::hex << h;

  const auto parsed = parse_qlog(text);
  ASSERT_TRUE(parsed.has_value());
  std::ostringstream again;
  write_qlog(again, parsed->events, parsed->meta, parsed->recorded,
             parsed->dropped);
  EXPECT_EQ(again.str(), text);
}

TEST(Qlog, ParseRejectsNonQlogJson) {
  EXPECT_FALSE(parse_qlog("{\"qlog_version\": \"0.4\"}").has_value());
  EXPECT_FALSE(parse_qlog("not json").has_value());

  // An event with an unknown name, without a data object or with an
  // unknown origin is rejected; the same envelope with a valid event parses.
  const auto doc = [](const std::string& event) {
    return "{\"traces\": [{\"events\": [" + event + "]}]}";
  };
  const auto stall = parse_qlog(doc(
      R"({"time": 5, "name": "player:stall",)"
      R"( "data": {"origin": "session", "frame": 3}})"));
  ASSERT_TRUE(stall.has_value());
  ASSERT_EQ(stall->events.size(), 1u);
  EXPECT_EQ(stall->events[0], Event::player_stall(5, 3));

  EXPECT_FALSE(parse_qlog(doc(R"({"time": 5, "name": "player:no_such",)"
                              R"( "data": {"origin": "session"}})"))
                   .has_value());
  EXPECT_FALSE(
      parse_qlog(doc(R"({"time": 5, "name": "player:stall"})")).has_value());
  EXPECT_FALSE(parse_qlog(doc(R"({"time": 5, "name": "player:stall",)"
                              R"( "data": 3})"))
                   .has_value());
  EXPECT_FALSE(parse_qlog(doc(R"({"time": 5, "name": "player:stall",)"
                              R"( "data": {"origin": "relay", "frame": 3}})"))
                   .has_value());
}

// --------------------------------------------------------------- metrics

TEST(Metrics, CountersGaugesHistogramsBasics) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  m.add_counter("c");
  m.add_counter("c", 4);
  m.set_gauge("g", 1.5);
  m.set_gauge("g", 2.5);  // last write wins
  m.observe("h", 3.0);
  m.observe("h", 5.0);
  EXPECT_EQ(m.counter("c"), 5u);
  EXPECT_EQ(m.counter("absent"), 0u);
  EXPECT_DOUBLE_EQ(m.gauge("g"), 2.5);
  const Histogram* h = m.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_DOUBLE_EQ(h->mean(), 4.0);
  EXPECT_DOUBLE_EQ(h->min, 3.0);
  EXPECT_DOUBLE_EQ(h->max, 5.0);
  EXPECT_EQ(m.histogram("absent"), nullptr);
}

TEST(Metrics, HistogramBucketsNonPositiveValues) {
  Histogram h;
  h.observe(0.0);
  h.observe(-2.0);
  h.observe(4.0);
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.min, -2.0);
  EXPECT_DOUBLE_EQ(h.max, 4.0);
  std::uint64_t total = 0;
  for (const auto& [bucket, n] : h.buckets) total += n;
  EXPECT_EQ(total, 3u);  // nothing silently uncounted
}

TEST(Metrics, MergeSemanticsPerKind) {
  MetricsRegistry a;
  a.add_counter("c", 2);
  a.set_gauge("g", 1.0);
  a.observe("h", 1.0);

  MetricsRegistry b;
  b.add_counter("c", 3);
  b.add_counter("only_b", 1);
  b.set_gauge("g", 9.0);
  b.observe("h", 64.0);

  a.merge(b);
  EXPECT_EQ(a.counter("c"), 5u);        // counters sum
  EXPECT_EQ(a.counter("only_b"), 1u);   // absent = 0 on this side
  EXPECT_DOUBLE_EQ(a.gauge("g"), 9.0);  // gauge: merged value wins
  const Histogram* h = a.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_DOUBLE_EQ(h->sum, 65.0);
  EXPECT_DOUBLE_EQ(h->min, 1.0);
  EXPECT_DOUBLE_EQ(h->max, 64.0);
}

TEST(Metrics, MergeOrderIsDeterministic) {
  // Folding the same registries in the same order twice gives exactly
  // equal registries — the property harness/parallel.cpp relies on.
  auto make = [](int i) {
    MetricsRegistry m;
    m.add_counter("n", static_cast<std::uint64_t>(i));
    m.observe("v", 0.1 * i);
    m.set_gauge("g", i);
    return m;
  };
  MetricsRegistry fold1, fold2;
  for (int i = 1; i <= 4; ++i) fold1.merge(make(i));
  for (int i = 1; i <= 4; ++i) fold2.merge(make(i));
  EXPECT_EQ(fold1, fold2);
  EXPECT_EQ(fold1.counter("n"), 10u);
}

// -------------------------------------------------------------- analyzer

TEST(Analyzer, SyntheticTraceCountsAndStallAttribution) {
  ParsedTrace trace;
  trace.meta.scenario = "synthetic";
  using E = Event;
  trace.events = {
      E::path_bound(0, Origin::kClient, 0, 0),  // wifi
      E::path_bound(0, Origin::kClient, 1, 1),  // lte
      E::packet_sent(1000, Origin::kServer, 0, 1, 1200, true, false),
      E::packet_sent(2000, Origin::kServer, 1, 1, 800, true, true),
      E::loss(3000, Origin::kServer, 0, 1, 1200, 0),
      E::pto(4000, Origin::kServer, 0, 1),
      E::reinjection(5000, Origin::kServer, 0, 800, 1),
      E::double_threshold_gate(5500, Origin::kServer, true, 4, 100000, 50000),
      E::player_stall(6000, 3),
      E::player_resume(7000, 1000, 3),
      E::player_finished(8000, 100),
  };
  const AnalysisReport rep = analyze(trace, sim::seconds(2));
  ASSERT_EQ(rep.paths.size(), 2u);
  EXPECT_EQ(rep.paths[0].packets_sent, 1u);
  EXPECT_EQ(rep.paths[0].packets_lost, 1u);
  EXPECT_EQ(rep.paths[0].ptos, 1u);
  EXPECT_EQ(rep.paths[0].reinjections_from, 1u);
  // First-tx excludes the re-injected copy on path 1.
  EXPECT_EQ(rep.reinjection.first_tx_bytes, 1200u);
  EXPECT_EQ(rep.reinjection.reinjected_bytes, 800u);
  EXPECT_TRUE(rep.finished);
  ASSERT_EQ(rep.stalls.size(), 1u);
  EXPECT_TRUE(rep.stalls[0].resolved);
  EXPECT_EQ(rep.stalls[0].duration, 1000u);
  EXPECT_EQ(rep.stalls[0].worst_path, 0);
  // PTO on path 0 inside the window => outage attribution.
  EXPECT_NE(rep.stalls[0].attribution.find("outage"), std::string::npos);
  const std::string text = render_report(rep);
  EXPECT_NE(text.find("wifi"), std::string::npos);
  EXPECT_NE(text.find("stall @"), std::string::npos);
}

TEST(Analyzer, DropsStallsCancelledWithinSameInstant) {
  ParsedTrace trace;
  trace.events = {
      Event::player_stall(1000, 1),
      Event::player_resume(1000, 0, 1),  // same-instant cancellation
      Event::player_stall(2000, 2),
      Event::player_resume(3000, 1000, 2),
  };
  const AnalysisReport rep = analyze(trace, sim::seconds(2));
  ASSERT_EQ(rep.stalls.size(), 1u);
  EXPECT_EQ(rep.stalls[0].frame, 2u);
  EXPECT_EQ(rep.reinjection.stalls, 1u);
}

// ------------------------------------------------- end-to-end (harness)

harness::SessionConfig tiny_session(bool traced) {
  harness::SessionConfig cfg;
  cfg.scheme = core::Scheme::kXlink;
  cfg.seed = 7;
  cfg.time_limit = sim::seconds(30);
  cfg.video.duration = sim::seconds(3);
  cfg.video.bitrate_bps = 2'000'000;
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi, trace::stable_lte(1, sim::seconds(10)),
      sim::millis(30)));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::stable_lte(2, sim::seconds(10)),
      sim::millis(80)));
  cfg.trace.enabled = traced;
  return cfg;
}

TEST(TelemetryE2E, TracedSessionRecordsTransportAndPlayerEvents) {
  harness::Session session(tiny_session(true));
  const auto result = session.run();
  EXPECT_TRUE(result.download_finished);
  ASSERT_NE(session.trace_sink(), nullptr);
  const auto events = session.trace_sink()->snapshot();
  ASSERT_FALSE(events.empty());
  bool saw_sent = false, saw_recv = false, saw_ack = false, saw_bound = false,
       saw_first_frame = false;
  sim::Time last_t = 0;
  for (const Event& e : events) {
    EXPECT_GE(e.t, last_t);  // simulator time is monotonic
    last_t = e.t;
    switch (e.type) {
      case EventType::kPacketSent: saw_sent = true; break;
      case EventType::kPacketReceived: saw_recv = true; break;
      case EventType::kAckMp: saw_ack = true; break;
      case EventType::kPathBound: saw_bound = true; break;
      case EventType::kPlayerFirstFrame: saw_first_frame = true; break;
      default: break;
    }
  }
  EXPECT_TRUE(saw_sent);
  EXPECT_TRUE(saw_recv);
  EXPECT_TRUE(saw_ack);
  EXPECT_TRUE(saw_bound);
  EXPECT_TRUE(saw_first_frame);
  EXPECT_EQ(result.metrics.counter("telemetry.events_recorded"),
            session.trace_sink()->recorded());
}

TEST(TelemetryE2E, TracingDoesNotChangeSessionOutcome) {
  harness::Session plain(tiny_session(false));
  harness::Session traced(tiny_session(true));
  const auto a = plain.run();
  const auto b = traced.run();
  EXPECT_EQ(plain.trace_sink(), nullptr);
  EXPECT_EQ(a.chunk_rct_seconds, b.chunk_rct_seconds);
  EXPECT_EQ(a.first_frame_seconds, b.first_frame_seconds);
  EXPECT_EQ(a.rebuffer_seconds, b.rebuffer_seconds);
  for (const char* name :
       {"quic.server.bytes_sent", "quic.server.stream_bytes_sent",
        "quic.server.reinjected_bytes", "quic.server.packets_lost"})
    EXPECT_EQ(a.metrics.counter(name), b.metrics.counter(name)) << name;
  EXPECT_EQ(a.path_down_bytes, b.path_down_bytes);
}

TEST(TelemetryE2E, SessionWritesParseableQlogFile) {
  const std::string path = ::testing::TempDir() + "/xlink_e2e.qlog";
  auto cfg = tiny_session(true);
  cfg.trace.qlog_path = path;
  cfg.trace.label = "e2e";
  harness::Session session(std::move(cfg));
  session.run();
  const auto parsed = parse_qlog_file(path);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->meta.scenario, "e2e");
  EXPECT_EQ(parsed->meta.scheme, "XLINK");
  EXPECT_EQ(parsed->meta.seed, 7u);
  EXPECT_FALSE(parsed->events.empty());
  // The analyzer must accept every trace the harness can produce.
  const AnalysisReport rep = analyze(*parsed, sim::seconds(2));
  EXPECT_EQ(rep.events, parsed->events.size());
  EXPECT_FALSE(rep.paths.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xlink::telemetry
