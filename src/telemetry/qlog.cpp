#include "telemetry/qlog.h"

#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <sstream>

#include "telemetry/json.h"

namespace xlink::telemetry {

namespace {

/// The part of an Event a qlog data field's value lives in: a whole
/// member, the low or second byte of `extra`, or bit 0 or 1 of `flag`.
enum class Slot : std::uint8_t {
  kPath, kA, kB, kC, kD, kExtra,
  kExtraLo, kExtraHi, kFlag, kFlagBit0, kFlagBit1,
};

/// How a field's value is written (and read back).
enum class Enc : std::uint8_t {
  kPlain,
  kOptional,    // omitted when the slot holds kNoValue
  kBool,        // true/false
  kIfFlagBit0,  // written only when flag bit 0 is set; reading it sets it
  kLossReason,  // 0 = "packet_threshold", anything else "time_threshold"
};

struct Field {
  const char* key;
  Slot slot;
  Enc enc = Enc::kPlain;
};

struct Schema {
  EventType type;
  const char* name;
  std::initializer_list<Field> fields;  // in export order
};

// The qlog schema: one entry per EventType, in enum order. Every data
// object starts with "origin"; the fields below follow it.
constexpr Schema kSchema[] = {
    {EventType::kPacketSent, "transport:packet_sent",
     {{"path", Slot::kPath},
      {"pn", Slot::kA},
      {"bytes", Slot::kB},
      {"ack_eliciting", Slot::kFlagBit0, Enc::kBool},
      {"is_reinjection", Slot::kFlagBit1, Enc::kBool}}},
    {EventType::kPacketReceived, "transport:packet_received",
     {{"path", Slot::kPath}, {"pn", Slot::kA}, {"bytes", Slot::kB}}},
    {EventType::kAckMp, "transport:ack_mp_received",
     {{"path", Slot::kPath},
      {"largest_acked", Slot::kA},
      {"acked_bytes", Slot::kB},
      {"rtt_us", Slot::kC, Enc::kIfFlagBit0}}},
    {EventType::kLoss, "recovery:packet_lost",
     {{"path", Slot::kPath},
      {"pn", Slot::kA},
      {"bytes", Slot::kB},
      {"reason", Slot::kFlag, Enc::kLossReason}}},
    {EventType::kPto, "recovery:probe_timeout",
     {{"path", Slot::kPath}, {"pto_count", Slot::kA}}},
    {EventType::kCcState, "recovery:metrics_updated",
     {{"path", Slot::kPath},
      {"cwnd", Slot::kA},
      {"bytes_in_flight", Slot::kB},
      {"ssthresh", Slot::kC, Enc::kOptional},
      {"srtt_us", Slot::kExtra},
      {"slow_start", Slot::kFlagBit0, Enc::kBool},
      {"pacing_rate", Slot::kD, Enc::kOptional}}},
    {EventType::kPathStatus, "transport:path_status",
     {{"path", Slot::kPath}, {"state", Slot::kA}}},
    {EventType::kPathBound, "transport:path_bound",
     {{"path", Slot::kPath}, {"tech", Slot::kA}}},
    {EventType::kReinjection, "xlink:reinjection",
     {{"origin_path", Slot::kPath}, {"bytes", Slot::kA}, {"pn", Slot::kB}}},
    {EventType::kDoubleThresholdGate, "xlink:double_threshold_gate",
     {{"allowed", Slot::kFlagBit0, Enc::kBool},
      {"rule", Slot::kExtra},
      {"play_time_left_us", Slot::kA, Enc::kOptional},
      {"deliver_time_max_us", Slot::kB, Enc::kOptional}}},
    {EventType::kQoeSignal, "xlink:qoe_signal",
     {{"cached_bytes", Slot::kA},
      {"cached_frames", Slot::kB},
      {"bps", Slot::kC}}},
    {EventType::kPlayerFirstFrame, "player:first_frame",
     {{"latency_us", Slot::kA}}},
    {EventType::kPlayerStall, "player:stall", {{"frame", Slot::kA}}},
    {EventType::kPlayerResume, "player:resume",
     {{"stall_us", Slot::kA}, {"frame", Slot::kB}}},
    {EventType::kPlayerFinished, "player:finished", {{"frames", Slot::kA}}},
    {EventType::kFault, "fault:injected",
     {{"path", Slot::kPath},
      {"kind", Slot::kA},
      {"window", Slot::kB},
      {"active", Slot::kFlagBit0, Enc::kBool}}},
    {EventType::kPathHealth, "transport:path_health",
     {{"path", Slot::kPath}, {"health", Slot::kA}, {"pto_count", Slot::kB}}},
    {EventType::kFecRepairSent, "fec:repair_sent",
     {{"path", Slot::kPath},
      {"window", Slot::kA},
      {"bytes", Slot::kB},
      {"first_pn", Slot::kC},
      {"k", Slot::kExtraLo},
      {"r", Slot::kExtraHi},
      {"symbol_index", Slot::kFlag}}},
    {EventType::kFecRecovered, "fec:recovered",
     {{"path", Slot::kPath},
      {"pn", Slot::kA},
      {"window", Slot::kB},
      {"latency_us", Slot::kC}}},
    {EventType::kFecWasted, "fec:wasted",
     {{"path", Slot::kPath}, {"window", Slot::kA}, {"symbols", Slot::kB}}},
    {EventType::kGuardViolation, "guard:violation",
     {{"path", Slot::kPath},
      {"error_code", Slot::kA},
      {"kind", Slot::kB},
      {"observed", Slot::kC}}},
    {EventType::kAuditCheck, "audit:check",
     {{"checks", Slot::kA},
      {"failures", Slot::kB},
      {"pool_outstanding", Slot::kC}}},
    {EventType::kFecStashEvicted, "fec:stash_evicted",
     {{"path", Slot::kPath},
      {"pn", Slot::kA},
      {"bytes", Slot::kB},
      {"stash_bytes", Slot::kC}}},
    {EventType::kCcRateSample, "cc:rate_sample",
     {{"path", Slot::kPath},
      {"rate", Slot::kA},
      {"btlbw", Slot::kB},
      {"min_rtt_us", Slot::kC},
      {"app_limited", Slot::kFlagBit0, Enc::kBool}}},
    {EventType::kAbrDecision, "abr:decision",
     {{"chunk", Slot::kA},
      {"rung", Slot::kB},
      {"prev_rung", Slot::kD, Enc::kOptional},
      {"estimate_bps", Slot::kC, Enc::kOptional},
      {"buffer_ms", Slot::kExtra}}},
};

constexpr bool schema_in_enum_order() {
  for (std::size_t i = 0; i < std::size(kSchema); ++i)
    if (static_cast<std::size_t>(kSchema[i].type) != i) return false;
  return std::size(kSchema) ==
         static_cast<std::size_t>(EventType::kAbrDecision) + 1;
}
static_assert(schema_in_enum_order(), "kSchema[t] must describe EventType t");

const Schema* schema_of(EventType type) {
  const auto i = static_cast<std::size_t>(type);
  return i < std::size(kSchema) ? &kSchema[i] : nullptr;
}

std::uint64_t get(const Event& e, Slot s) {
  switch (s) {
    case Slot::kPath: return e.path;
    case Slot::kA: return e.a;
    case Slot::kB: return e.b;
    case Slot::kC: return e.c;
    case Slot::kD: return e.d;
    case Slot::kExtra: return e.extra;
    case Slot::kExtraLo: return e.extra & 0xff;
    case Slot::kExtraHi: return (e.extra >> 8) & 0xff;
    case Slot::kFlag: return e.flag;
    case Slot::kFlagBit0: return e.flag & 1;
    case Slot::kFlagBit1: return (e.flag >> 1) & 1;
  }
  return 0;
}

/// Stores `v` in slot `s` of an event whose sub-byte and bit slots are
/// still zero (each slot is read once per event).
void put(Event& e, Slot s, std::uint64_t v) {
  switch (s) {
    case Slot::kPath: e.path = static_cast<std::uint8_t>(v); break;
    case Slot::kA: e.a = v; break;
    case Slot::kB: e.b = v; break;
    case Slot::kC: e.c = v; break;
    case Slot::kD: e.d = v; break;
    case Slot::kExtra: e.extra = static_cast<std::uint32_t>(v); break;
    case Slot::kExtraLo: e.extra |= static_cast<std::uint32_t>(v & 0xff); break;
    case Slot::kExtraHi:
      e.extra |= static_cast<std::uint32_t>(v & 0xff) << 8;
      break;
    case Slot::kFlag: e.flag = static_cast<std::uint8_t>(v); break;
    case Slot::kFlagBit0: e.flag |= static_cast<std::uint8_t>(v & 1); break;
    case Slot::kFlagBit1:
      e.flag |= static_cast<std::uint8_t>((v & 1) << 1);
      break;
  }
}

bool origin_from_name(const std::string& s, Origin& out) {
  for (const Origin o : {Origin::kServer, Origin::kClient, Origin::kSession}) {
    if (s == origin_name(o)) {
      out = o;
      return true;
    }
  }
  return false;
}

void write_event_data(JsonWriter& w, const Event& e) {
  w.kv("origin", origin_name(e.origin));
  const Schema* schema = schema_of(e.type);
  if (!schema) return;
  for (const Field& f : schema->fields) {
    const std::uint64_t v = get(e, f.slot);
    switch (f.enc) {
      case Enc::kPlain: w.kv(f.key, v); break;
      case Enc::kOptional:
        if (v != kNoValue) w.kv(f.key, v);
        break;
      case Enc::kBool: w.kv(f.key, v != 0); break;
      case Enc::kIfFlagBit0:
        if (e.flag & 1) w.kv(f.key, v);
        break;
      case Enc::kLossReason:
        w.kv(f.key, v == 0 ? "packet_threshold" : "time_threshold");
        break;
    }
  }
}

std::optional<Event> event_from_json(const JsonValue& entry) {
  Event e;
  if (!event_type_from_name(entry.get_str("name").c_str(), e.type))
    return std::nullopt;
  const JsonValue* data = entry.get("data");
  if (!data || !data->is_object()) return std::nullopt;
  e.t = entry.get_u64("time");
  if (!origin_from_name(data->get_str("origin", "server"), e.origin))
    return std::nullopt;
  for (const Field& f : schema_of(e.type)->fields) {
    const JsonValue* v = data->get(f.key);
    switch (f.enc) {
      case Enc::kPlain: put(e, f.slot, data->get_u64(f.key)); break;
      case Enc::kOptional:
        put(e, f.slot, v ? data->get_u64(f.key) : kNoValue);
        break;
      case Enc::kBool:
        put(e, f.slot, v && v->kind == JsonValue::Kind::kBool && v->boolean);
        break;
      case Enc::kIfFlagBit0:
        if (v) {
          put(e, f.slot, data->get_u64(f.key));
          e.flag |= 1;
        }
        break;
      case Enc::kLossReason:
        put(e, f.slot, data->get_str(f.key) == "time_threshold" ? 1 : 0);
        break;
    }
  }
  return e;
}

}  // namespace

const char* event_name(EventType type) {
  const Schema* schema = schema_of(type);
  return schema ? schema->name : "unknown";
}

bool event_type_from_name(const char* name, EventType& out) {
  for (const Schema& schema : kSchema) {
    if (std::strcmp(schema.name, name) == 0) {
      out = schema.type;
      return true;
    }
  }
  return false;
}

const char* origin_name(Origin o) {
  switch (o) {
    case Origin::kServer: return "server";
    case Origin::kClient: return "client";
    case Origin::kSession: return "session";
  }
  return "server";
}

void write_qlog(std::ostream& os, const std::vector<Event>& events,
                const QlogMeta& meta, std::uint64_t recorded,
                std::uint64_t dropped) {
  JsonWriter w(os, 1);
  w.begin_object();
  w.kv("qlog_version", "0.3");
  w.kv("qlog_format", "JSON");
  w.kv("title", meta.title.empty() ? "xlink trace" : meta.title);
  w.key("traces").begin_array();
  w.begin_object();
  w.key("common_fields").begin_object();
  w.kv("time_format", "relative");
  w.kv("reference_time", std::uint64_t{0});
  w.kv("time_unit", "us");
  w.kv("scenario", meta.scenario);
  w.kv("scheme", meta.scheme);
  w.kv("seed", meta.seed);
  w.end_object();
  w.key("vantage_point").begin_object();
  w.kv("name", "xlink-sim");
  w.kv("type", "simulation");
  w.end_object();
  w.key("stats").begin_object();
  w.kv("recorded", recorded == 0 ? events.size() : recorded);
  w.kv("dropped", dropped);
  w.end_object();
  w.key("events").begin_array();
  for (const Event& e : events) {
    w.begin_object();
    w.kv("time", e.t);
    w.kv("name", event_name(e.type));
    w.key("data").begin_object();
    write_event_data(w, e);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_array();
  w.end_object();
  os << '\n';
}

bool write_qlog_file(const std::string& path, const TraceSink& sink,
                     const QlogMeta& meta) {
  std::ofstream out(path);
  if (!out) return false;
  write_qlog(out, sink, meta);
  return out.good();
}

std::optional<ParsedTrace> parse_qlog(const std::string& text) {
  const auto doc = parse_json(text);
  if (!doc || !doc->is_object()) return std::nullopt;
  const JsonValue* traces = doc->get("traces");
  if (!traces || !traces->is_array() || traces->array.empty())
    return std::nullopt;
  const JsonValue& trace = traces->array.front();

  ParsedTrace out;
  out.meta.title = doc->get_str("title");
  if (const JsonValue* cf = trace.get("common_fields")) {
    out.meta.scenario = cf->get_str("scenario");
    out.meta.scheme = cf->get_str("scheme");
    out.meta.seed = cf->get_u64("seed");
  }
  if (const JsonValue* stats = trace.get("stats")) {
    out.recorded = stats->get_u64("recorded");
    out.dropped = stats->get_u64("dropped");
  }
  const JsonValue* events = trace.get("events");
  if (!events || !events->is_array()) return std::nullopt;
  out.events.reserve(events->array.size());
  for (const JsonValue& entry : events->array) {
    auto e = event_from_json(entry);
    if (!e) return std::nullopt;
    out.events.push_back(*e);
  }
  return out;
}

std::optional<ParsedTrace> parse_qlog_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_qlog(ss.str());
}

}  // namespace xlink::telemetry
