#include "harness/shard.h"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "telemetry/json.h"

namespace xlink::harness::shard {
namespace {

namespace fs = std::filesystem;
using telemetry::JsonValue;
using telemetry::JsonWriter;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("shard: " + what);
}

// ------------------------------------------------------------ enum codecs
//
// Manifest entries use short string keys so a grid file is greppable and
// stable across enum reorderings.

template <typename E>
struct EnumKey {
  E value;
  const char* key;
};

constexpr EnumKey<core::Scheme> kSchemeKeys[] = {
    {core::Scheme::kSinglePath, "sp"},
    {core::Scheme::kConnMigration, "cm"},
    {core::Scheme::kVanillaMp, "vanilla_mp"},
    {core::Scheme::kMptcpLike, "mptcp"},
    {core::Scheme::kRedundant, "redundant"},
    {core::Scheme::kReinjectNoQoe, "reinject_noqoe"},
    {core::Scheme::kXlink, "xlink"},
};
constexpr EnumKey<quic::CcAlgorithm> kCcKeys[] = {
    {quic::CcAlgorithm::kNewReno, "newreno"},
    {quic::CcAlgorithm::kCubic, "cubic"},
    {quic::CcAlgorithm::kCoupledLia, "coupled_lia"},
    {quic::CcAlgorithm::kBbr, "bbr"},
};
constexpr EnumKey<core::ControlMode> kControlModeKeys[] = {
    {core::ControlMode::kDoubleThreshold, "double_threshold"},
    {core::ControlMode::kAlwaysOn, "always_on"},
    {core::ControlMode::kAlwaysOff, "always_off"},
};
constexpr EnumKey<quic::AckPathPolicy> kAckPolicyKeys[] = {
    {quic::AckPathPolicy::kOriginalPath, "original_path"},
    {quic::AckPathPolicy::kFastestPath, "fastest_path"},
};
constexpr EnumKey<core::XlinkRedundancy> kRedundancyKeys[] = {
    {core::XlinkRedundancy::kNone, "none"},
    {core::XlinkRedundancy::kReinject, "reinject"},
    {core::XlinkRedundancy::kFec, "fec"},
    {core::XlinkRedundancy::kReinjectPlusFec, "reinject_fec"},
};
constexpr EnumKey<quic::InsertMode> kInsertModeKeys[] = {
    {quic::InsertMode::kAppend, "append"},
    {quic::InsertMode::kPriority, "priority"},
    {quic::InsertMode::kFrontOfClass, "front_of_class"},
};

/// `what` names the enum in the error ("unknown cc enum value").
template <typename E, std::size_t N>
const char* key_of(const EnumKey<E> (&table)[N], E value, const char* what) {
  for (const auto& e : table)
    if (e.value == value) return e.key;
  fail(std::string("unknown ") + what + " enum value");
}

template <typename E, std::size_t N>
E from_key(const EnumKey<E> (&table)[N], const std::string& key,
           const char* what) {
  for (const auto& e : table)
    if (key == e.key) return e.value;
  fail(std::string("unknown ") + what + " key '" + key + "'");
}

// ----------------------------------------------------- field-level codecs
//
// Unsigned 64-bit values are written as decimal strings: JsonValue stores
// numbers as double, which would silently round anything above 2^53
// (seeds and AEAD keys legitimately use all 64 bits). Doubles go through
// the hex-float codec. Small ints stay plain JSON numbers.

void kv_u64(JsonWriter& w, const char* k, std::uint64_t v) {
  w.kv(k, std::to_string(v));
}

/// True if `x` is a whole number in [0, limit): the doubles that cast to
/// an integer of that range without undefined behaviour or truncation.
bool whole_below(double x, double limit) {
  return x >= 0.0 && x < limit && x == std::floor(x);
}

std::uint64_t u64_from(const JsonValue& v, const std::string& what) {
  if (v.is_number()) {
    if (!whole_below(v.number, 0x1p64)) fail("field '" + what + "' not a u64");
    return static_cast<std::uint64_t>(v.number);
  }
  if (!v.is_string()) fail("field '" + what + "' not a u64");
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v.str.c_str(), &end, 10);
  if (end == v.str.c_str() || *end != '\0' || errno == ERANGE)
    fail("field '" + what + "' not a u64: '" + v.str + "'");
  return static_cast<std::uint64_t>(parsed);
}

std::uint64_t parse_u64(const JsonValue& obj, const char* k) {
  const JsonValue* v = obj.get(k);
  if (!v) fail(std::string("missing field '") + k + "'");
  return u64_from(*v, k);
}

void kv_double(JsonWriter& w, const char* k, double v) {
  w.kv(k, encode_double(v));
}

double double_from(const JsonValue& v, const std::string& what) {
  if (v.is_number()) return v.number;  // tolerated for hand-edited files
  if (!v.is_string()) fail("field '" + what + "' not a double");
  return decode_double(v.str);
}

double parse_double(const JsonValue& obj, const char* k) {
  const JsonValue* v = obj.get(k);
  if (!v) fail(std::string("missing field '") + k + "'");
  return double_from(*v, k);
}

std::string parse_str(const JsonValue& obj, const char* k) {
  const JsonValue* v = obj.get(k);
  if (!v || !v->is_string()) fail(std::string("missing string '") + k + "'");
  return v->str;
}

bool parse_bool(const JsonValue& obj, const char* k) {
  const JsonValue* v = obj.get(k);
  if (!v || v->kind != JsonValue::Kind::kBool)
    fail(std::string("missing bool '") + k + "'");
  return v->boolean;
}

/// Every int in a grid file is a count, so negatives are rejected too.
int parse_int(const JsonValue& obj, const char* k) {
  const JsonValue* v = obj.get(k);
  if (!v || !v->is_number()) fail(std::string("missing int '") + k + "'");
  if (!whole_below(v->number, 0x1p31))
    fail(std::string("field '") + k + "' not a count");
  return static_cast<int>(v->number);
}

const JsonValue& parse_obj(const JsonValue& obj, const char* k) {
  const JsonValue* v = obj.get(k);
  if (!v || !v->is_object()) fail(std::string("missing object '") + k + "'");
  return *v;
}

const JsonValue& parse_arr(const JsonValue& obj, const char* k) {
  const JsonValue* v = obj.get(k);
  if (!v || !v->is_array()) fail(std::string("missing array '") + k + "'");
  return *v;
}

// ------------------------------------------------------- structure codecs

void write_options(JsonWriter& w, const core::SchemeOptions& o) {
  w.begin_object();
  w.kv("cc", key_of(kCcKeys, o.cc, "cc"));
  kv_u64(w, "tth1_us", o.control.tth1);
  kv_u64(w, "tth2_us", o.control.tth2);
  w.kv("control_mode",
       key_of(kControlModeKeys, o.control.mode, "control mode"));
  w.kv("ack_policy",
       key_of(kAckPolicyKeys, o.xlink_ack_policy, "ack policy"));
  w.kv("insert_mode",
       key_of(kInsertModeKeys, o.xlink_insert_mode, "insert mode"));
  w.kv("redundancy",
       key_of(kRedundancyKeys, o.xlink_redundancy, "redundancy"));
  kv_u64(w, "fec_window", o.fec.window);
  kv_u64(w, "fec_min_repairs", o.fec.min_repairs);
  kv_u64(w, "fec_max_repairs", o.fec.max_repairs);
  kv_double(w, "fec_loss_multiplier", o.fec.loss_multiplier);
  kv_u64(w, "aead_key", o.aead_key);
  w.kv("pacing", o.pacing);
  w.end_object();
}

core::SchemeOptions parse_options(const JsonValue& v) {
  core::SchemeOptions o;
  o.cc = from_key(kCcKeys, parse_str(v, "cc"), "cc");
  o.control.tth1 = parse_u64(v, "tth1_us");
  o.control.tth2 = parse_u64(v, "tth2_us");
  o.control.mode = from_key(kControlModeKeys, parse_str(v, "control_mode"),
                            "control mode");
  o.xlink_ack_policy =
      from_key(kAckPolicyKeys, parse_str(v, "ack_policy"), "ack policy");
  o.xlink_insert_mode =
      from_key(kInsertModeKeys, parse_str(v, "insert_mode"), "insert mode");
  o.xlink_redundancy =
      from_key(kRedundancyKeys, parse_str(v, "redundancy"), "redundancy");
  o.fec.window = parse_u64(v, "fec_window");
  o.fec.min_repairs = parse_u64(v, "fec_min_repairs");
  o.fec.max_repairs = parse_u64(v, "fec_max_repairs");
  o.fec.loss_multiplier = parse_double(v, "fec_loss_multiplier");
  o.aead_key = parse_u64(v, "aead_key");
  o.pacing = parse_bool(v, "pacing");
  return o;
}

void write_population(JsonWriter& w, const PopulationConfig& p) {
  w.begin_object();
  w.kv("sessions_per_day", p.sessions_per_day);
  kv_double(w, "p_5g", p.p_5g);
  kv_double(w, "p_walking_wifi", p.p_walking_wifi);
  kv_double(w, "p_fading_cellular", p.p_fading_cellular);
  kv_double(w, "p_outage_heavy", p.p_outage_heavy);
  kv_double(w, "p_cross_isp", p.p_cross_isp);
  kv_double(w, "max_loss", p.max_loss);
  kv_u64(w, "time_limit_us", p.time_limit);
  w.kv("abr", video::to_string(p.abr));
  w.end_object();
}

PopulationConfig parse_population(const JsonValue& v) {
  PopulationConfig p;
  p.sessions_per_day = parse_int(v, "sessions_per_day");
  p.p_5g = parse_double(v, "p_5g");
  p.p_walking_wifi = parse_double(v, "p_walking_wifi");
  p.p_fading_cellular = parse_double(v, "p_fading_cellular");
  p.p_outage_heavy = parse_double(v, "p_outage_heavy");
  p.p_cross_isp = parse_double(v, "p_cross_isp");
  p.max_loss = parse_double(v, "max_loss");
  p.time_limit = parse_u64(v, "time_limit_us");
  const std::string abr_key = parse_str(v, "abr");
  const auto abr = video::abr_algorithm_from_string(abr_key);
  if (!abr) fail("unknown abr algorithm: " + abr_key);
  p.abr = *abr;
  return p;
}

void write_cell(JsonWriter& w, std::size_t index, const GridCell& c) {
  w.begin_object();
  w.kv("index", static_cast<std::uint64_t>(index));
  w.kv("label", c.label);
  w.kv("ab", c.ab);
  w.kv("scheme_a", key_of(kSchemeKeys, c.scheme_a, "scheme"));
  w.key("options_a");
  write_options(w, c.options_a);
  w.kv("scheme_b", key_of(kSchemeKeys, c.scheme_b, "scheme"));
  w.key("options_b");
  write_options(w, c.options_b);
  w.key("pop");
  write_population(w, c.pop);
  kv_u64(w, "day_seed", c.day_seed);
  w.kv("raw_session_seeds", c.raw_session_seeds);
  w.kv("sample_playtime", c.sample_playtime);
  w.end_object();
}

GridCell parse_cell(const JsonValue& v) {
  GridCell c;
  c.label = parse_str(v, "label");
  c.ab = parse_bool(v, "ab");
  c.scheme_a = from_key(kSchemeKeys, parse_str(v, "scheme_a"), "scheme");
  c.options_a = parse_options(parse_obj(v, "options_a"));
  c.scheme_b = from_key(kSchemeKeys, parse_str(v, "scheme_b"), "scheme");
  c.options_b = parse_options(parse_obj(v, "options_b"));
  c.pop = parse_population(parse_obj(v, "pop"));
  c.day_seed = parse_u64(v, "day_seed");
  c.raw_session_seeds = parse_bool(v, "raw_session_seeds");
  c.sample_playtime = parse_bool(v, "sample_playtime");
  return c;
}

void write_samples(JsonWriter& w, const stats::Summary& s) {
  w.begin_array();
  for (double v : s.samples()) w.value(encode_double(v));
  w.end_array();
}

stats::Summary parse_samples(const JsonValue& arr) {
  stats::Summary s;
  for (const JsonValue& v : arr.array) {
    if (v.is_string())
      s.add(decode_double(v.str));
    else if (v.is_number())
      s.add(v.number);
    else
      fail("sample is neither hex-float string nor number");
  }
  return s;
}

void write_registry(JsonWriter& w, const telemetry::MetricsRegistry& m) {
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, v] : m.counters()) kv_u64(w, name.c_str(), v);
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, v] : m.gauges()) kv_double(w, name.c_str(), v);
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : m.histograms()) {
    w.key(name);
    w.begin_object();
    kv_u64(w, "count", h.count);
    kv_double(w, "sum", h.sum);
    kv_double(w, "min", h.min);
    kv_double(w, "max", h.max);
    w.key("buckets");
    w.begin_object();
    for (const auto& [idx, n] : h.buckets) kv_u64(w, std::to_string(idx).c_str(), n);
    w.end_object();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

telemetry::MetricsRegistry parse_registry(const JsonValue& v) {
  telemetry::MetricsRegistry m;
  for (const auto& [name, val] : parse_obj(v, "counters").object)
    m.add_counter(name, u64_from(val, name));
  for (const auto& [name, val] : parse_obj(v, "gauges").object)
    m.set_gauge(name, double_from(val, name));
  for (const auto& [name, hv] : parse_obj(v, "histograms").object) {
    telemetry::Histogram h;
    h.count = parse_u64(hv, "count");
    h.sum = parse_double(hv, "sum");
    h.min = parse_double(hv, "min");
    h.max = parse_double(hv, "max");
    for (const auto& [idx, n] : parse_obj(hv, "buckets").object) {
      int bucket = 0;
      const char* end = idx.data() + idx.size();
      const auto [ptr, ec] = std::from_chars(idx.data(), end, bucket);
      if (ec != std::errc() || ptr != end)
        fail("histogram '" + name + "' bucket '" + idx + "' not an int");
      h.buckets[bucket] = u64_from(n, idx);
    }
    m.restore_histogram(name, std::move(h));
  }
  return m;
}

void write_day_metrics(JsonWriter& w, const DayMetrics& d) {
  w.begin_object();
  w.key("rct");
  write_samples(w, d.rct);
  w.key("first_frame");
  write_samples(w, d.first_frame);
  w.key("startup_delay");
  write_samples(w, d.startup_delay);
  kv_double(w, "rebuffer_rate", d.rebuffer_rate);
  kv_double(w, "redundancy_pct", d.redundancy_pct);
  // unfinished_downloads and the abr_* totals repeat what the registry and
  // abr_utility hold. They stay because the file format is pinned byte for
  // byte; parse_day_metrics rejects a file whose copies disagree.
  const telemetry::MetricsRegistry& m = d.metrics;
  w.kv("sessions", d.sessions);
  w.kv("unfinished_downloads",
       m.counter("session.count") - m.counter("session.downloads_finished"));
  w.key("abr_utility");
  write_samples(w, d.abr_utility);
  kv_u64(w, "abr_decisions", m.counter("session.abr.decisions"));
  kv_u64(w, "abr_switches", m.counter("session.abr.switches"));
  kv_u64(w, "abr_switch_magnitude", m.counter("session.abr.switch_magnitude"));
  w.kv("abr_sessions", static_cast<std::uint64_t>(d.abr_utility.count()));
  w.key("metrics");
  write_registry(w, d.metrics);
  w.end_object();
}

DayMetrics parse_day_metrics(const JsonValue& v) {
  DayMetrics d;
  d.rct = parse_samples(parse_arr(v, "rct"));
  d.first_frame = parse_samples(parse_arr(v, "first_frame"));
  d.startup_delay = parse_samples(parse_arr(v, "startup_delay"));
  d.rebuffer_rate = parse_double(v, "rebuffer_rate");
  d.redundancy_pct = parse_double(v, "redundancy_pct");
  d.sessions = parse_int(v, "sessions");
  d.abr_utility = parse_samples(parse_arr(v, "abr_utility"));
  d.metrics = parse_registry(parse_obj(v, "metrics"));
  const telemetry::MetricsRegistry& m = d.metrics;
  const auto expect = [](const char* k, std::uint64_t stored,
                         std::uint64_t derived) {
    if (stored != derived)
      fail(std::string("field '") + k + "' is " + std::to_string(stored) +
           " but the registry and samples give " + std::to_string(derived));
  };
  expect("unfinished_downloads", parse_int(v, "unfinished_downloads"),
         m.counter("session.count") - m.counter("session.downloads_finished"));
  expect("abr_decisions", parse_u64(v, "abr_decisions"),
         m.counter("session.abr.decisions"));
  expect("abr_switches", parse_u64(v, "abr_switches"),
         m.counter("session.abr.switches"));
  expect("abr_switch_magnitude", parse_u64(v, "abr_switch_magnitude"),
         m.counter("session.abr.switch_magnitude"));
  expect("abr_sessions", parse_int(v, "abr_sessions"), d.abr_utility.count());
  return d;
}

// -------------------------------------------------------- file utilities

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Writes atomically: tmp file + rename, so readers never see a torn file
/// and a crash mid-write never produces a corrupt shard.
void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) fail("cannot write " + tmp);
    out << content;
    if (!out.flush()) fail("short write to " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0)
    fail("rename " + tmp + " -> " + path + ": " + std::strerror(errno));
}

JsonValue parse_json_or_fail(const std::string& text, const std::string& what) {
  auto parsed = telemetry::parse_json(text);
  if (!parsed) fail("malformed JSON in " + what);
  return std::move(*parsed);
}

bool pid_is_dead(long pid) {
  if (pid <= 0) return false;  // unparsable owner: assume live
  return ::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH;
}

double now_wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ------------------------------------------------------------ public API

std::string encode_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

double decode_double(const std::string& s) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0')
    fail("not a hex-float: '" + s + "'");
  return v;
}

void write_manifest(const GridSpec& spec, std::ostream& os) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("xlink_grid_manifest", 1);
  w.kv("grid", spec.name);
  w.key("cells");
  w.begin_array();
  for (std::size_t i = 0; i < spec.cells.size(); ++i)
    write_cell(w, i, spec.cells[i]);
  w.end_array();
  w.end_object();
  os << "\n";
}

GridSpec parse_manifest(const std::string& text) {
  const JsonValue root = parse_json_or_fail(text, "manifest");
  if (!root.get("xlink_grid_manifest")) fail("not a grid manifest");
  GridSpec spec;
  spec.name = parse_str(root, "grid");
  for (const JsonValue& cv : parse_arr(root, "cells").array)
    spec.cells.push_back(parse_cell(cv));
  return spec;
}

CellResult run_cell(const GridCell& cell, unsigned jobs) {
  CellResult r;
  if (!cell.raw_session_seeds && !cell.sample_playtime) {
    // The canonical path: exactly run_day / run_ab_day, so a sharded grid
    // inherits their bit-identical-at-any-job-count contract verbatim.
    if (cell.ab) {
      AbDay day = run_ab_day(cell.scheme_a, cell.options_a, cell.scheme_b,
                             cell.options_b, cell.pop, cell.day_seed, jobs);
      r.arm_a = std::move(day.arm_a);
      r.arm_b = std::move(day.arm_b);
    } else {
      r.arm_a =
          run_day(cell.scheme_a, cell.options_a, cell.pop, cell.day_seed, jobs);
    }
    return r;
  }

  // fig10-style cells: historical raw population seeds (day_seed + i) and
  // an optional per-session buffer-level sampler, folded with the same
  // index-order arithmetic as run_day.
  auto run_arm = [&cell, jobs](core::Scheme scheme,
                               const core::SchemeOptions& options,
                               stats::Summary& playtime) {
    const auto n = static_cast<std::size_t>(cell.pop.sessions_per_day);
    std::vector<stats::Summary> slots(n);
    std::function<void(std::size_t, Session&)> setup;
    if (cell.sample_playtime) {
      setup = [&slots](std::size_t i, Session& session) {
        session.sample_period = sim::millis(100);
        stats::Summary& slot = slots[i];
        session.on_sample = [&slot](Session& s) {
          const auto* p = s.player();
          if (!p || !p->first_frame_latency() || p->finished()) return;
          slot.add(sim::to_millis(p->buffer_level()));
        };
      };
    }
    const auto results = run_sessions_parallel(
        n,
        [&cell, scheme, &options](std::size_t i) {
          const std::uint64_t seed = cell.raw_session_seeds
                                         ? cell.day_seed + i
                                         : cell.day_seed * 1000003ULL + i;
          SessionConfig cfg = draw_session_conditions(cell.pop, seed);
          cfg.scheme = scheme;
          cfg.options = options;
          return cfg;
        },
        setup, jobs);
    for (const stats::Summary& s : slots) playtime.add_all(s.samples());
    return fold_day(results);
  };
  r.arm_a = run_arm(cell.scheme_a, cell.options_a, r.playtime_a);
  if (cell.ab) r.arm_b = run_arm(cell.scheme_b, cell.options_b, r.playtime_b);
  return r;
}

void write_cell_result(const GridCell& cell, const CellResult& result,
                       std::ostream& os) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("xlink_grid_shard", 1);
  w.kv("label", cell.label);
  w.kv("ab", cell.ab);
  w.kv("sample_playtime", cell.sample_playtime);
  // Plain number: timing is metadata, excluded from merged output.
  w.kv("wall_s", result.wall_seconds);
  w.key("arm_a");
  write_day_metrics(w, result.arm_a);
  if (cell.ab) {
    w.key("arm_b");
    write_day_metrics(w, result.arm_b);
  }
  if (cell.sample_playtime) {
    w.key("playtime_a");
    write_samples(w, result.playtime_a);
    if (cell.ab) {
      w.key("playtime_b");
      write_samples(w, result.playtime_b);
    }
  }
  w.end_object();
  os << "\n";
}

CellResult parse_cell_result(const std::string& text) {
  const JsonValue root = parse_json_or_fail(text, "shard");
  if (!root.get("xlink_grid_shard")) fail("not a grid shard file");
  CellResult r;
  r.wall_seconds = root.get_num("wall_s");
  r.arm_a = parse_day_metrics(parse_obj(root, "arm_a"));
  if (const JsonValue* b = root.get("arm_b")) r.arm_b = parse_day_metrics(*b);
  if (const JsonValue* p = root.get("playtime_a")) r.playtime_a = parse_samples(*p);
  if (const JsonValue* p = root.get("playtime_b")) r.playtime_b = parse_samples(*p);
  return r;
}

void write_grid_results(const GridSpec& spec,
                        const std::vector<CellResult>& results,
                        std::ostream& os) {
  if (results.size() != spec.cells.size())
    fail("result count " + std::to_string(results.size()) +
         " != cell count " + std::to_string(spec.cells.size()));
  JsonWriter w(os);
  w.begin_object();
  w.kv("xlink_grid_results", 1);
  w.kv("grid", spec.name);
  w.key("cells");
  w.begin_array();
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    const GridCell& cell = spec.cells[i];
    const CellResult& r = results[i];
    w.begin_object();
    w.kv("index", static_cast<std::uint64_t>(i));
    w.kv("label", cell.label);
    w.kv("ab", cell.ab);
    w.key("arm_a");
    write_day_metrics(w, r.arm_a);
    if (cell.ab) {
      w.key("arm_b");
      write_day_metrics(w, r.arm_b);
    }
    if (cell.sample_playtime) {
      w.key("playtime_a");
      write_samples(w, r.playtime_a);
      if (cell.ab) {
        w.key("playtime_b");
        write_samples(w, r.playtime_b);
      }
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

std::vector<CellResult> run_grid_inprocess(const GridSpec& spec,
                                           unsigned jobs) {
  std::vector<CellResult> results;
  results.reserve(spec.cells.size());
  for (const GridCell& cell : spec.cells) results.push_back(run_cell(cell, jobs));
  return results;
}

// ----------------------------------------------------------------- Spool

namespace {

std::string cell_stem(const std::string& dir, std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "cell-%05zu", index);
  return dir + "/" + buf;
}

}  // namespace

std::string Spool::todo_path(std::size_t index) const {
  return cell_stem(dir_, index) + ".todo";
}
std::string Spool::claim_path(std::size_t index) const {
  return cell_stem(dir_, index) + ".claim";
}
std::string Spool::result_path(std::size_t index) const {
  return cell_stem(dir_, index) + ".json";
}

Spool Spool::plan(
    const GridSpec& spec, const std::string& dir,
    const std::vector<std::pair<std::size_t, CellResult>>& precomputed) {
  fs::create_directories(dir);
  const std::string manifest_path = dir + "/manifest.json";
  if (fs::exists(manifest_path))
    fail("spool " + dir + " already planned (manifest.json exists)");
  {
    std::ostringstream os;
    write_manifest(spec, os);
    write_file_atomic(manifest_path, os.str());
  }
  Spool spool(dir);
  for (const auto& [index, result] : precomputed) {
    if (index >= spec.cells.size()) fail("precomputed index out of range");
    spool.complete(index, result);
  }
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    if (spool.has_result(i)) continue;
    write_file_atomic(spool.todo_path(i), std::to_string(i) + "\n");
  }
  return spool;
}

Spool::Spool(std::string dir) : dir_(std::move(dir)) {
  spec_ = parse_manifest(read_file(dir_ + "/manifest.json"));
}

std::optional<std::size_t> Spool::claim_next() {
  for (std::size_t i = 0; i < spec_.cells.size(); ++i) {
    if (has_result(i)) continue;
    // Fast path: steal the todo. Exactly one racing worker's rename
    // succeeds; the losers see ENOENT and move on.
    if (::rename(todo_path(i).c_str(), claim_path(i).c_str()) == 0) {
      write_file_atomic(claim_path(i),
                        "{\"pid\": " +
                            std::to_string(static_cast<long>(::getpid())) +
                            "}\n");
      return i;
    }
    // No todo: the cell is claimed. Re-spool it if its owner is dead
    // (a worker killed mid-cell), then retry the same index once.
    std::string content;
    try {
      content = read_file(claim_path(i));
    } catch (const std::runtime_error&) {
      continue;  // completed or re-claimed concurrently; move on
    }
    long pid = 0;
    if (auto parsed = telemetry::parse_json(content))
      pid = static_cast<long>(parsed->get_u64("pid"));
    if (pid_is_dead(pid) &&
        ::rename(claim_path(i).c_str(), todo_path(i).c_str()) == 0) {
      if (::rename(todo_path(i).c_str(), claim_path(i).c_str()) == 0) {
        write_file_atomic(claim_path(i),
                          "{\"pid\": " +
                              std::to_string(static_cast<long>(::getpid())) +
                              "}\n");
        return i;
      }
    }
  }
  return std::nullopt;
}

void Spool::complete(std::size_t index, const CellResult& result) {
  if (index >= spec_.cells.size()) fail("complete: index out of range");
  std::ostringstream os;
  write_cell_result(spec_.cells[index], result, os);
  write_file_atomic(result_path(index), os.str());
  std::remove(claim_path(index).c_str());
  std::remove(todo_path(index).c_str());
}

void Spool::abandon(std::size_t index) {
  if (::rename(claim_path(index).c_str(), todo_path(index).c_str()) != 0)
    fail("abandon: no claim for cell " + std::to_string(index));
}

bool Spool::has_result(std::size_t index) const {
  return fs::exists(result_path(index));
}

std::size_t Spool::completed() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < spec_.cells.size(); ++i)
    if (has_result(i)) ++n;
  return n;
}

std::size_t Spool::reclaim_all_claims() {
  std::size_t n = 0;
  for (std::size_t i = 0; i < spec_.cells.size(); ++i) {
    if (has_result(i)) continue;
    if (::rename(claim_path(i).c_str(), todo_path(i).c_str()) == 0) ++n;
  }
  return n;
}

std::vector<CellResult> Spool::collect(
    std::vector<std::size_t>* missing) const {
  std::vector<CellResult> results(spec_.cells.size());
  for (std::size_t i = 0; i < spec_.cells.size(); ++i) {
    if (!has_result(i)) {
      if (missing) missing->push_back(i);
      continue;
    }
    results[i] = parse_cell_result(read_file(result_path(i)));
  }
  return results;
}

WorkerReport run_worker(Spool& spool, unsigned jobs) {
  WorkerReport report;
  const double t0 = now_wall_seconds();
  while (auto index = spool.claim_next()) {
    const double c0 = now_wall_seconds();
    CellResult result = run_cell(spool.spec().cells[*index], jobs);
    result.wall_seconds = now_wall_seconds() - c0;
    spool.complete(*index, result);
    report.cell_wall_seconds.emplace_back(*index, result.wall_seconds);
  }
  report.total_wall_seconds = now_wall_seconds() - t0;
  return report;
}

}  // namespace xlink::harness::shard
