// qlog-flavored JSON export/import of a TraceSink.
//
// One traced connection (session) = one JSON document, shaped after the
// qlog endpoint-tracing drafts: a top-level envelope with qlog_version and
// a single trace whose "events" array holds {"time", "name", "data"}
// entries. Times are integer microseconds of simulated time (exact
// round-trip; common_fields records the unit). Event names follow the
// qlog "category:name" convention ("transport:packet_sent",
// "recovery:packet_lost", ...) with XLINK-specific events under the
// "xlink:" and "player:" categories.
//
// One table in qlog.cpp holds the schema: for each EventType its name and
// its data fields in export order, each with its JSON key, the Event slot
// it lives in and how it is written. Export and import are each one loop
// over that table. Import (parse_qlog) reconstructs the typed Event
// stream, which is what the round-trip tests assert on and what the
// xlink_qlog analyzer consumes: every document write_qlog produces parses
// back to equal events and is written again byte for byte.
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "telemetry/event.h"
#include "telemetry/trace_sink.h"

namespace xlink::telemetry {

/// Trace-level metadata recorded in common_fields.
struct QlogMeta {
  std::string title;     // e.g. "xlink exemplar"
  std::string scenario;  // e.g. "fig10_tth_400_900"
  std::string scheme;    // transport scheme name
  std::uint64_t seed = 0;
};

void write_qlog(std::ostream& os, const std::vector<Event>& events,
                const QlogMeta& meta, std::uint64_t recorded = 0,
                std::uint64_t dropped = 0);

inline void write_qlog(std::ostream& os, const TraceSink& sink,
                       const QlogMeta& meta) {
  write_qlog(os, sink.snapshot(), meta, sink.recorded(), sink.dropped());
}

/// Writes to `path`; returns false on I/O failure.
bool write_qlog_file(const std::string& path, const TraceSink& sink,
                     const QlogMeta& meta);

struct ParsedTrace {
  QlogMeta meta;
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::vector<Event> events;
};

/// Parses a document produced by write_qlog; nullopt on malformed input
/// or unknown event names.
std::optional<ParsedTrace> parse_qlog(const std::string& text);
std::optional<ParsedTrace> parse_qlog_file(const std::string& path);

}  // namespace xlink::telemetry
