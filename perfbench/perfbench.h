// Measurement helpers of the repository benchmark: nested spans with self
// time, the tail-percentile rule, medians, and the result digest. They sit
// in a header of their own so the benchmark's tests exercise exactly the
// arithmetic the benchmark reports.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "harness/shard.h"

namespace xlink::perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ spans

/// The layer boundaries the benchmark wraps from outside the library.
enum class SpanKind : std::uint8_t {
  kServerReadable,  // http.server.on_readable (MediaServer's stream hook)
  kClientReadable,  // http.client.on_readable (MediaClient's stream hook)
  kClientDatagram,  // quic.client.on_datagram (downlink receiver)
  kServerDatagram,  // quic.server.on_datagram (uplink receiver)
  kNetSend,         // net.send (the connections' send callbacks)
};
constexpr std::size_t kSpanKinds = 5;

struct SpanTotals {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
};

/// Self-time accounting for spans that nest on one thread: a span's self
/// time is its duration minus the durations of the spans opened inside it.
/// One recorder belongs to one session, so it needs no locking.
class SpanRecorder {
 public:
  void enter(SpanKind kind, std::int64_t t_ns) {
    open_.push_back({kind, t_ns, 0});
  }

  void leave(std::int64_t t_ns) {
    const Open top = open_.back();
    open_.pop_back();
    const std::int64_t duration = t_ns - top.start_ns;
    SpanTotals& totals = totals_[static_cast<std::size_t>(top.kind)];
    ++totals.calls;
    totals.self_ns += duration - top.child_ns;
    if (!open_.empty()) open_.back().child_ns += duration;
  }

  const SpanTotals& totals(SpanKind kind) const {
    return totals_[static_cast<std::size_t>(kind)];
  }

 private:
  struct Open {
    SpanKind kind;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  std::vector<Open> open_;
  std::array<SpanTotals, kSpanKinds> totals_{};
};

/// Scoped span on the steady clock.
class Span {
 public:
  Span(SpanRecorder& recorder, SpanKind kind) : recorder_(recorder) {
    recorder_.enter(kind, now_ns());
  }
  ~Span() { recorder_.leave(now_ns()); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder& recorder_;
};

// ------------------------------------------------------------ statistics

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile `p` of `v` (0 for an empty vector).
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size());
  std::size_t index = static_cast<std::size_t>(rank);
  if (static_cast<double>(index) == rank && index > 0) --index;  // ceil - 1
  return v[std::min(index, v.size() - 1)];
}

/// A run's figure for a time measured over repeated, identical batches:
/// their 10th percentile. Interference from other tenants of a shared
/// machine only ever adds time, and it comes in spells of seconds, so the
/// fast end of the repetitions is the steady estimate of the program's own
/// cost; the median moves with the spells.
inline double repeated_time(std::vector<double> times) {
  return percentile(std::move(times), 10.0);
}

struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;  // samples ranked above the reported one
  std::size_t samples = 0;
};

/// The highest percentile that still has `min_beyond` samples beyond it:
/// with nearest-rank percentiles that is the (min_beyond+1)-th largest
/// sample, which is the 100*(n-min_beyond)/n-th percentile of n samples.
/// Its value moves smoothly as the sample count drifts between runs. With
/// too few samples it falls back to the maximum (percentile 100).
inline Tail tail_percentile(std::vector<double> samples,
                            std::size_t min_beyond = 10) {
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  t.beyond = n > min_beyond ? min_beyond : 0;
  const std::size_t rank = n - t.beyond;  // 1-based
  t.value = samples[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return t;
}

// ---------------------------------------------------------------- digest

inline std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

inline std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The shard-codec bytes of a folded batch (timing zeroed, so the bytes are
/// a pure function of the session outcomes).
inline std::string cell_bytes(const harness::shard::GridCell& cell,
                              harness::shard::CellResult result) {
  result.wall_seconds = 0.0;
  std::ostringstream os;
  harness::shard::write_cell_result(cell, result, os);
  return os.str();
}

struct Digest {
  std::string hex;          // fnv1a64 of the shard-codec bytes
  bool round_trip = false;  // parse + re-encode reproduced the bytes
};

/// Digest of a folded batch, plus the shard-codec round trip check.
inline Digest digest_of(const harness::shard::GridCell& cell,
                        const harness::shard::CellResult& result) {
  const std::string bytes = cell_bytes(cell, result);
  Digest d;
  d.hex = hex64(fnv1a64(bytes));
  d.round_trip =
      cell_bytes(cell, harness::shard::parse_cell_result(bytes)) == bytes;
  return d;
}

}  // namespace xlink::perfbench
