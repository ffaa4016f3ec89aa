// MetricsRegistry: deterministic counters/gauges/histograms.
//
// Each session owns one registry (filled at the end of Session::run), and
// the parallel engine merges the per-session registries IN SESSION-INDEX
// ORDER — the same fold contract harness/parallel.h uses for DayMetrics —
// so the merged registry is bit-identical for every XLINK_JOBS value:
// identical per-slot inputs folded in an identical order produce an
// identical floating-point accumulation sequence.
//
// Merge semantics per kind:
//  - counter:   sum
//  - gauge:     last merged value wins (a gauge is "the latest reading")
//  - histogram: bucket-wise sum; sum/count add, min/max combine
//
// Histograms use log2 buckets (bucket i holds values in [2^i, 2^(i+1)),
// negatives and zero in bucket INT32_MIN side bucket 0) — coarse, but
// mergeable without retaining samples, which keeps the registry O(metrics)
// rather than O(events).
//
// The registry's one JSON encoding is the grid-shard codec's lossless
// write_registry / parse_registry (harness/shard.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

namespace xlink::telemetry {

struct Histogram {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// log2 bucket index -> count; values <= 0 land in bucket -1075 (below
  /// every representable positive double's exponent).
  std::map<int, std::uint64_t> buckets;

  void observe(double v);
  void merge(const Histogram& other);
  double mean() const { return count == 0 ? 0.0 : sum / double(count); }

  bool operator==(const Histogram&) const = default;
};

class MetricsRegistry {
 public:
  void add_counter(const std::string& name, std::uint64_t delta = 1) {
    counters_[name] += delta;
  }
  void set_gauge(const std::string& name, double value) {
    gauges_[name] = value;
  }
  void observe(const std::string& name, double value) {
    histograms_[name].observe(value);
  }

  std::uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  const Histogram* histogram(const std::string& name) const;

  /// Folds `other` into this registry (see merge semantics above). Callers
  /// must merge in a deterministic order; harness/parallel.cpp merges in
  /// session-index order.
  void merge(const MetricsRegistry& other);

  /// Replaces the named histogram wholesale. Deserializers (the grid-shard
  /// reader in harness/shard.cpp) use this to reconstruct a registry
  /// bit-for-bit, which observe() cannot do from aggregated state.
  void restore_histogram(const std::string& name, Histogram h) {
    histograms_[name] = std::move(h);
  }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  bool operator==(const MetricsRegistry&) const = default;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace xlink::telemetry
