#include "telemetry/metrics.h"

#include <algorithm>
#include <cmath>

namespace xlink::telemetry {

namespace {
constexpr int kUnderflowBucket = -1075;  // below every positive exponent

int bucket_of(double v) {
  if (!(v > 0.0)) return kUnderflowBucket;
  return std::ilogb(v);
}
}  // namespace

void Histogram::observe(double v) {
  if (count == 0) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  ++count;
  sum += v;
  ++buckets[bucket_of(v)];
}

void Histogram::merge(const Histogram& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
  for (const auto& [b, n] : other.buckets) buckets[b] += n;
}

std::uint64_t MetricsRegistry::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const Histogram* MetricsRegistry::histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, v] : other.counters_) counters_[name] += v;
  for (const auto& [name, v] : other.gauges_) gauges_[name] = v;
  for (const auto& [name, h] : other.histograms_) histograms_[name].merge(h);
}

}  // namespace xlink::telemetry
