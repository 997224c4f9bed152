#include "obs/metrics.h"

#include <algorithm>

#include "util/cpu.h"

namespace tinprov::obs {

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const auto& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::BucketLow(size_t i) {
  if (i == 0) return 0.0;
  return static_cast<double>(uint64_t{1} << (i - 1));
}

double Histogram::BucketHigh(size_t i) {
  if (i == 0) return 1.0;
  if (i >= 63) return 2.0 * static_cast<double>(uint64_t{1} << 62);
  return static_cast<double>(uint64_t{1} << i);
}

double Histogram::Percentile(double p) const {
  p = std::min(1.0, std::max(0.0, p));
  uint64_t counts[kNumBuckets];
  uint64_t total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  // The sample with (1-based) rank ceil(p * total); linear
  // interpolation inside its bucket.
  double rank = p * static_cast<double>(total);
  if (rank < 1.0) rank = 1.0;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (counts[i] == 0) continue;
    const uint64_t before = cumulative;
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= rank) {
      // Bucket 0 is degenerate: it holds only the exact value 0.
      if (i == 0) return 0.0;
      const double fraction = (rank - static_cast<double>(before)) /
                              static_cast<double>(counts[i]);
      return BucketLow(i) + fraction * (BucketHigh(i) - BucketLow(i));
    }
  }
  return BucketHigh(kNumBuckets - 1);
}

Histogram::Snapshot Histogram::GetSnapshot() const {
  Snapshot snapshot;
  snapshot.count = Count();
  snapshot.sum = Sum();
  snapshot.p50 = Percentile(0.50);
  snapshot.p90 = Percentile(0.90);
  snapshot.p99 = Percentile(0.99);
  return snapshot;
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  // Deliberately leaked: instrumentation sites cache raw pointers and
  // may fire from static destructors, so the registry must outlive
  // everything.
  static MetricsRegistry* const registry = [] {
    auto* r = new MetricsRegistry();
    // The dispatch level is fixed for the process lifetime (util/cpu.h),
    // so publish it once: every exporter, /statusz, and recorded bench
    // JSON then carries which kernel table this run actually used.
    r->GetGauge("cpu.simd_level")
        ->Set(static_cast<double>(cpu::ActiveSimdLevel()));
    return r;
  }();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::CounterValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> values;
  values.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    values.emplace_back(name, counter->Value());
  }
  return values;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::GaugeValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> values;
  values.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    values.emplace_back(name, gauge->Value());
  }
  return values;
}

std::vector<std::pair<std::string, Histogram::Snapshot>>
MetricsRegistry::HistogramSnapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Histogram::Snapshot>> values;
  values.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    values.emplace_back(name, histogram->GetSnapshot());
  }
  return values;
}

double MetricsRegistry::MemoryBytes() const {
  constexpr std::string_view kPrefix = "memory.";
  double bytes = 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, gauge] : gauges_) {
    if (std::string_view(name).substr(0, kPrefix.size()) == kPrefix) {
      bytes += gauge->Value();
    }
  }
  return bytes;
}

void MetricsRegistry::ResetForTesting() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace tinprov::obs
