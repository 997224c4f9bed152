// Process-wide metrics: named counters, gauges, and log2-bucket latency
// histograms behind one MetricsRegistry.
//
// This is the observability substrate every engine layer reports
// through (stream ingest rate, shard balance, snapshot cost, tracker
// memory) and that the exporters (obs/export.h) turn into Prometheus
// text or a JSON snapshot merged into the bench baselines.
//
// Concurrency model: every mutation is a relaxed atomic op. Counters
// additionally shard across a small set of cache-line-padded cells
// indexed by a per-thread slot, so the hot per-interaction increments
// never contend on one line. Reads (Value(), snapshots) sum the cells;
// they are exact once writers have quiesced (joined), and monotone
// best-effort while they run — good enough for live dashboards, exact
// for end-of-run reports.
//
// Cost model: instrumentation call sites go through the TINPROV_*
// macros below, which cache the registry lookup in a function-local
// static and compile to NOTHING when the library is built with
// -DTINPROV_METRICS=OFF (no clock reads, no atomics, no argument
// evaluation). tests/test_obs.cc holds the no-op proof; bench_micro's
// overhead smoke holds the <=2% bound for the ON build.
#ifndef TINPROV_OBS_METRICS_H_
#define TINPROV_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/stopwatch.h"

namespace tinprov::obs {

/// True when the library was compiled with metrics (the default);
/// false under -DTINPROV_METRICS=OFF, where every metric op is a no-op.
#if defined(TINPROV_METRICS_ENABLED)
inline constexpr bool kMetricsEnabled = true;
#else
inline constexpr bool kMetricsEnabled = false;
#endif

namespace internal {

inline constexpr size_t kCounterShards = 8;  // power of two

/// Stable small slot for the calling thread, assigned round-robin on
/// first use so concurrent replay workers land on distinct cells.
inline size_t ThreadSlot() {
  static std::atomic<size_t> next{0};
  thread_local const size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) & (kCounterShards - 1);
  return slot;
}

struct alignas(64) PaddedCell {
  std::atomic<uint64_t> value{0};
};

}  // namespace internal

/// Monotonic counter, per-thread sharded (see file comment).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
#if defined(TINPROV_METRICS_ENABLED)
    cells_[internal::ThreadSlot()].value.fetch_add(n,
                                                   std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  uint64_t Value() const {
#if defined(TINPROV_METRICS_ENABLED)
    uint64_t sum = 0;
    for (const auto& cell : cells_) {
      sum += cell.value.load(std::memory_order_relaxed);
    }
    return sum;
#else
    return 0;
#endif
  }

  /// Test support: zeroes the cells. Never called on hot paths.
  void Reset() {
#if defined(TINPROV_METRICS_ENABLED)
    for (auto& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
#endif
  }

 private:
#if defined(TINPROV_METRICS_ENABLED)
  internal::PaddedCell cells_[internal::kCounterShards];
#endif
};

/// Last-written-wins gauge with atomic add and monotone-max variants.
/// Double-valued so one type covers byte totals, watermarks, depths,
/// and the alpha residue.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) {
#if defined(TINPROV_METRICS_ENABLED)
    value_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }

  void Add(double d) {
#if defined(TINPROV_METRICS_ENABLED)
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + d,
                                         std::memory_order_relaxed)) {
    }
#else
    (void)d;
#endif
  }

  /// Raises the gauge to `v` if larger (peak tracking).
  void SetMax(double v) {
#if defined(TINPROV_METRICS_ENABLED)
    double current = value_.load(std::memory_order_relaxed);
    while (current < v && !value_.compare_exchange_weak(
                              current, v, std::memory_order_relaxed)) {
    }
#else
    (void)v;
#endif
  }

  double Value() const {
#if defined(TINPROV_METRICS_ENABLED)
    return value_.load(std::memory_order_relaxed);
#else
    return 0.0;
#endif
  }

  void Reset() { Set(0.0); }

 private:
#if defined(TINPROV_METRICS_ENABLED)
  std::atomic<double> value_{0.0};
#endif
};

/// Log2-bucket histogram over non-negative integer samples (latencies
/// in nanoseconds, list lengths, cone sizes). Bucket 0 holds the value
/// 0; bucket i>0 holds [2^(i-1), 2^i). Percentiles interpolate linearly
/// inside the selected bucket, so the estimate is within the bucket's
/// 2x width of the exact quantile (tests/test_obs.cc pins this down).
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 64;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(uint64_t value) {
#if defined(TINPROV_METRICS_ENABLED)
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
#else
    (void)value;
#endif
  }

  uint64_t Count() const;
  uint64_t Sum() const {
#if defined(TINPROV_METRICS_ENABLED)
    return sum_.load(std::memory_order_relaxed);
#else
    return 0;
#endif
  }

  /// Estimated quantile for `p` in [0, 1]; 0 when empty.
  double Percentile(double p) const;

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };
  Snapshot GetSnapshot() const;

  void Reset();

  /// Lower (inclusive) and upper (exclusive) value bound of bucket `i`.
  static double BucketLow(size_t i);
  static double BucketHigh(size_t i);

  static size_t BucketIndex(uint64_t value) {
    if (value == 0) return 0;
    size_t bits = 0;
    while (value > 0) {
      value >>= 1;
      ++bits;
    }
    return bits < kNumBuckets ? bits : kNumBuckets - 1;
  }

 private:
#if defined(TINPROV_METRICS_ENABLED)
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> sum_{0};
#endif
};

/// The process-wide registry. Get*() interns by name and returns a
/// pointer that stays valid for the life of the process (the registry
/// is deliberately leaked, so instrumentation in static destructors
/// cannot use-after-free). Counters, gauges, and histograms occupy
/// separate namespaces.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Sorted (name, value) views for the exporters.
  std::vector<std::pair<std::string, uint64_t>> CounterValues() const;
  std::vector<std::pair<std::string, double>> GaugeValues() const;
  std::vector<std::pair<std::string, Histogram::Snapshot>>
  HistogramSnapshots() const;

  /// Engine-wide bytes: the sum of every gauge whose name starts with
  /// "memory." — the one call that unifies tracker MemoryUsage(),
  /// pool/arena reservations, serve's retained history, and ingest
  /// buffering, each kept current by its layer's sampling points.
  double MemoryBytes() const;

  /// Test support: zeroes every registered metric without invalidating
  /// the pointers cached at instrumentation sites.
  void ResetForTesting();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// RAII latency probe: observes elapsed nanoseconds into a histogram on
/// destruction. Use through TINPROV_SCOPED_LATENCY_NS so the clock
/// reads vanish in no-metrics builds.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* histogram) : histogram_(histogram) {}
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;
  ~ScopedLatency() {
    histogram_->Observe(static_cast<uint64_t>(watch_.ElapsedNanos()));
  }

 private:
  Histogram* histogram_;
  Stopwatch watch_;
};

/// RAII busy/idle probe: adds elapsed nanoseconds to a counter on
/// destruction (e.g. per-shard busy vs queue-wait idle time).
class ScopedCounterNs {
 public:
  explicit ScopedCounterNs(Counter* counter) : counter_(counter) {}
  ScopedCounterNs(const ScopedCounterNs&) = delete;
  ScopedCounterNs& operator=(const ScopedCounterNs&) = delete;
  ~ScopedCounterNs() {
    counter_->Add(static_cast<uint64_t>(watch_.ElapsedNanos()));
  }

 private:
  Counter* counter_;
  Stopwatch watch_;
};

}  // namespace tinprov::obs

// Instrumentation macros. Each caches its registry lookup in a
// function-local static (thread-safe, one lock ever per site) and
// compiles to an empty statement — arguments unevaluated — when the
// library is built with -DTINPROV_METRICS=OFF.
#if defined(TINPROV_METRICS_ENABLED)

#define TINPROV_COUNTER_ADD(name, delta)                             \
  do {                                                               \
    static ::tinprov::obs::Counter* const tinprov_metric_counter_ =  \
        ::tinprov::obs::MetricsRegistry::Global().GetCounter(name);  \
    tinprov_metric_counter_->Add(                                    \
        static_cast<uint64_t>(delta));                               \
  } while (0)

#define TINPROV_GAUGE_SET(name, value)                               \
  do {                                                               \
    static ::tinprov::obs::Gauge* const tinprov_metric_gauge_ =      \
        ::tinprov::obs::MetricsRegistry::Global().GetGauge(name);    \
    tinprov_metric_gauge_->Set(static_cast<double>(value));          \
  } while (0)

#define TINPROV_GAUGE_MAX(name, value)                               \
  do {                                                               \
    static ::tinprov::obs::Gauge* const tinprov_metric_gauge_ =      \
        ::tinprov::obs::MetricsRegistry::Global().GetGauge(name);    \
    tinprov_metric_gauge_->SetMax(static_cast<double>(value));       \
  } while (0)

#define TINPROV_HISTOGRAM_OBSERVE(name, value)                       \
  do {                                                               \
    static ::tinprov::obs::Histogram* const tinprov_metric_hist_ =   \
        ::tinprov::obs::MetricsRegistry::Global().GetHistogram(name);\
    tinprov_metric_hist_->Observe(static_cast<uint64_t>(value));     \
  } while (0)

#define TINPROV_OBS_CONCAT_IMPL(a, b) a##b
#define TINPROV_OBS_CONCAT(a, b) TINPROV_OBS_CONCAT_IMPL(a, b)

#define TINPROV_SCOPED_LATENCY_NS(name)                              \
  static ::tinprov::obs::Histogram* const TINPROV_OBS_CONCAT(        \
      tinprov_latency_hist_, __LINE__) =                             \
      ::tinprov::obs::MetricsRegistry::Global().GetHistogram(name);  \
  ::tinprov::obs::ScopedLatency TINPROV_OBS_CONCAT(                  \
      tinprov_latency_span_, __LINE__){TINPROV_OBS_CONCAT(           \
      tinprov_latency_hist_, __LINE__)}

#define TINPROV_SCOPED_COUNTER_NS(name)                              \
  static ::tinprov::obs::Counter* const TINPROV_OBS_CONCAT(          \
      tinprov_counter_ns_, __LINE__) =                               \
      ::tinprov::obs::MetricsRegistry::Global().GetCounter(name);    \
  ::tinprov::obs::ScopedCounterNs TINPROV_OBS_CONCAT(                \
      tinprov_counter_span_, __LINE__){TINPROV_OBS_CONCAT(           \
      tinprov_counter_ns_, __LINE__)}

#else  // !TINPROV_METRICS_ENABLED

#define TINPROV_COUNTER_ADD(name, delta) do { } while (0)
#define TINPROV_GAUGE_SET(name, value) do { } while (0)
#define TINPROV_GAUGE_MAX(name, value) do { } while (0)
#define TINPROV_HISTOGRAM_OBSERVE(name, value) do { } while (0)
#define TINPROV_SCOPED_LATENCY_NS(name) do { } while (0)
#define TINPROV_SCOPED_COUNTER_NS(name) do { } while (0)

#endif  // TINPROV_METRICS_ENABLED

#endif  // TINPROV_OBS_METRICS_H_
