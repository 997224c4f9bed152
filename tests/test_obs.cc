// The observability substrate: log2-histogram percentiles against exact
// quantiles, sharded counters and histograms under real thread
// contention (the TSan leg runs this label), trace-sink ring semantics
// and chrome://tracing JSON shape, exporter output, and the
// engine-facing pieces that ride on the registry —
// per-batch ingest metrics, the unified "memory." gauge sum, and the
// trackers' alpha-residue accounting (including its snapshot survival).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "datagen/generator.h"
#include "obs/export.h"
#include "obs/health.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/slowlog.h"
#include "obs/trace.h"
#include "policies/proportional_sparse.h"
#include "scalable/budget.h"
#include "scalable/windowed.h"
#include "stream/ingest.h"
#include "stream/interaction_stream.h"

namespace tinprov {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::HealthRegistry;
using obs::HealthResult;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::OpsServer;
using obs::Recorder;
using obs::SlowQueryLog;
using obs::TraceSink;
using obs::TraceSpan;

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().ResetForTesting();
    TraceSink::Global().Clear();
    HealthRegistry::Global().Clear();
    SlowQueryLog::Global().Clear();
  }
};

TEST_F(ObsTest, CounterAddsAndResets) {
  Counter counter;
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST_F(ObsTest, GaugeSetAddMax) {
  Gauge gauge;
  gauge.Set(10.0);
  gauge.Add(5.0);
  gauge.SetMax(12.0);  // below current 15 -> no change
  EXPECT_DOUBLE_EQ(gauge.Value(), 15.0);
  gauge.SetMax(20.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), 20.0);
}

TEST_F(ObsTest, HistogramBucketBoundaries) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  for (size_t i = 1; i + 1 < Histogram::kNumBuckets; ++i) {
    // Bucket i>0 holds [2^(i-1), 2^i).
    const auto low = static_cast<uint64_t>(Histogram::BucketLow(i));
    const auto high = static_cast<uint64_t>(Histogram::BucketHigh(i));
    EXPECT_EQ(Histogram::BucketIndex(low), i);
    EXPECT_EQ(Histogram::BucketIndex(high - 1), i);
    EXPECT_EQ(Histogram::BucketIndex(high), i + 1);
  }
}

// The log2-bucket estimate must land within the exact quantile's bucket:
// the error is bounded by the bucket's 2x width, never more.
TEST_F(ObsTest, HistogramPercentilesTrackExactQuantiles) {
  Histogram histogram;
  std::vector<uint64_t> samples;
  // Deterministic skewed data: mostly small with a long tail, like a
  // latency distribution.
  uint64_t state = 88172645463325252ULL;
  for (int i = 0; i < 20000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const uint64_t value = (state % 1000) < 950 ? state % 4096
                                                : state % (1 << 20);
    samples.push_back(value);
    histogram.Observe(value);
  }
  EXPECT_EQ(histogram.Count(), samples.size());
  std::sort(samples.begin(), samples.end());
  for (const double p : {0.50, 0.90, 0.99}) {
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(p * static_cast<double>(samples.size())));
    const uint64_t exact = samples[rank - 1];
    const double estimate = histogram.Percentile(p);
    const size_t bucket = Histogram::BucketIndex(exact);
    EXPECT_GE(estimate, Histogram::BucketLow(bucket))
        << "p=" << p << " exact=" << exact;
    EXPECT_LE(estimate, Histogram::BucketHigh(bucket))
        << "p=" << p << " exact=" << exact;
  }
  // Degenerate cases.
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.Percentile(0.5), 0.0);
  Histogram zeros;
  zeros.Observe(0);
  zeros.Observe(0);
  EXPECT_DOUBLE_EQ(zeros.Percentile(0.99), 0.0);
}

TEST_F(ObsTest, RegistryInternsByName) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("test.interned");
  EXPECT_EQ(counter, registry.GetCounter("test.interned"));
  EXPECT_NE(counter, registry.GetCounter("test.other"));
  // Counters, gauges, and histograms occupy separate namespaces.
  registry.GetGauge("test.interned");
  registry.GetHistogram("test.interned");
  counter->Add(7);
  registry.ResetForTesting();
  // Reset zeroes values but keeps the interned pointers valid.
  EXPECT_EQ(counter, registry.GetCounter("test.interned"));
  EXPECT_EQ(counter->Value(), 0u);
}

// The TSan target: concurrent writers on one counter and one histogram,
// exact totals once the writers have joined.
TEST_F(ObsTest, ConcurrentCountersAndHistogramsAreExact) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("test.concurrent_counter");
  Gauge* peak = registry.GetGauge("test.concurrent_peak");
  Histogram* histogram = registry.GetHistogram("test.concurrent_histogram");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Add(1);
        histogram->Observe(static_cast<uint64_t>(i));
        peak->SetMax(static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(histogram->Count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  const uint64_t per_thread_sum =
      static_cast<uint64_t>(kPerThread) * (kPerThread - 1) / 2;
  EXPECT_EQ(histogram->Sum(), kThreads * per_thread_sum);
  EXPECT_DOUBLE_EQ(peak->Value(),
                   static_cast<double>(kThreads * kPerThread - 1));
}

TEST_F(ObsTest, MemoryBytesSumsOnlyMemoryGauges) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetGauge("memory.test_a")->Set(100.0);
  registry.GetGauge("memory.test_b")->Set(23.0);
  registry.GetGauge("test.not_memory")->Set(1e9);
  EXPECT_DOUBLE_EQ(registry.MemoryBytes(), 123.0);
}

TEST_F(ObsTest, TraceSinkRingBoundsAndCountsDrops) {
  TraceSink& sink = TraceSink::Global();
  sink.SetCapacityForTesting(4);
  sink.SetEnabledForTesting(true);
  for (int i = 0; i < 10; ++i) {
    sink.Record("test.event", "test", i * 100, 50);
  }
  sink.SetEnabledForTesting(false);
  EXPECT_EQ(sink.num_events(), 4u);
  EXPECT_EQ(sink.dropped_events(), 6u);
  sink.SetCapacityForTesting(1 << 16);
}

TEST_F(ObsTest, TraceSpansProduceChromeTracingJson) {
  TraceSink& sink = TraceSink::Global();
  sink.SetEnabledForTesting(true);
  {
    TraceSpan outer("test.outer", "test");
    TraceSpan inner("test.inner", "test");
  }
  sink.SetEnabledForTesting(false);
  EXPECT_EQ(sink.num_events(), 2u);
  const std::string json = sink.ToJson();
  // Structural shape of the chrome://tracing trace_event format; the
  // scripts/smoke.sh trace smoke additionally json.load()s a real file.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  // Destruction order: inner closes first, so it is recorded first.
  EXPECT_LT(json.find("test.inner"), json.find("test.outer"));
}

TEST_F(ObsTest, SpansAreNotRecordedWhileDisabled) {
  TraceSink& sink = TraceSink::Global();
  ASSERT_FALSE(sink.enabled());
  {
    TraceSpan span("test.ignored", "test");
  }
  EXPECT_EQ(sink.num_events(), 0u);
}

TEST_F(ObsTest, PrometheusTextShapes) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.prom_counter")->Add(3);
  registry.GetGauge("test.prom_gauge")->Set(1.5);
  registry.GetHistogram("test.prom_hist")->Observe(100);
  const std::string text = obs::PrometheusText();
  EXPECT_NE(text.find("# TYPE tinprov_test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("tinprov_test_prom_counter 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tinprov_test_prom_gauge gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tinprov_test_prom_hist summary"),
            std::string::npos);
  EXPECT_NE(text.find("tinprov_test_prom_hist{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("tinprov_test_prom_hist_count 1"), std::string::npos);
}

TEST_F(ObsTest, MetricsJsonIsWellFormedAndComplete) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.json_counter")->Add(5);
  registry.GetHistogram("test.json_hist")->Observe(7);
  const std::string json = obs::MetricsJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_counter\":5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_hist\":{\"count\":1"),
            std::string::npos);
}

// ---- Exporters under concurrent mutation (the TSan leg runs this):
// ---- the scrape path must stay well-formed while ingest-side threads
// ---- hammer every metric type.

TEST_F(ObsTest, ExportersStayWellFormedUnderConcurrentMutation) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("test.scrape_counter");
  Gauge* gauge = registry.GetGauge("test.scrape_gauge");
  Histogram* histogram = registry.GetHistogram("test.scrape_hist");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        counter->Add(1);
        gauge->Set(static_cast<double>(t * 1000 + (i % 1000)));
        histogram->Observe(i % 4096);
        // Interning new names concurrently exercises the registry map
        // lock against the exporters' snapshot path.
        if (i % 512 == 0) {
          registry.GetCounter("test.scrape_born_" + std::to_string(t))
              ->Add(1);
        }
        ++i;
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    const std::string text = obs::PrometheusText();
    const std::string json = obs::MetricsJson();
    ASSERT_NE(text.find("# TYPE"), std::string::npos);
    ASSERT_EQ(json.front(), '{');
    ASSERT_EQ(json.back(), '}');
    ASSERT_NE(json.find("\"counters\":{"), std::string::npos);
    ASSERT_NE(json.find("\"test.scrape_counter\":"), std::string::npos);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& writer : writers) writer.join();
  // A final scrape agrees with the quiesced registry exactly.
  const std::string json = obs::MetricsJson();
  EXPECT_NE(json.find("\"test.scrape_counter\":" +
                      std::to_string(counter->Value())),
            std::string::npos);
}

// ---- TraceSink: idempotent export and drain-once semantics.

TEST_F(ObsTest, TraceSinkToJsonIsIdempotent) {
  TraceSink& sink = TraceSink::Global();
  sink.SetEnabledForTesting(true);
  sink.Record("test.a", "test", 0, 10);
  sink.Record("test.b", "test", 20, 10);
  sink.SetEnabledForTesting(false);
  const std::string first = sink.ToJson();
  const std::string second = sink.ToJson();
  EXPECT_EQ(first, second);
  EXPECT_EQ(sink.num_events(), 2u);  // export did not consume the ring
}

TEST_F(ObsTest, TraceSinkDrainHandsOutEachEventOnce) {
  TraceSink& sink = TraceSink::Global();
  sink.SetCapacityForTesting(2);
  sink.SetEnabledForTesting(true);
  sink.Record("test.one", "test", 0, 1);
  sink.Record("test.two", "test", 10, 1);
  sink.Record("test.three", "test", 20, 1);  // overwrites test.one

  const std::string drained = sink.DrainJson();
  EXPECT_NE(drained.find("test.two"), std::string::npos);
  EXPECT_NE(drained.find("test.three"), std::string::npos);
  EXPECT_EQ(drained.find("test.one"), std::string::npos);
  EXPECT_EQ(sink.num_events(), 0u);
  EXPECT_EQ(sink.DrainJson().find("test.two"), std::string::npos);

  // Drains preserve the cumulative accounting and leave the ring
  // usable: more spans land, more drops count.
  EXPECT_EQ(sink.recorded_events(), 3u);
  EXPECT_EQ(sink.dropped_events(), 1u);
  sink.Record("test.four", "test", 30, 1);
  sink.Record("test.five", "test", 40, 1);
  sink.Record("test.six", "test", 50, 1);
  sink.SetEnabledForTesting(false);
  EXPECT_EQ(sink.num_events(), 2u);
  EXPECT_EQ(sink.recorded_events(), 6u);
  EXPECT_EQ(sink.dropped_events(), 2u);
  sink.SetCapacityForTesting(1 << 16);
}

// Drains interleaved with concurrent span emission never lose or
// duplicate an event: everything recorded is either handed out by some
// drain, still buffered, or counted as dropped.
TEST_F(ObsTest, TraceSinkDrainIsSafeUnderConcurrentEmission) {
  TraceSink& sink = TraceSink::Global();
  sink.SetCapacityForTesting(64);
  sink.SetEnabledForTesting(true);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        sink.Record("test.emit", "test", i, 1);
      }
    });
  }
  size_t handed_out = 0;
  for (int round = 0; round < 200; ++round) {
    const std::string json = sink.DrainJson();
    size_t pos = 0;
    while ((pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos) {
      ++handed_out;
      pos += 8;
    }
  }
  for (std::thread& writer : writers) writer.join();
  const std::string last = sink.DrainJson();
  size_t pos = 0;
  while ((pos = last.find("\"ph\":\"X\"", pos)) != std::string::npos) {
    ++handed_out;
    pos += 8;
  }
  sink.SetEnabledForTesting(false);
  EXPECT_EQ(handed_out + sink.dropped_events(),
            static_cast<size_t>(kThreads) * kPerThread);
  EXPECT_EQ(sink.recorded_events(),
            static_cast<size_t>(kThreads) * kPerThread);
  sink.SetCapacityForTesting(1 << 16);
}

// ---- HealthRegistry: aggregation, gauge mirroring, thresholds.

TEST_F(ObsTest, HealthRegistryAggregatesVerdicts) {
  HealthRegistry health;
  EXPECT_TRUE(health.RunAll().healthy);  // vacuously healthy when empty
  health.Register("always_ok", [] { return HealthResult{true, 1.0, "fine"}; });
  EXPECT_TRUE(health.RunAll().healthy);
  health.Register("broken", [] { return HealthResult{false, 9.0, "bad"}; });
  const HealthRegistry::Report report = health.RunAll();
  EXPECT_FALSE(report.healthy);
  ASSERT_EQ(report.checks.size(), 2u);
  // Sorted by name; each check carries its own verdict.
  EXPECT_EQ(report.checks[0].name, "always_ok");
  EXPECT_TRUE(report.checks[0].result.healthy);
  EXPECT_EQ(report.checks[1].name, "broken");
  EXPECT_FALSE(report.checks[1].result.healthy);

  bool healthy = true;
  const std::string json = health.Json(&healthy);
  EXPECT_FALSE(healthy);
  EXPECT_NE(json.find("\"healthy\":false"), std::string::npos);
  EXPECT_NE(json.find("\"broken\":{\"healthy\":false"), std::string::npos);
  EXPECT_NE(json.find("\"message\":\"bad\""), std::string::npos);

  health.Unregister("broken");
  EXPECT_TRUE(health.RunAll().healthy);
  EXPECT_EQ(health.size(), 1u);
}

TEST_F(ObsTest, HealthChecksThatThrowReportUnhealthy) {
  HealthRegistry health;
  health.Register("throws", []() -> HealthResult {
    throw std::runtime_error("boom");
  });
  const HealthRegistry::Report report = health.RunAll();
  EXPECT_FALSE(report.healthy);
  EXPECT_NE(report.checks[0].result.message.find("boom"), std::string::npos);
}

TEST_F(ObsTest, HealthVerdictsMirrorIntoGauges) {
  HealthRegistry health;
  health.Register("mirrored", [] { return HealthResult{true, 0.0, ""}; });
  health.RunAll();
  EXPECT_DOUBLE_EQ(
      MetricsRegistry::Global().GetGauge("health.mirrored")->Value(), 1.0);
  health.Register("mirrored", [] { return HealthResult{false, 0.0, ""}; });
  health.RunAll();
  EXPECT_DOUBLE_EQ(
      MetricsRegistry::Global().GetGauge("health.mirrored")->Value(), 0.0);
}

TEST_F(ObsTest, GaugeAtMostCheckComparesAgainstLimit) {
  MetricsRegistry::Global().GetGauge("test.lag")->Set(5.0);
  const obs::HealthCheck check = obs::GaugeAtMostCheck("test.lag", 10.0);
  EXPECT_TRUE(check().healthy);
  MetricsRegistry::Global().GetGauge("test.lag")->Set(11.0);
  const HealthResult result = check();
  EXPECT_FALSE(result.healthy);
  EXPECT_DOUBLE_EQ(result.value, 11.0);
}

// ---- SlowQueryLog: bounded ring, ids, JSON shape.

TEST_F(ObsTest, SlowQueryLogBoundsRingAndCountsDrops) {
  SlowQueryLog log(/*capacity=*/3);
  const uint64_t first_id = log.NextQueryId();
  EXPECT_GT(log.NextQueryId(), first_id);  // monotonic, never zero
  for (uint64_t i = 1; i <= 5; ++i) {
    obs::SlowQueryRecord record;
    record.query_id = i;
    record.kind = "provenance";
    record.vertex = 10 + i;
    record.latency_ns = static_cast<int64_t>(i) * 1000;
    log.Record(record);
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.recorded(), 5u);
  EXPECT_EQ(log.dropped(), 2u);
  const std::vector<obs::SlowQueryRecord> snapshot = log.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  // Oldest first, and the two oldest records were the ones overwritten.
  EXPECT_EQ(snapshot.front().query_id, 3u);
  EXPECT_EQ(snapshot.back().query_id, 5u);

  const std::string json = log.Json();
  EXPECT_NE(json.find("\"capacity\":3"), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":5"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":2"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"provenance\""), std::string::npos);
  EXPECT_NE(json.find("\"vertex\":15"), std::string::npos);
}

// ---- Recorder: ring bound, windowed rates, time-series JSON.

TEST_F(ObsTest, RecorderSamplesComputeWindowedDeltas) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("test.recorded_counter");
  registry.GetGauge("test.recorded_gauge")->Set(7.0);
  registry.GetHistogram("test.recorded_hist")->Observe(100);

  obs::RecorderOptions options;
  options.capacity = 2;
  Recorder recorder(options);
  recorder.SampleNow();
  counter->Add(1000);
  recorder.SampleNow();
  EXPECT_EQ(recorder.num_samples(), 2u);
  EXPECT_DOUBLE_EQ(recorder.Delta("test.recorded_counter"), 1000.0);
  EXPECT_GT(recorder.Rate("test.recorded_counter"), 0.0);
  EXPECT_DOUBLE_EQ(recorder.Delta("test.absent"), 0.0);
  EXPECT_DOUBLE_EQ(recorder.LatestGauge("test.recorded_gauge"), 7.0);

  // The ring is bounded: a third sample evicts the first, and the
  // window (now samples 2..3) no longer spans the counter bump.
  recorder.SampleNow();
  EXPECT_EQ(recorder.num_samples(), 2u);
  EXPECT_EQ(recorder.total_samples(), 3u);
  EXPECT_DOUBLE_EQ(recorder.Delta("test.recorded_counter"), 0.0);

  const std::string json = recorder.TimeSeriesJson();
  EXPECT_NE(json.find("\"samples\":["), std::string::npos);
  EXPECT_NE(json.find("\"test.recorded_counter\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"test.recorded_hist\":{\"count\":1"),
            std::string::npos);
}

TEST_F(ObsTest, RecorderBackgroundThreadKeepsSampling) {
  obs::RecorderOptions options;
  options.interval_ms = 2;
  Recorder recorder(options);
  ASSERT_TRUE(recorder.Start().ok());
  EXPECT_FALSE(recorder.Start().ok());  // double start refused
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  recorder.Stop();
  const size_t samples = recorder.num_samples();
  EXPECT_GE(samples, 2u);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(recorder.num_samples(), samples);  // thread really stopped
}

// ---- OpsServer: routing, built-in endpoints, and the real socket.

TEST_F(ObsTest, OpsServerDispatchRoutesBuiltins) {
  MetricsRegistry::Global().GetCounter("test.ops_counter")->Add(3);
  OpsServer server;

  EXPECT_EQ(server.Dispatch("/nope").status, 404);

  const obs::HttpResponse metrics = server.Dispatch("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# TYPE"), std::string::npos);

  const obs::HttpResponse metricsz = server.Dispatch("/metricsz");
  EXPECT_EQ(metricsz.status, 200);
  EXPECT_EQ(metricsz.content_type, "application/json");
  EXPECT_NE(metricsz.body.find("\"counters\":{"), std::string::npos);

  const obs::HttpResponse statusz = server.Dispatch("/statusz");
  EXPECT_EQ(statusz.status, 200);
  EXPECT_NE(statusz.body.find("\"uptime_s\":"), std::string::npos);

  const obs::HttpResponse tracez = server.Dispatch("/tracez");
  EXPECT_EQ(tracez.status, 200);
  EXPECT_NE(tracez.body.find("\"traceEvents\":["), std::string::npos);

  const obs::HttpResponse slow = server.Dispatch("/tracez?slow=1");
  EXPECT_NE(slow.body.find("\"queries\":["), std::string::npos);

  // A custom handler overrides a built-in route.
  server.SetHandler("/statusz", [](std::string_view) {
    obs::HttpResponse response;
    response.body = "override";
    return response;
  });
  EXPECT_EQ(server.Dispatch("/statusz").body, "override");
}

TEST_F(ObsTest, OpsServerHealthzFlipsTo503) {
  OpsServer server;
  EXPECT_EQ(server.Dispatch("/healthz").status, 200);
  HealthRegistry::Global().Register("test.forced_failure", [] {
    return HealthResult{false, 1.0, "forced by test"};
  });
  const obs::HttpResponse unhealthy = server.Dispatch("/healthz");
  EXPECT_EQ(unhealthy.status, 503);
  EXPECT_NE(unhealthy.body.find("\"healthy\":false"), std::string::npos);
  EXPECT_NE(unhealthy.body.find("forced by test"), std::string::npos);
  HealthRegistry::Global().Unregister("test.forced_failure");
  EXPECT_EQ(server.Dispatch("/healthz").status, 200);
}

// The /tracez?drain=1 route consumes the ring through the server.
TEST_F(ObsTest, OpsServerTracezDrainConsumes) {
  TraceSink& sink = TraceSink::Global();
  sink.SetEnabledForTesting(true);
  sink.Record("test.served", "test", 0, 1);
  sink.SetEnabledForTesting(false);
  OpsServer server;
  const obs::HttpResponse peek = server.Dispatch("/tracez");
  EXPECT_NE(peek.body.find("test.served"), std::string::npos);
  const obs::HttpResponse drain = server.Dispatch("/tracez?drain=1");
  EXPECT_NE(drain.body.find("test.served"), std::string::npos);
  EXPECT_EQ(sink.num_events(), 0u);
  const obs::HttpResponse after = server.Dispatch("/tracez");
  EXPECT_EQ(after.body.find("test.served"), std::string::npos);
}

/// Minimal loopback HTTP client for the socket round-trip tests.
std::string HttpRequest(uint16_t port, const std::string& request_line) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return "";
  }
  const std::string request = request_line + "\r\nHost: localhost\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST_F(ObsTest, OpsServerServesOverLoopbackSocket) {
  OpsServer server;
  ASSERT_TRUE(server.Start(0).ok());  // ephemeral port
  ASSERT_GT(server.port(), 0);
  EXPECT_FALSE(server.Start(0).ok());  // one listener per server

  const std::string metrics =
      HttpRequest(server.port(), "GET /metrics HTTP/1.0");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE"), std::string::npos);

  const std::string missing = HttpRequest(server.port(), "GET /no HTTP/1.0");
  EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);

  const std::string post = HttpRequest(server.port(), "POST /metrics HTTP/1.0");
  EXPECT_NE(post.find("HTTP/1.0 405"), std::string::npos);

  server.Stop();
  server.Stop();  // idempotent
  EXPECT_TRUE(HttpRequest(server.port(), "GET /metrics HTTP/1.0").empty());
}

// ---- Engine integration: the layers actually report through the
// ---- registry, and the unified memory answer is one call away.

Tin SmallTin() {
  GeneratorConfig config;
  config.num_vertices = 40;
  config.num_interactions = 2000;
  config.src_skew = 1.1;
  config.dst_skew = 0.9;
  config.seed = 7;
  return *Generate(config);
}

TEST_F(ObsTest, IngestReportsThroughRegistry) {
  const Tin tin = SmallTin();
  ProportionalSparseTracker tracker(tin.num_vertices());
  StreamIngestor ingestor(&tracker, {/*batch_size=*/256});
  MaterializedStream stream(tin);
  ASSERT_TRUE(ingestor.IngestAll(stream).ok());

  MetricsRegistry& registry = MetricsRegistry::Global();
  EXPECT_EQ(registry.GetCounter("ingest.interactions")->Value(),
            tin.num_interactions());
  EXPECT_EQ(registry.GetCounter("ingest.batches")->Value(),
            ingestor.stats().batches);
  EXPECT_DOUBLE_EQ(registry.GetGauge("ingest.watermark")->Value(),
                   ingestor.stats().watermark);
  EXPECT_DOUBLE_EQ(registry.GetGauge("ingest.peak_batch")->Value(), 256.0);
  EXPECT_EQ(registry.GetCounter("tracker.interactions")->Value(),
            tin.num_interactions());
  // One call reports engine-wide bytes, and the ingest-side tracker
  // gauge is part of the sum.
  EXPECT_GE(registry.MemoryBytes(),
            registry.GetGauge("memory.ingest_tracker_bytes")->Value());
  EXPECT_GT(registry.GetGauge("memory.ingest_tracker_bytes")->Value(), 0.0);
}

TEST_F(ObsTest, AlphaResidueTracksUnattributedQuantity) {
  const Tin tin = SmallTin();

  // The exact policy attributes everything: alpha stays (numerically) 0.
  ProportionalSparseTracker exact(tin.num_vertices());
  for (const Interaction& interaction : tin.interactions()) {
    ASSERT_TRUE(exact.Process(interaction).ok());
  }
  EXPECT_NEAR(exact.AlphaResidue(), 0.0,
              1e-9 * std::max(1.0, exact.total_generated()));

  // Budgeted tracking drops tuples: alpha grows, stays within
  // [0, total_generated], and survives a snapshot round-trip.
  BudgetConfig config;
  config.capacity = 4;
  config.keep_fraction = 0.5;
  BudgetTracker budget(tin.num_vertices(), config);
  for (const Interaction& interaction : tin.interactions()) {
    ASSERT_TRUE(budget.Process(interaction).ok());
  }
  EXPECT_GT(budget.AlphaResidue(), 0.0);
  EXPECT_LE(budget.AlphaResidue(),
            budget.total_generated() * (1.0 + 1e-9));

  std::vector<uint8_t> state;
  budget.SaveState(&state);
  BudgetTracker restored(tin.num_vertices(), config);
  ASSERT_TRUE(restored.RestoreState(state.data(), state.size()).ok());
  EXPECT_DOUBLE_EQ(restored.AlphaResidue(), budget.AlphaResidue());

  // A window reset collapses every list into alpha.
  WindowedTracker windowed(tin.num_vertices(), tin.num_interactions());
  for (const Interaction& interaction : tin.interactions()) {
    ASSERT_TRUE(windowed.Process(interaction).ok());
  }
  ASSERT_EQ(windowed.reset_count(), 1u);
  EXPECT_EQ(windowed.num_entries(), 0u);
  EXPECT_NEAR(windowed.AlphaResidue(), windowed.total_generated(),
              1e-9 * std::max(1.0, windowed.total_generated()));
}

}  // namespace
}  // namespace tinprov
