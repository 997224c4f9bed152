// Recorder: continuous sampling of the whole MetricsRegistry into a
// bounded ring of timestamped snapshots — the time axis the registry's
// point-in-time counters lack.
//
// A background thread wakes every interval_ms, captures every counter,
// gauge, and histogram summary, and appends the sample to a ring of
// `capacity` entries (oldest evicted first), so the ring always holds
// the most recent capacity×interval window. From that window the
// recorder derives what a status page actually wants: windowed rates
// (interactions/s, queries/s via Rate()), deltas (Delta()), and the
// full series as time-series JSON (TimeSeriesJson()) for offline
// plotting next to the BENCH_*.json metrics blobs.
//
// Threading: Start()/Stop() manage the sampler thread; every accessor
// is thread-safe against it. Callers that want deterministic windows
// skip Start() and drive SampleNow() inline instead — the
// ring/rate/JSON machinery is identical either way.
#ifndef TINPROV_OBS_RECORDER_H_
#define TINPROV_OBS_RECORDER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "util/status.h"

namespace tinprov::obs {

struct RecorderOptions {
  /// Sampling period of the background thread.
  int64_t interval_ms = 250;
  /// Ring bound: samples kept before the oldest is evicted.
  size_t capacity = 512;
};

class Recorder {
 public:
  /// One full-registry capture. Histograms are kept as (count, sum)
  /// pairs — enough to derive observation rates and mean latency over
  /// any sub-window without storing 64 buckets per sample.
  struct Sample {
    int64_t t_ns = 0;  // since the recorder's construction, steady clock
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, std::pair<uint64_t, uint64_t>>>
        histograms;  // name -> (count, sum)
  };

  explicit Recorder(RecorderOptions options = {});
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;
  ~Recorder();

  /// Spawns the sampler thread (takes one sample immediately so the
  /// window is never empty). FailedPrecondition when already started.
  Status Start();

  /// Joins the sampler thread; idempotent. The ring is kept.
  void Stop();

  /// Takes one sample inline from any thread (tests that want
  /// deterministic windows).
  void SampleNow();

  /// Counter increase per second across the ring's window: (newest -
  /// oldest) / span. Zero while the window has fewer than two samples,
  /// no time span, or no such counter.
  double Rate(std::string_view counter) const;

  /// Counter increase across the ring's window (newest - oldest).
  double Delta(std::string_view counter) const;

  /// The newest sampled value of `gauge`; 0 when absent.
  double LatestGauge(std::string_view gauge) const;

  size_t num_samples() const;
  /// Samples ever taken (evictions included).
  uint64_t total_samples() const;
  /// Seconds covered by the ring (newest.t - oldest.t).
  double WindowSeconds() const;

  /// The ring as strict JSON, oldest first:
  /// {"interval_ms":..,"capacity":..,"total_samples":..,"samples":[
  ///  {"t_s":..,"counters":{..},"gauges":{..},
  ///   "histograms":{"name":{"count":..,"sum":..},..}}, ...]}
  std::string TimeSeriesJson() const;

  /// Test support: drops every sample (the thread, if any, keeps going).
  void Clear();

 private:
  void Append(Sample sample);
  static Sample Capture(int64_t t_ns);

  const RecorderOptions options_;
  const int64_t epoch_ns_;

  mutable std::mutex mu_;
  std::deque<Sample> ring_;
  uint64_t total_ = 0;

  void Loop();

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  bool started_ = false;
  std::thread thread_;
};

}  // namespace tinprov::obs

#endif  // TINPROV_OBS_RECORDER_H_
