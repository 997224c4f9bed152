#include "obs/recorder.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "obs/metrics.h"

namespace tinprov::obs {

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  *out += buf;
}

/// Looks `name` up in a sorted (name, value) sample column.
template <typename V>
const V* FindSorted(const std::vector<std::pair<std::string, V>>& column,
                    std::string_view name) {
  const auto it = std::lower_bound(
      column.begin(), column.end(), name,
      [](const auto& entry, std::string_view n) { return entry.first < n; });
  if (it == column.end() || it->first != name) return nullptr;
  return &it->second;
}

}  // namespace

Recorder::Recorder(RecorderOptions options)
    : options_{options.interval_ms < 1 ? 1 : options.interval_ms,
               options.capacity == 0 ? 1 : options.capacity},
      epoch_ns_(SteadyNowNs()) {}

Recorder::~Recorder() { Stop(); }

Recorder::Sample Recorder::Capture(int64_t t_ns) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Sample sample;
  sample.t_ns = t_ns;
  sample.counters = registry.CounterValues();
  sample.gauges = registry.GaugeValues();
  for (const auto& [name, snapshot] : registry.HistogramSnapshots()) {
    sample.histograms.emplace_back(name,
                                   std::make_pair(snapshot.count, snapshot.sum));
  }
  return sample;
}

void Recorder::Append(Sample sample) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push_back(std::move(sample));
  if (ring_.size() > options_.capacity) ring_.pop_front();
  ++total_;
}

void Recorder::SampleNow() { Append(Capture(SteadyNowNs() - epoch_ns_)); }

Status Recorder::Start() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (started_) {
      return Status::FailedPrecondition("recorder already started");
    }
    started_ = true;
    stopping_ = false;
  }
  SampleNow();  // the window is never empty while the recorder runs
  thread_ = std::thread(&Recorder::Loop, this);
  return Status::Ok();
}

void Recorder::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (!started_) return;
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(stop_mu_);
  started_ = false;
}

void Recorder::Loop() {
  const auto interval = std::chrono::milliseconds(options_.interval_ms);
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stop_cv_.wait_for(lock, interval, [this] { return stopping_; })) {
    lock.unlock();
    SampleNow();
    lock.lock();
  }
}

double Recorder::Rate(std::string_view counter) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < 2) return 0.0;
  const Sample& oldest = ring_.front();
  const Sample& newest = ring_.back();
  const double span_s =
      static_cast<double>(newest.t_ns - oldest.t_ns) / 1e9;
  if (span_s <= 0.0) return 0.0;
  const uint64_t* end = FindSorted(newest.counters, counter);
  if (end == nullptr) return 0.0;
  const uint64_t* begin = FindSorted(oldest.counters, counter);
  // A counter born mid-window starts from zero.
  const uint64_t base = begin == nullptr ? 0 : *begin;
  if (*end <= base) return 0.0;
  return static_cast<double>(*end - base) / span_s;
}

double Recorder::Delta(std::string_view counter) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return 0.0;
  const uint64_t* end = FindSorted(ring_.back().counters, counter);
  if (end == nullptr) return 0.0;
  const uint64_t* begin = FindSorted(ring_.front().counters, counter);
  const uint64_t base = begin == nullptr ? 0 : *begin;
  return *end <= base ? 0.0 : static_cast<double>(*end - base);
}

double Recorder::LatestGauge(std::string_view gauge) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return 0.0;
  const double* value = FindSorted(ring_.back().gauges, gauge);
  return value == nullptr ? 0.0 : *value;
}

size_t Recorder::num_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t Recorder::total_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

double Recorder::WindowSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < 2) return 0.0;
  return static_cast<double>(ring_.back().t_ns - ring_.front().t_ns) / 1e9;
}

std::string Recorder::TimeSeriesJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"interval_ms\":";
  AppendU64(&out, static_cast<uint64_t>(options_.interval_ms));
  out += ",\"capacity\":";
  AppendU64(&out, options_.capacity);
  out += ",\"total_samples\":";
  AppendU64(&out, total_);
  out += ",\"samples\":[";
  bool first_sample = true;
  for (const Sample& sample : ring_) {
    if (!first_sample) out += ",";
    first_sample = false;
    out += "{\"t_s\":" + JsonDouble(static_cast<double>(sample.t_ns) / 1e9);
    out += ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : sample.counters) {
      if (!first) out += ",";
      first = false;
      out += "\"" + name + "\":";
      AppendU64(&out, value);
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, value] : sample.gauges) {
      if (!first) out += ",";
      first = false;
      out += "\"" + name + "\":" + JsonDouble(value);
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, counts] : sample.histograms) {
      if (!first) out += ",";
      first = false;
      out += "\"" + name + "\":{\"count\":";
      AppendU64(&out, counts.first);
      out += ",\"sum\":";
      AppendU64(&out, counts.second);
      out += "}";
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

void Recorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  total_ = 0;
}

}  // namespace tinprov::obs
