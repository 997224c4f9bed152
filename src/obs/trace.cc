#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace tinprov::obs {

namespace {

/// Small stable id for the calling thread (chrome://tracing lanes).
uint32_t CurrentTid() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ExportTraceAtExit() {
  TraceSink& sink = TraceSink::Global();
  const char* path = std::getenv("TINPROV_TRACE");
  if (path == nullptr || path[0] == '\0') return;
  const Status status = sink.WriteJson(path);
  if (!status.ok()) {
    std::fprintf(stderr, "warning: trace export to %s failed: %s\n", path,
                 status.ToString().c_str());
    return;
  }
  std::fprintf(stderr, "wrote %zu trace events to %s (%zu dropped)\n",
               sink.num_events(), path, sink.dropped_events());
}

}  // namespace

TraceSink::TraceSink() : epoch_ns_(SteadyNowNs()) {
  const char* path = std::getenv("TINPROV_TRACE");
  if (path != nullptr && path[0] != '\0') {
    path_ = path;
    enabled_.store(true, std::memory_order_relaxed);
    std::atexit(ExportTraceAtExit);
  }
}

TraceSink& TraceSink::Global() {
  static TraceSink* const sink = new TraceSink();
  return *sink;
}

int64_t TraceSink::NowNs() const { return SteadyNowNs() - epoch_ns_; }

void TraceSink::Record(const char* name, const char* category,
                       int64_t start_ns, int64_t duration_ns) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  const Event event{name, category, start_ns, duration_ns, CurrentTid()};
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    next_ = ring_.size() % capacity_;
  } else {
    ring_[next_] = event;
    next_ = (next_ + 1) % capacity_;
    ++dropped_;  // explicit, so drains don't skew the accounting
  }
  ++recorded_;
}

size_t TraceSink::num_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

size_t TraceSink::dropped_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

size_t TraceSink::recorded_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::string TraceSink::ToJsonLocked() const {
  std::string out;
  out.reserve(ring_.size() * 96 + 64);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char line[256];
  // Oldest-first: when the ring has wrapped, events [next_, end) precede
  // [0, next_).
  const size_t n = ring_.size();
  const size_t start = n == capacity_ ? next_ : 0;
  for (size_t i = 0; i < n; ++i) {
    const Event& event = ring_[(start + i) % n];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u}",
                  i == 0 ? "" : ",",
                  event.name, event.category,
                  static_cast<double>(event.start_ns) / 1e3,
                  static_cast<double>(event.duration_ns) / 1e3, event.tid);
    out += line;
  }
  out += "]}\n";
  return out;
}

std::string TraceSink::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ToJsonLocked();
}

std::string TraceSink::DrainJson() {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = ToJsonLocked();
  // Consume the exported events; recorded_/dropped_ stay cumulative so
  // the loss accounting survives any number of drains.
  ring_.clear();
  next_ = 0;
  return out;
}

Status TraceSink::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return Status::Internal("cannot open trace file " + path);
  }
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), out);
  std::fclose(out);
  if (written != json.size()) {
    return Status::Internal("short write to trace file " + path);
  }
  return Status::Ok();
}

void TraceSink::SetEnabledForTesting(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

void TraceSink::SetCapacityForTesting(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
  dropped_ = 0;
}

void TraceSink::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
  dropped_ = 0;
}

}  // namespace tinprov::obs
