// Phase tracing: RAII TraceSpan -> bounded ring-buffer TraceSink ->
// chrome://tracing JSON export.
//
// Spans mark engine phases (an ingest micro-batch, one shard's replay,
// the exchange) with name, category, wall-clock interval, and a small
// thread id, so a whole pipeline run can be read as a timeline in
// chrome://tracing or https://ui.perfetto.dev.
//
// Activation: tracing is OFF by default and costs one relaxed atomic
// load per span. Setting TINPROV_TRACE=<file> in the environment turns
// it on for the process and writes the trace JSON to <file> at exit
// (std::atexit). Tests drive the sink directly via the ForTesting
// hooks.
//
// The sink is a fixed-capacity ring: when full, the oldest events are
// overwritten and dropped_events() counts the loss — a long run keeps
// its most recent window instead of growing without bound. Export is
// safe at any point in the process's life, not just at exit: ToJson()
// is a read-only snapshot (idempotent — call it as often as you like),
// and DrainJson() atomically exports-and-empties the ring so a live
// endpoint (/tracez on the ops server) can hand out each event exactly
// once while spans keep being emitted concurrently. Dropped/recorded
// totals are cumulative across drains. Span name and category must be
// string literals (or otherwise outlive the process); the sink stores
// the pointers, never copies.
#ifndef TINPROV_OBS_TRACE_H_
#define TINPROV_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace tinprov::obs {

class TraceSink {
 public:
  /// The process-wide sink (deliberately leaked, like the registry).
  /// First use reads $TINPROV_TRACE and registers the at-exit export.
  static TraceSink& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends one complete span. No-op while disabled.
  void Record(const char* name, const char* category, int64_t start_ns,
              int64_t duration_ns);

  /// Nanoseconds since the sink's epoch (first use), monotonic.
  int64_t NowNs() const;

  /// The trace in chrome://tracing "trace_event" JSON format
  /// (traceEvents array of complete "X" events, ts/dur in microseconds).
  /// Read-only and idempotent: the ring is left untouched, so repeated
  /// calls (and a later at-exit export) see the same events.
  std::string ToJson() const;

  /// Atomically exports the current ring as ToJson() and empties it, so
  /// each event is handed out exactly once even while spans are being
  /// recorded concurrently. recorded/dropped totals are preserved
  /// (cumulative), only the buffered events are consumed.
  std::string DrainJson();

  /// Writes ToJson() to `path`.
  Status WriteJson(const std::string& path) const;

  size_t num_events() const;
  /// Events overwritten because the ring was full (cumulative: draining
  /// the ring does not reset this, unlike Clear()).
  size_t dropped_events() const;
  /// Events ever recorded (cumulative across drains).
  size_t recorded_events() const;

  /// Test hooks: toggle recording, bound the ring, drop all events.
  void SetEnabledForTesting(bool enabled);
  void SetCapacityForTesting(size_t capacity);
  void Clear();

 private:
  struct Event {
    const char* name;
    const char* category;
    int64_t start_ns;
    int64_t duration_ns;
    uint32_t tid;
  };

  TraceSink();

  /// Serializes the ring oldest-first; requires mu_ held.
  std::string ToJsonLocked() const;

  static constexpr size_t kDefaultCapacity = size_t{1} << 16;

  mutable std::mutex mu_;
  std::vector<Event> ring_;
  size_t capacity_ = kDefaultCapacity;
  size_t next_ = 0;       // ring slot the next event lands in
  size_t recorded_ = 0;   // total events ever recorded
  size_t dropped_ = 0;    // events overwritten while the ring was full
  std::atomic<bool> enabled_{false};
  std::string path_;      // $TINPROV_TRACE target, empty when unset
  int64_t epoch_ns_ = 0;  // steady-clock origin for timestamps
};

/// RAII phase span: captures the interval between construction and
/// destruction into the global sink. Near-zero cost while tracing is
/// off (one atomic load, no clock reads).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "engine")
      : name_(name), category_(category) {
    TraceSink& sink = TraceSink::Global();
    active_ = sink.enabled();
    if (active_) start_ns_ = sink.NowNs();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (!active_) return;
    TraceSink& sink = TraceSink::Global();
    sink.Record(name_, category_, start_ns_, sink.NowNs() - start_ns_);
  }

 private:
  const char* name_;
  const char* category_;
  int64_t start_ns_ = 0;
  bool active_;
};

}  // namespace tinprov::obs

#endif  // TINPROV_OBS_TRACE_H_
