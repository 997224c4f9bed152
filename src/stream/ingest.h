// StreamIngestor: drives any Tracker from an InteractionStream.
//
// This is the engine's front door for data that is not (and never will
// be) a materialized Tin. The ingestor pulls micro-batches from the
// stream, applies them to the tracker, and maintains what a serving
// pipeline needs to observe about its ingestion: a watermark (the
// timestamp up to which the tracker's state is complete), batch/
// interaction counters, the peak number of interactions ever buffered
// (the pipeline's own memory footprint — bounded by the batch size, so
// independent of stream length), and the tracker's sampled memory peak.
// Before the first batch it pre-sizes the tracker's arenas through the
// Tin-free ReserveHint(DatasetStats) path using whatever shape the
// stream advertises.
//
// Trackers require time order; the ingestor enforces it (non-decreasing
// timestamps) and rejects violations with InvalidArgument instead of
// silently corrupting provenance — wrap disordered sources in a
// SortingStream first.
#ifndef TINPROV_STREAM_INGEST_H_
#define TINPROV_STREAM_INGEST_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "core/types.h"
#include "obs/health.h"
#include "policies/tracker.h"
#include "stream/interaction_stream.h"
#include "util/status.h"

namespace tinprov {

/// Receives every micro-batch after the tracker has applied it — the
/// durability hook: the serve layer points this at its DurableLog so
/// the on-disk log contains exactly the interactions the tracker's
/// state reflects. A sink error stops the ingest (the storage layer's
/// degrade-to-memory policy absorbs errors before they reach here when
/// configured to).
class BatchSink {
 public:
  virtual ~BatchSink() = default;

  virtual Status OnBatch(const Interaction* batch, size_t count) = 0;
};

struct IngestOptions {
  /// Interactions pulled and applied per micro-batch. The batch buffer
  /// is the only stream-side allocation, so this bounds pipeline memory.
  size_t batch_size = 4096;
  /// Starting watermark for the order check: interactions below this
  /// timestamp are rejected from the first pull. The serve layer sets it
  /// when a tracker resumes from recovered or caught-up state (complete
  /// up to that state's watermark), so a stream rewound past it cannot
  /// double-apply history.
  Timestamp initial_watermark = std::numeric_limits<Timestamp>::lowest();
  /// Called with each batch once the tracker has applied it (borrowed;
  /// null = no sink). See BatchSink.
  BatchSink* sink = nullptr;
};

struct IngestStats {
  size_t interactions = 0;
  size_t batches = 0;
  /// Max interactions buffered at any instant — never exceeds
  /// IngestOptions::batch_size, regardless of stream length.
  size_t peak_batch = 0;
  /// Timestamp of the last applied interaction; the tracker's state is
  /// complete up to (and including) this time.
  Timestamp watermark = std::numeric_limits<Timestamp>::lowest();
  /// Peak Tracker::MemoryUsage(), sampled once per batch.
  size_t tracker_peak_memory = 0;
  /// Wall time spent inside Ingest calls (pull + apply).
  double seconds = 0.0;
};

class StreamIngestor {
 public:
  /// `tracker` is borrowed and must outlive the ingestor.
  explicit StreamIngestor(Tracker* tracker, IngestOptions options = {});

  /// Pulls at most one micro-batch from `stream` and applies it.
  /// `*done` is set when the stream is exhausted (an empty final pull
  /// counts as done, not as a batch). Feeding a new stream mid-ingest
  /// is allowed — the watermark spans them, so streams must be fed in
  /// global time order.
  Status IngestBatch(InteractionStream& stream, bool* done);

  /// Drains `stream` batch by batch.
  Status IngestAll(InteractionStream& stream);

  const IngestStats& stats() const { return stats_; }
  Tracker* tracker() const { return tracker_; }

 private:
  Tracker* tracker_;
  IngestOptions options_;
  IngestStats stats_;
  std::vector<Interaction> batch_;
  // Order enforcement tracks pulls; stats_.watermark tracks applies.
  Timestamp pull_watermark_ = std::numeric_limits<Timestamp>::lowest();
  bool reserved_ = false;
};

/// Publishes the ingest.* counters and gauges for `interactions` applied
/// in `batches` micro-batches, with `stats` already updated for them —
/// what StreamIngestor does after every batch, exposed for pipelines
/// that apply a stream by other means (ProvenanceService's sharded
/// Catchup) so the ingest metrics cover them too.
void PublishIngestProgress(const IngestStats& stats, size_t interactions,
                           size_t batches, Timestamp pull_watermark,
                           const Tracker& tracker);

/// Registers the ingest-side health checks with `registry` (the ops
/// plane calls this from ProvenanceService::EnableOpsServer):
///   ingest.watermark_lag  healthy while the pull-side watermark leads
///                         the applied watermark by at most
///                         `max_watermark_lag` (stream-time units; an
///                         infinite limit reports the value but never
///                         trips).
/// The checks read the ingest gauges StreamIngestor publishes, so they
/// are valid for whichever ingestor is (or was last) running; callers
/// unregister by name when the pipeline shuts down.
void RegisterIngestHealthChecks(obs::HealthRegistry& registry,
                                double max_watermark_lag);

}  // namespace tinprov

#endif  // TINPROV_STREAM_INGEST_H_
