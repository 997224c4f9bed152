// The time-travel index: periodic tracker snapshots + delta replay.
//
// Pure lazy replay answers a historical Provenance(v, t) in O(prefix);
// the index instead checkpoints the tracker's serialized state (the
// snapshot/restore capability of policies/tracker.h) every
// snapshot_interval interactions during one build replay. A query then
// restores the nearest snapshot at or before t's prefix and replays
// only the delta — O(snapshot + interval) instead of O(prefix) — at the
// price of MemoryUsage() bytes of standing serialized state. bench_lazy
// measures both sides of that trade.
//
// RestoreAndReplay below is that recipe's one implementation: the index,
// ProvenanceService's retained history and storage recovery all run it.
#ifndef TINPROV_LAZY_TIME_TRAVEL_H_
#define TINPROV_LAZY_TIME_TRAVEL_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/buffer.h"
#include "core/tin.h"
#include "core/types.h"
#include "lazy/replay.h"
#include "policies/tracker.h"
#include "util/status.h"

namespace tinprov {

class InteractionStream;  // stream/interaction_stream.h

/// A tracker's SaveState image with the first `prefix` interactions of
/// its log applied. Immutable and shared, so histories hand images
/// around (and readers pin them) without copying.
struct StateSnapshot {
  size_t prefix = 0;
  std::shared_ptr<const std::vector<uint8_t>> state;
};

/// Restore-nearest-snapshot-then-replay: a tracker from `factory`,
/// restored from the newest of `snapshots` (ascending by prefix) at or
/// before `target` (a fresh tracker when none is), with log_at(i)
/// applied for every remaining i < target. By the SaveState/RestoreState
/// resume contract this equals a fresh tracker processing log_at(0) ..
/// log_at(target - 1), bit for bit. `*replayed`, when given, receives
/// the number of interactions applied.
template <typename LogAt>
StatusOr<std::unique_ptr<Tracker>> RestoreAndReplay(
    const TrackerFactory& factory, const std::vector<StateSnapshot>& snapshots,
    size_t target, const LogAt& log_at, size_t* replayed = nullptr) {
  const auto it = std::upper_bound(
      snapshots.begin(), snapshots.end(), target,
      [](size_t p, const StateSnapshot& s) { return p < s.prefix; });
  std::unique_ptr<Tracker> tracker = factory();
  if (tracker == nullptr) {
    return Status::Internal("tracker factory returned null");
  }
  size_t start = 0;
  if (it != snapshots.begin()) {
    const StateSnapshot& snapshot = *(it - 1);
    const Status status = tracker->RestoreState(*snapshot.state);
    if (!status.ok()) {
      return Status(status.code(), "restoring snapshot at prefix " +
                                       std::to_string(snapshot.prefix) +
                                       ": " + status.message());
    }
    start = snapshot.prefix;
  }
  for (size_t i = start; i < target; ++i) {
    const Status status = tracker->Process(log_at(i));
    if (!status.ok()) {
      return Status(status.code(), "delta replay at interaction " +
                                       std::to_string(i) + ": " +
                                       status.message());
    }
  }
  if (replayed != nullptr) *replayed = target - start;
  return tracker;
}

class TimeTravelIndex {
 public:
  /// Builds the index over `tin` for `kind`, snapshotting every
  /// `snapshot_interval` interactions (0 is treated as 1). Fails if the
  /// build replay rejects an interaction.
  static StatusOr<std::unique_ptr<TimeTravelIndex>> Build(
      const Tin& tin, PolicyKind kind, size_t snapshot_interval);

  /// As above for an arbitrary tracker factory (any policy or scalable
  /// tracker); snapshots and queries construct trackers through it, so
  /// it must build identically configured instances every call.
  static StatusOr<std::unique_ptr<TimeTravelIndex>> Build(
      const Tin& tin, TrackerFactory factory, size_t snapshot_interval);

  /// Streaming construction: the index is built as interactions arrive
  /// instead of from a pre-materialized log. Observe() each interaction
  /// (snapshots are cut at the ingest watermark, i.e. every
  /// snapshot_interval observed interactions, exactly where Build()
  /// would cut them), then Finalize() to enable queries. The index
  /// retains the observed log — historical delta replay needs it — so
  /// standing memory still grows with the stream; what streaming buys
  /// is single-pass ingestion with the build tracker and snapshots
  /// advancing while data arrives. Results are bit-identical to
  /// Build() over the materialized equivalent.
  static StatusOr<std::unique_ptr<TimeTravelIndex>> NewStreaming(
      size_t num_vertices, TrackerFactory factory, size_t snapshot_interval);

  /// Applies one arriving interaction to the unfinalized index.
  /// Enforces non-decreasing timestamps (wrap disordered sources in a
  /// SortingStream); FailedPrecondition once finalized.
  Status Observe(const Interaction& interaction);

  /// Drains `stream` through Observe().
  Status ObserveStream(InteractionStream& stream);

  /// Ends ingestion: materializes the retained log's index and enables
  /// Provenance(). Idempotent; Observe() is rejected afterwards.
  Status Finalize();

  /// True when the index answers queries (Build() returns finalized
  /// indexes; streaming ones finalize explicitly).
  bool finalized() const { return finalized_; }

  /// Timestamp of the last observed interaction.
  Timestamp watermark() const { return watermark_; }

  /// Provenance of `v` at historical time `t` (inclusive): restore the
  /// nearest snapshot at or before t's prefix, replay the delta. Equals
  /// full-prefix replay bit-exactly. Times before the first interaction
  /// yield an empty buffer.
  StatusOr<Buffer> Provenance(VertexId v, Timestamp t) const;

  size_t num_snapshots() const { return snapshots_.size(); }
  size_t snapshot_interval() const { return interval_; }

  /// Vertex count the index was built over.
  size_t num_vertices() const { return num_vertices_; }

  /// Interactions observed so far — the prefix length at watermark().
  size_t num_observed() const { return observed_; }

  /// Standing bytes of serialized snapshot state plus the per-snapshot
  /// prefix bookkeeping (excluding container-header overhead, matching
  /// the Tracker::MemoryUsage() accounting convention). A streaming
  /// index additionally counts the log it retains; a Build() index
  /// borrows its log, so the log is the caller's bill.
  size_t MemoryUsage() const;

 private:
  TimeTravelIndex(size_t num_vertices, TrackerFactory factory,
                  size_t interval)
      : num_vertices_(num_vertices),
        factory_(std::move(factory)),
        interval_(interval) {}

  size_t num_vertices_;
  const Tin* tin_ = nullptr;          // set at Finalize (or by Build)
  std::unique_ptr<Tin> owned_tin_;    // streaming form owns its log
  TrackerFactory factory_;
  size_t interval_;
  std::vector<StateSnapshot> snapshots_;
  std::unique_ptr<Tracker> build_tracker_;  // live between ctor and Finalize
  std::vector<Interaction> log_;      // retained arrivals (streaming form)
  bool retain_log_ = false;
  bool finalized_ = false;
  size_t observed_ = 0;
  Timestamp watermark_ = std::numeric_limits<Timestamp>::lowest();
};

}  // namespace tinprov

#endif  // TINPROV_LAZY_TIME_TRAVEL_H_
