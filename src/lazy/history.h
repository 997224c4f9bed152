// History: the retained past of one stream, and the one way to query it.
//
// Provenance(v, t) at a past t needs the tracker at t's log prefix:
// restore the nearest SaveState image at or before it (the snapshot /
// restore capability of policies/tracker.h) and replay only the delta
// after it. A History holds what that needs — an append-only log in
// fixed-capacity chunks that never move, and snapshots ascending by
// prefix — plus the log-volume rule for cutting the next snapshot: once
// the interactions logged since the last cut, at sizeof(Interaction)
// each, reach that cut's image size. All snapshots together then stay
// within the log's bytes plus one image, however large the state.
//
// One writer appends, cuts and publishes. Publish() returns a View, an
// immutable handle on everything logged so far (a copy of the chunk and
// snapshot pointers, never of interactions or image bytes) that readers
// may query concurrently while the writer fills later chunk slots.
// ProvenanceService retains its past as a History, seeded on a durable
// restart from recovery, which replays through the same routine.
#ifndef TINPROV_LAZY_HISTORY_H_
#define TINPROV_LAZY_HISTORY_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "policies/tracker.h"
#include "util/status.h"

namespace tinprov {

/// A tracker's SaveState image with the first `prefix` interactions of
/// its log applied. Immutable and shared, so histories hand images
/// around (and readers pin them) without copying.
struct StateSnapshot {
  size_t prefix = 0;
  std::shared_ptr<const std::vector<uint8_t>> state;
};

class History {
 public:
  static constexpr size_t kChunkCapacity = 4096;
  using Chunk = std::array<Interaction, kChunkCapacity>;

  /// Restore-nearest-snapshot-then-replay: a tracker from `factory`,
  /// restored from the newest of `snapshots` (ascending by prefix) at
  /// or before `target` (a fresh tracker when none is), with log_at(i)
  /// applied for every remaining i < target. By the SaveState /
  /// RestoreState resume contract this equals a fresh tracker
  /// processing log_at(0) .. log_at(target - 1), bit for bit.
  /// `*replayed`, when given, receives the number of interactions
  /// applied. View::Replay runs it over a published history; recovery
  /// runs it over the trusted log before any history exists.
  template <typename LogAt>
  static StatusOr<std::unique_ptr<Tracker>> RestoreAndReplay(
      const TrackerFactory& factory,
      const std::vector<StateSnapshot>& snapshots, size_t target,
      const LogAt& log_at, size_t* replayed = nullptr) {
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

  /// An immutable published prefix of the history.
  class View {
   public:
    /// Interactions logged when the view was published.
    size_t size() const { return size_; }

    /// Count of logged interactions with timestamp <= t.
    size_t UpperBound(Timestamp t) const;

    const std::vector<StateSnapshot>& snapshots() const { return snapshots_; }

    /// RestoreAndReplay over this view to `target` <= size().
    StatusOr<std::unique_ptr<Tracker>> Replay(const TrackerFactory& factory,
                                              size_t target,
                                              size_t* replayed = nullptr) const;

   private:
    friend class History;

    const Interaction& At(size_t i) const {
      return (*chunks_[i / kChunkCapacity])[i % kChunkCapacity];
    }

    std::vector<std::shared_ptr<const Chunk>> chunks_;
    std::vector<StateSnapshot> snapshots_;
    size_t size_ = 0;
  };

  /// A history that keeps its log and snapshots. One with `retain` off
  /// keeps neither (Append and the images Cut is handed are dropped),
  /// but still runs the log-volume rule, for a writer that persists
  /// snapshots without serving the past.
  explicit History(bool retain = true) : retain_(retain) {}

  // --- Writer side -------------------------------------------------------

  void Append(const Interaction& interaction) {
    if (!retain_) return;
    const size_t slot = size_ % kChunkCapacity;
    if (slot == 0) chunks_.push_back(std::make_shared<Chunk>());
    (*chunks_.back())[slot] = interaction;
    ++size_;
  }

  /// Interactions logged (0 when not retaining).
  size_t size() const { return size_; }

  const std::vector<StateSnapshot>& snapshots() const { return snapshots_; }

  /// The log-volume rule: is a snapshot due at log position `prefix`?
  bool SnapshotDue(size_t prefix) const {
    return (prefix - cut_prefix_) * sizeof(Interaction) >= cut_image_bytes_;
  }

  /// Records a snapshot cut at `prefix` (ascending) and keeps its image.
  void Cut(size_t prefix, std::shared_ptr<const std::vector<uint8_t>> image);

  /// Continues, on an empty history, from a recovered one: `log`
  /// becomes positions [0, current.prefix), `snapshots` (ascending,
  /// at or below current.prefix) are kept, and `current` — the state at
  /// the end of the log — is the last cut, kept as a snapshot too when
  /// the log is non-empty and no snapshot already sits at its prefix.
  void Seed(const std::vector<Interaction>& log,
            std::vector<StateSnapshot> snapshots, StateSnapshot current);

  /// The handle readers query: everything logged and cut so far.
  /// Also sets memory.serve_log_bytes and memory.serve_snapshot_bytes.
  View Publish() const;

 private:
  /// Sets the memory gauges to the current log and snapshot bytes.
  void Report() const;

  bool retain_;
  std::vector<std::shared_ptr<Chunk>> chunks_;
  size_t size_ = 0;
  std::vector<StateSnapshot> snapshots_;
  size_t snapshot_bytes_ = 0;  // total of the retained images
  /// Prefix and image size of the last cut, for SnapshotDue.
  size_t cut_prefix_ = 0;
  size_t cut_image_bytes_ = 0;
};

}  // namespace tinprov

#endif  // TINPROV_LAZY_HISTORY_H_
