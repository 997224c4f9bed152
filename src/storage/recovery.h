// RecoveryManager: turns a crash-interrupted storage directory back
// into a running tracker, bit-identical to a clean replay of whatever
// prefix the disk actually kept.
//
// The contract, end to end:
//   1. Segments are scanned in sequence order, every record
//      re-checksummed. The trusted log is the longest prefix of
//      interactions backed by intact records; the first torn tail or
//      checksum mismatch ends it. A later segment extends the trusted
//      log only if its base_prefix equals the trusted length exactly —
//      which is precisely what a post-recovery writer produces, so a
//      torn segment followed by a resumed one reads as one continuous
//      log (DurableLog::Open deletes the stale segments past a break
//      before the resumed writer's first append), while bytes the
//      crashed process never durably wrote are truncated, never
//      interpreted.
//   2. Every snapshot whose prefix fits inside the trusted log is
//      loaded (corrupt snapshots are skipped — they cost replay time,
//      not correctness; a snapshot claiming a prefix the log cannot
//      back is ignored the same way).
//   3. The newest of them is restored and the log tail past it replayed
//      (History::RestoreAndReplay, lazy/history.h).
// The result equals Tracker::Process over trusted[0, prefix) on a fresh
// tracker — the SaveState/RestoreState bit-exact-resume contract makes
// the snapshot shortcut invisible. The crash test (test_storage /
// scripts/crash_smoke.sh) holds this equality under every
// FaultInjectingEnv mode and under kill -9. The trusted log and the
// loaded snapshots are exactly the history a restarted
// ProvenanceService retains for historical queries.
#ifndef TINPROV_STORAGE_RECOVERY_H_
#define TINPROV_STORAGE_RECOVERY_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "lazy/history.h"
#include "policies/tracker.h"
#include "storage/env.h"
#include "util/status.h"

namespace tinprov::storage {

/// The trusted contents of a storage directory's segment files.
struct ReadLogResult {
  /// Interactions backed by intact checksummed records, global order.
  std::vector<Interaction> interactions;
  size_t segments_scanned = 0;
  /// Segments (or segment suffixes) past the first break — data the
  /// writer may have produced but the trusted prefix cannot reach.
  size_t segments_dropped = 0;
  size_t torn_tails = 0;       // incomplete trailing records (crash)
  size_t corrupt_records = 0;  // checksum mismatches (bit rot)
  /// One past the highest segment sequence number present — where a new
  /// writer must continue so file names never collide.
  uint64_t next_seq = 0;
};

/// Scans every segment under `dir`. I/O errors fail the call; torn and
/// corrupt data never do — they bound the trusted prefix.
Status ReadLog(Env* env, const std::string& dir, ReadLogResult* out);

struct RecoveredState {
  /// The trusted log, [0, prefix).
  std::vector<Interaction> log;
  uint64_t prefix = 0;
  /// Timestamp of the last trusted interaction; the recovered state is
  /// complete up to and including it.
  Timestamp watermark = std::numeric_limits<Timestamp>::lowest();
  /// Tracker SaveState bytes at `prefix` — hand to RestoreState to
  /// resume bit-exactly.
  std::vector<uint8_t> state;
  /// Every valid on-disk snapshot at or below `prefix`, ascending.
  std::vector<StateSnapshot> snapshots;
  uint64_t snapshot_prefix = 0;  // where replay started
  uint64_t replayed = 0;         // delta length, prefix - snapshot_prefix
  size_t snapshots_skipped = 0;  // corrupt snapshots passed over
  size_t torn_tails = 0;
  size_t corrupt_records = 0;
  size_t segments_dropped = 0;
  uint64_t next_seq = 0;  // DurableLog::Open's start_seq
};

class RecoveryManager {
 public:
  /// `env` is borrowed. A missing `dir` recovers to the empty state.
  RecoveryManager(Env* env, std::string dir);

  /// Full recovery for a tracker built by `factory`: trusted log scan,
  /// snapshot load, newest-snapshot restore and delta replay, final
  /// SaveState.
  /// Snapshot-restore or replay failures are real errors (config
  /// mismatch between the factory and the writer) and propagate.
  StatusOr<RecoveredState> Recover(const TrackerFactory& factory) const;

 private:
  Env* env_;
  std::string dir_;
};

/// A History over the recovered log, with a snapshot replayed and cut
/// every max(snapshot_interval, 1) interactions; null when the log is
/// empty. `num_vertices` is unused. No restart runs this: it exists
/// only for perfbench's lazy.index_build_s probe, until that probe is
/// repointed at the history seed a restarted ProvenanceService runs
/// (ROADMAP item 1).
StatusOr<std::shared_ptr<const History>> BuildRecoveredIndex(
    const RecoveredState& recovered, size_t num_vertices,
    const TrackerFactory& factory, size_t snapshot_interval);

}  // namespace tinprov::storage

#endif  // TINPROV_STORAGE_RECOVERY_H_
