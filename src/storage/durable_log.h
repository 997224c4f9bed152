// DurableLog: the write side of durability — rotating checksummed
// segments plus the snapshot store, behind one failure policy.
//
// The serve layer appends every applied micro-batch here and persists
// each published epoch's byte image as a snapshot; RecoveryManager
// (storage/recovery.h) reads the same directory back after a crash.
// Rotation seals the active segment (footer zone map + fsync) past
// rotate_bytes, so long ingests shard into bounded files recovery can
// scan and zone-map away independently.
//
// Failure policy — what a storage error does to the pipeline:
//   kFailStop  The error propagates; the ingest loop stops. Nothing is
//              acknowledged that is not durable. The default.
//   kDegrade   The log latches degraded(), stops touching the disk, and
//              reports Ok: ingest and serving continue from memory, the
//              storage.degraded gauge flips, and /healthz (via the
//              storage.durability check) reports unhealthy instead of
//              the writer crashing. Durability resumes only with a
//              restart.
#ifndef TINPROV_STORAGE_DURABLE_LOG_H_
#define TINPROV_STORAGE_DURABLE_LOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "storage/env.h"
#include "storage/segment.h"
#include "storage/snapshot_store.h"
#include "util/status.h"

namespace tinprov::storage {

enum class FailurePolicy {
  kFailStop,
  kDegrade,
};

struct DurableLogOptions {
  /// Seal the active segment and open the next once it holds at least
  /// this many bytes (checked after each append, so one oversized batch
  /// still lands in a single segment).
  uint64_t rotate_bytes = 4ull << 20;
  /// fsync after every appended batch. Off trades the tail of the log
  /// (everything since the last rotation or snapshot) for throughput —
  /// recovery still stops cleanly at the torn tail either way.
  bool sync_each_append = true;
  FailurePolicy failure_policy = FailurePolicy::kFailStop;
};

class DurableLog {
 public:
  /// Opens the log rooted at `dir` (created if missing), resuming the
  /// global interaction count at `start_prefix` and numbering new
  /// segments from `start_seq` — both come from RecoveryManager (0/0
  /// for a fresh directory). Deletes every segment and snapshot past
  /// start_prefix first (the appends that follow rewrite that part of
  /// the history), and stale snapshot temp files.
  static StatusOr<std::unique_ptr<DurableLog>> Open(
      Env* env, const std::string& dir, uint64_t start_prefix,
      uint64_t start_seq, DurableLogOptions options = {});

  /// Best-effort Seal() — a clean shutdown should call Seal() itself
  /// and look at the status.
  ~DurableLog();

  DurableLog(const DurableLog&) = delete;
  DurableLog& operator=(const DurableLog&) = delete;

  /// Appends one applied micro-batch as a single record, rotating
  /// afterwards when the active segment is full. Under kDegrade a
  /// storage failure returns Ok and latches degraded().
  Status Append(const Interaction* batch, size_t count);

  /// Makes every appended batch durable.
  Status Sync();

  /// Persists `state` as the snapshot at global interaction index
  /// `prefix`, syncing the log first so a snapshot never claims a
  /// prefix the log cannot back. Subject to the failure policy.
  Status WriteSnapshot(uint64_t prefix, Timestamp watermark,
                       const std::vector<uint8_t>& state);

  /// Seals the active segment (footer + fsync + close). The next
  /// append opens a new segment. Idempotent.
  Status Seal();

  /// Interactions appended over this log's lifetime plus start_prefix —
  /// the global index the next append receives. Durable up to the last
  /// Sync/rotation; the torn tail past that is what recovery truncates.
  /// Safe to read from any thread (statusz reads it off the ops
  /// thread while the ingest thread appends).
  uint64_t prefix() const {
    return prefix_.load(std::memory_order_relaxed);
  }

  /// True once a storage failure was swallowed under kDegrade: the disk
  /// is no longer being written and recovery will see state no newer
  /// than the failure point. Safe to read from any thread — /healthz
  /// and /statusz poll it while the ingest thread owns the log.
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }

  SnapshotStore& snapshots() { return snapshots_; }
  const std::string& dir() const { return dir_; }
  Env* env() const { return env_; }

 private:
  DurableLog(Env* env, std::string dir, uint64_t start_prefix,
             uint64_t start_seq, DurableLogOptions options);

  /// Routes a storage error through the failure policy: kFailStop
  /// passes it along, kDegrade latches degraded() and absorbs it.
  Status OnFailure(Status status);

  /// Ensures an active segment writer exists.
  Status EnsureSegment();

  Env* env_;
  std::string dir_;
  DurableLogOptions options_;
  SnapshotStore snapshots_;
  std::unique_ptr<SegmentWriter> active_;
  // Atomics, not just gauges: the ops-plane surfaces (health checks,
  // /statusz) read these directly so they stay truthful even in
  // TINPROV_METRICS=OFF builds where the gauge mirrors compile away.
  std::atomic<uint64_t> prefix_;
  uint64_t next_seq_;
  std::atomic<bool> degraded_{false};
};

}  // namespace tinprov::storage

#endif  // TINPROV_STORAGE_DURABLE_LOG_H_
