// SnapshotStore: durable tracker snapshots, cut at epoch publishes.
//
// A snapshot file is the padding-free Tracker::SaveState byte image
// (util/serialize.h / core/buffer_io.h format — the same bytes the
// serve layer publishes as an epoch) framed with its log position and a
// trailing CRC32C:
//
//   snap := magic(u32) version(u32) prefix(u64) watermark(f64)
//           state_len(u64) state masked_crc(u32)
//
// Visibility is atomic: the store writes to a temp name, fsyncs, then
// renames into place, so a crash mid-snapshot leaves at worst a stray
// temp file (swept on open) and never a half-visible snapshot. Loading
// skips any snapshot that fails its checksum — a corrupt snapshot costs
// recovery time (longer delta replay), never correctness.
#ifndef TINPROV_STORAGE_SNAPSHOT_STORE_H_
#define TINPROV_STORAGE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/types.h"
#include "storage/env.h"
#include "util/status.h"

namespace tinprov::storage {

struct SnapshotMeta {
  uint64_t prefix = 0;
  std::string name;  // file name within the store's directory
};

struct LoadedSnapshot {
  uint64_t prefix = 0;
  Timestamp watermark = std::numeric_limits<Timestamp>::lowest();
  std::vector<uint8_t> state;
};

class SnapshotStore {
 public:
  /// `dir` must exist; `env` is borrowed and must outlive the store.
  SnapshotStore(Env* env, std::string dir);

  /// Persists `state` as the snapshot at `prefix` (atomic rename).
  Status Write(uint64_t prefix, Timestamp watermark,
               const std::vector<uint8_t>& state);

  /// Every snapshot file present, ascending by prefix. Unparseable
  /// names are ignored; validity is only established by Load.
  StatusOr<std::vector<SnapshotMeta>> List() const;

  /// Every snapshot with prefix <= max_prefix that passes validation,
  /// ascending by prefix. One that fails (bit rot, torn rename window)
  /// is skipped and counted in *corrupt_skipped: it costs recovery a
  /// longer replay, never correctness. None qualifying means "recover
  /// from the beginning", which is always safe.
  StatusOr<std::vector<LoadedSnapshot>> LoadValid(
      uint64_t max_prefix, size_t* corrupt_skipped) const;

  /// Loads and validates one specific snapshot.
  Status Load(const SnapshotMeta& meta, LoadedSnapshot* out) const;

  /// Deletes crash-window temp files and every snapshot past
  /// `max_prefix`: a log resuming at max_prefix rewrites the history
  /// those were cut from, so once it grows past them again they would
  /// restore a state the new history never produced. Called by
  /// DurableLog::Open.
  Status Sweep(uint64_t max_prefix);

  const std::string& dir() const { return dir_; }

 private:
  Env* env_;
  std::string dir_;
};

}  // namespace tinprov::storage

#endif  // TINPROV_STORAGE_SNAPSHOT_STORE_H_
