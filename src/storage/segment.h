// SegmentWriter / segment reading: one checksummed append-only log file.
//
// The writer turns ingested micro-batches into records (storage/
// log_format.h) and maintains the running zone map; Seal() persists the
// zone map as the footer record and makes the file durable. The reader
// is recovery's workhorse: it trusts nothing, re-checksums every
// record, and reports exactly how far the file can be believed and why
// it stopped (clean end, torn tail, or corruption) — the caller decides
// what that means for the log as a whole.
#ifndef TINPROV_STORAGE_SEGMENT_H_
#define TINPROV_STORAGE_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "storage/env.h"
#include "storage/log_format.h"
#include "util/status.h"

namespace tinprov::storage {

class SegmentWriter {
 public:
  /// Creates `path` and writes the header. `base_prefix` is the global
  /// interaction index of the first entry this segment will hold.
  static StatusOr<std::unique_ptr<SegmentWriter>> Open(Env* env,
                                                       const std::string& path,
                                                       uint64_t base_prefix);

  /// Appends one batch as a single record. Batches are never split
  /// across segments, so a record is the atomicity unit recovery sees.
  Status Append(const Interaction* batch, size_t count);

  /// Makes everything appended so far durable.
  Status Sync();

  /// Writes the footer (zone map), syncs, and closes. The writer is
  /// unusable afterwards. Idempotent on success.
  Status Seal();

  const SegmentZoneMap& zone_map() const { return zone_map_; }
  uint64_t bytes_written() const { return bytes_written_; }
  bool sealed() const { return sealed_; }
  const std::string& path() const { return path_; }

 private:
  SegmentWriter(std::string path, std::unique_ptr<WritableFile> file,
                uint64_t base_prefix);

  Status AppendRecord(uint8_t type, const std::vector<uint8_t>& payload);

  std::string path_;
  std::unique_ptr<WritableFile> file_;
  SegmentZoneMap zone_map_;
  std::vector<uint8_t> scratch_;  // reused record-encoding buffer
  uint64_t bytes_written_ = 0;
  bool sealed_ = false;
};

/// Why a segment scan stopped.
enum class SegmentEnd {
  kClean,      // footer found (sealed) or file ended exactly on a record
  kTorn,       // trailing record incomplete — the classic torn tail
  kCorrupt,    // a complete record failed its checksum (bit rot), or
               // the header/footer did
};

struct SegmentReadResult {
  /// Every interaction from records that checksummed clean, in order.
  std::vector<Interaction> interactions;
  uint64_t base_prefix = 0;
  SegmentEnd end = SegmentEnd::kClean;
  bool sealed = false;  // intact footer present
  /// Footer zone map when sealed; recomputed from the data otherwise.
  SegmentZoneMap zone_map;
  /// Bytes of the file covered by trusted records (header included).
  uint64_t valid_bytes = 0;
};

/// Scans `path`, validating every checksum. I/O errors and an unreadable
/// header fail the call; torn tails and corrupt records do NOT — they
/// end the trusted prefix and are reported in `result->end`, because a
/// half-written file is an expected crash artifact, not a bug.
Status ReadSegment(Env* env, const std::string& path,
                   SegmentReadResult* result);

/// Reads only `path`'s header into *base_prefix. False (not an error)
/// when no intact header landed — a crash during segment creation.
StatusOr<bool> ReadSegmentBase(Env* env, const std::string& path,
                               uint64_t* base_prefix);

}  // namespace tinprov::storage

#endif  // TINPROV_STORAGE_SEGMENT_H_
