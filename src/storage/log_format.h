// On-disk layout of the durable interaction log.
//
// A segment file is a fixed header followed by checksummed records:
//
//   header  := magic(u32) version(u32) base_prefix(u64)
//   record  := masked_crc(u32) payload_len(u32) type(u8) payload
//   segment := header record* [footer-record]
//
// masked_crc covers the type byte and the payload (Crc32cMask'd so
// embedded CRCs never collide with zeroed disk blocks). Integers and
// doubles are written field-wise through util/serialize.h in host
// little-endian layout — the same convention as tracker snapshots.
//
// Two record types exist:
//   kInteractionsRecord  payload = count(u32) then count x
//                        (src u32, dst u32, t f64, quantity f64) —
//                        one ingested micro-batch.
//   kFooterRecord        payload = the SegmentZoneMap below. Written
//                        once by Seal(); its presence marks a segment
//                        cleanly finished. A segment without one is the
//                        active tail (or a crash artifact) and its
//                        record chain is trusted only up to the first
//                        checksum break.
//
// Recovery contract: a reader scans records in order and stops at the
// first incomplete or checksum-mismatched record. Everything before the
// stop is exactly what the writer acknowledged; everything after is
// torn tail or bit rot and is truncated, never interpreted.
#ifndef TINPROV_STORAGE_LOG_FORMAT_H_
#define TINPROV_STORAGE_LOG_FORMAT_H_

#include <cstdint>
#include <limits>
#include <string>

#include "core/types.h"

namespace tinprov::storage {

inline constexpr uint32_t kSegmentMagic = 0x54494e53;  // "TINS"
inline constexpr uint32_t kSnapshotMagic = 0x54494e50;  // "TINP"
inline constexpr uint32_t kFormatVersion = 1;

inline constexpr uint8_t kInteractionsRecord = 1;
inline constexpr uint8_t kFooterRecord = 2;

/// header: magic + version + base_prefix.
inline constexpr size_t kSegmentHeaderBytes = 4 + 4 + 8;
/// record prelude: masked crc + payload length + type.
inline constexpr size_t kRecordHeaderBytes = 4 + 4 + 1;
/// One interaction on the wire: src + dst + t + quantity.
inline constexpr size_t kInteractionWireBytes = 4 + 4 + 8 + 8;

/// Per-segment vertex/time bounds — the zone map that lets a reader
/// (influence cones, prefix replay, historical queries) skip whole segments
/// whose [min_t, max_t] or vertex range cannot intersect its query.
struct SegmentZoneMap {
  uint64_t num_records = 0;       // data records, excluding the footer
  uint64_t num_interactions = 0;
  VertexId min_vertex = std::numeric_limits<VertexId>::max();
  VertexId max_vertex = 0;
  Timestamp min_t = std::numeric_limits<Timestamp>::infinity();
  Timestamp max_t = -std::numeric_limits<Timestamp>::infinity();
  uint64_t base_prefix = 0;  // global index of this segment's first entry

  void Observe(const Interaction& interaction) {
    ++num_interactions;
    min_vertex = interaction.src < min_vertex ? interaction.src : min_vertex;
    min_vertex = interaction.dst < min_vertex ? interaction.dst : min_vertex;
    max_vertex = interaction.src > max_vertex ? interaction.src : max_vertex;
    max_vertex = interaction.dst > max_vertex ? interaction.dst : max_vertex;
    min_t = interaction.t < min_t ? interaction.t : min_t;
    max_t = interaction.t > max_t ? interaction.t : max_t;
  }

  bool OverlapsTime(Timestamp lo, Timestamp hi) const {
    return num_interactions > 0 && min_t <= hi && lo <= max_t;
  }

  bool ContainsVertex(VertexId v) const {
    return num_interactions > 0 && min_vertex <= v && v <= max_vertex;
  }
};

/// seg-0000000042.tin / snap-00000000000001024.snap style names, fixed
/// width so lexicographic directory order equals numeric order.
std::string SegmentFileName(uint64_t seq);
std::string SnapshotFileName(uint64_t prefix);

/// Parses the counter out of a storage file name; returns false for
/// foreign files (editors, temp files), which the scanners skip.
bool ParseSegmentFileName(const std::string& name, uint64_t* seq);
bool ParseSnapshotFileName(const std::string& name, uint64_t* prefix);

}  // namespace tinprov::storage

#endif  // TINPROV_STORAGE_LOG_FORMAT_H_
