#include "storage/recovery.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "storage/log_format.h"
#include "storage/segment.h"
#include "storage/snapshot_store.h"

namespace tinprov::storage {

Status ReadLog(Env* env, const std::string& dir, ReadLogResult* out) {
  *out = ReadLogResult();
  if (!env->FileExists(dir)) return Status::Ok();
  auto names = env->ListDir(dir);
  if (!names.ok()) return names.status();

  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    if (!ParseSegmentFileName(name, &seq)) continue;
    segments.push_back({seq, name});
    out->next_seq = std::max(out->next_seq, seq + 1);
  }
  std::sort(segments.begin(), segments.end());

  bool broken = false;
  for (const auto& [seq, name] : segments) {
    if (broken) {
      ++out->segments_dropped;
      continue;
    }
    SegmentReadResult segment;
    const Status status = ReadSegment(env, JoinPath(dir, name), &segment);
    if (!status.ok()) return status;
    ++out->segments_scanned;

    // Continuity: a segment extends the trusted log only from exactly
    // its end. After a truncated tail, only a writer that recovered to
    // that same prefix (and so opened its segment there) lines up.
    if (segment.base_prefix != out->interactions.size()) {
      if (segment.end == SegmentEnd::kTorn && segment.interactions.empty() &&
          !segment.sealed) {
        // A header-less or header-only file (crash during segment
        // creation) carries no data and no position claim worth
        // honouring; count the tear and keep scanning.
        ++out->torn_tails;
        continue;
      }
      broken = true;
      ++out->segments_dropped;
      ++out->corrupt_records;
      TINPROV_COUNTER_ADD("storage.segment_corrupt", 1);
      continue;
    }

    out->interactions.insert(out->interactions.end(),
                             segment.interactions.begin(),
                             segment.interactions.end());
    if (segment.end == SegmentEnd::kTorn) {
      ++out->torn_tails;
      TINPROV_COUNTER_ADD("storage.segment_torn", 1);
    } else if (segment.end == SegmentEnd::kCorrupt) {
      ++out->corrupt_records;
      TINPROV_COUNTER_ADD("storage.segment_corrupt", 1);
    }
  }
  return Status::Ok();
}

RecoveryManager::RecoveryManager(Env* env, std::string dir)
    : env_(env), dir_(std::move(dir)) {}

StatusOr<RecoveredState> RecoveryManager::Recover(
    const TrackerFactory& factory) const {
  TINPROV_SCOPED_LATENCY_NS("storage.recovery_ns");
  RecoveredState out;

  ReadLogResult log;
  Status status = ReadLog(env_, dir_, &log);
  if (!status.ok()) return status;
  out.log = std::move(log.interactions);
  out.prefix = out.log.size();
  out.torn_tails = log.torn_tails;
  out.corrupt_records = log.corrupt_records;
  out.segments_dropped = log.segments_dropped;
  out.next_seq = log.next_seq;

  if (env_->FileExists(dir_)) {
    SnapshotStore store(env_, dir_);
    auto loaded = store.LoadValid(out.prefix, &out.snapshots_skipped);
    if (!loaded.ok()) return loaded.status();
    for (LoadedSnapshot& snapshot : *loaded) {
      out.snapshots.push_back(
          {static_cast<size_t>(snapshot.prefix),
           std::make_shared<const std::vector<uint8_t>>(
               std::move(snapshot.state))});
    }
  }

  size_t replayed = 0;
  auto tracker = RestoreAndReplay(
      factory, out.snapshots, static_cast<size_t>(out.prefix),
      [&out](size_t i) -> const Interaction& { return out.log[i]; },
      &replayed);
  if (!tracker.ok()) {
    return Status(tracker.status().code(),
                  "recovery (is the recovery spec configured like the "
                  "writer's?): " +
                      tracker.status().message());
  }
  out.replayed = replayed;
  out.snapshot_prefix = out.prefix - replayed;
  if (!out.log.empty()) out.watermark = out.log.back().t;
  (*tracker)->SaveState(&out.state);

  TINPROV_COUNTER_ADD("storage.recoveries", 1);
  TINPROV_GAUGE_SET("storage.recovered_interactions", out.prefix);
  TINPROV_GAUGE_SET("storage.recovery_replayed", out.replayed);
  return out;
}

StatusOr<std::shared_ptr<const TimeTravelIndex>> BuildRecoveredIndex(
    const RecoveredState& recovered, size_t num_vertices,
    const TrackerFactory& factory, size_t snapshot_interval) {
  if (recovered.log.empty()) {
    return std::shared_ptr<const TimeTravelIndex>();
  }
  auto index =
      TimeTravelIndex::NewStreaming(num_vertices, factory, snapshot_interval);
  if (!index.ok()) return index.status();
  for (const Interaction& interaction : recovered.log) {
    const Status status = (*index)->Observe(interaction);
    if (!status.ok()) return status;
  }
  const Status status = (*index)->Finalize();
  if (!status.ok()) return status;
  return std::shared_ptr<const TimeTravelIndex>(std::move(*index));
}

}  // namespace tinprov::storage
