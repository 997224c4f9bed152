#include "parallel/sharded_ingest.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/scheduler.h"
#include "policies/proportional_base.h"
#include "stream/interaction_stream.h"
#include "util/stopwatch.h"

namespace tinprov {

namespace {

/// num_threads = 0 leaves the producing thread one of the host's CPUs.
ParallelParams ResolveWorkers(ParallelParams params) {
  if (params.num_threads == 0) {
    params.num_threads = std::max<size_t>(HardwareThreads(), 2) - 1;
  }
  return params;
}

}  // namespace

ShardedIngestEngine::ShardedIngestEngine(const DatasetStats& stats,
                                         ShardedSpec spec,
                                         ParallelParams params,
                                         IngestOptions options)
    : sequential_(spec.sequential),
      replay_(stats, std::move(spec), ResolveWorkers(params)),
      options_(options) {
  // The broadcast producer always checks time order and has no point at
  // which a batch is applied by every shard, so a sink (which must see
  // batches after the tracker applied them) or an unchecked stream
  // loads sequentially.
  const size_t workers =
      std::min(replay_.ResolvedThreads(), replay_.ResolvedShards());
  if (workers >= 2 && options_.sink == nullptr && options_.enforce_time_order) {
    workers_ = workers;
  }
}

size_t ShardedIngestEngine::ResolvedShards() const {
  return workers_ == 0 ? 1 : replay_.ResolvedShards();
}

StatusOr<ShardedIngestResult> ShardedIngestEngine::IngestStream(
    InteractionStream& stream) const {
  if (!sequential_) {
    return Status::FailedPrecondition(
        "sharded spec has no sequential tracker factory");
  }
  std::unique_ptr<Tracker> tracker = sequential_();
  if (tracker == nullptr) {
    return Status::Internal("sequential tracker factory returned null");
  }
  auto result = IngestInto(stream, tracker.get());
  if (result.ok()) result->tracker = std::move(tracker);
  return result;
}

StatusOr<ShardedIngestResult> ShardedIngestEngine::IngestInto(
    InteractionStream& stream, Tracker* target) const {
  if (workers_ != 0) return ShardedLoad(stream, target);
  StreamIngestor ingestor(target, options_);
  const Status status = ingestor.IngestAll(stream);
  if (!status.ok()) {
    return Status(status.code(), "sequential ingest: " + status.message());
  }
  ShardedIngestResult result;
  result.stats = ingestor.stats();
  return result;
}

StatusOr<ShardedIngestResult> ShardedIngestEngine::ShardedLoad(
    InteractionStream& stream, Tracker* target) const {
  // Decomposable specs build pro-rata trackers: spec.sequential() is the
  // unrestricted shard factory.
  auto* shard0 = dynamic_cast<SparseProportionalBase*>(target);
  if (shard0 == nullptr) {
    return Status::InvalidArgument(
        "label-sharded ingest needs a pro-rata target tracker");
  }
  obs::TraceSpan span("ingest.sharded", "parallel");
  Stopwatch watch;
  if (options_.reserve_from_stats) target->ReserveHint(stream.Stats());
  ShardedIngestResult result;
  Timestamp watermark = options_.initial_watermark;
  auto replayed =
      replay_.ReplayStreamInto(stream, shard0, &watermark, &result.shards);
  if (!replayed.ok()) return replayed.status();

  // The accounting a StreamIngestor with this batch size would report:
  // perfbench counts catchup batches as attempted operations.
  const size_t n = *replayed;
  const size_t batch = std::max<size_t>(options_.batch_size, 1);
  IngestStats& stats = result.stats;
  stats.interactions = n;
  stats.batches = (n + batch - 1) / batch;
  stats.peak_batch = std::min(n, batch);
  if (n > 0) stats.watermark = watermark;
  stats.tracker_peak_memory = target->MemoryUsage();
  stats.seconds = watch.ElapsedSeconds();
  if (n > 0) {
    PublishIngestProgress(stats, n, stats.batches, watermark, *target);
  }
  result.used_parallel_path = true;
  result.num_shards = result.shards.size();
  result.num_threads = workers_;
  TINPROV_COUNTER_ADD("parallel.ingests", 1);
  return result;
}

}  // namespace tinprov
