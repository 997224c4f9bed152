// ShardedIngestEngine: the one bulk load from a stream to a full
// tracker.
//
// Label-linear specs (ShardedSpec::decomposable: Prop-sparse, Windowed,
// Selective, Grouped) load through label-sharded streaming replay
// (ShardedReplayEngine::ReplayStreamInto, sharded_replay.h): the calling
// thread pulls the stream and broadcasts it to the shard workers, the
// result tracker replays as shard 0, and the other shards' lists are
// interleaved straight into it and freed before the load returns. Every
// other spec, every layout that resolves to fewer than 2 workers, and
// every load that needs what the broadcast cannot give (a BatchSink, or
// no time-order check) runs a StreamIngestor on the calling thread.
// Either arm leaves the tracker bit-identical, SaveState bytes included,
// to a sequential StreamIngestor over the same stream.
#ifndef TINPROV_PARALLEL_SHARDED_INGEST_H_
#define TINPROV_PARALLEL_SHARDED_INGEST_H_

#include <memory>
#include <vector>

#include "core/types.h"
#include "parallel/sharded_replay.h"
#include "policies/tracker.h"
#include "stream/ingest.h"
#include "util/status.h"

namespace tinprov {

class InteractionStream;  // stream/interaction_stream.h

/// Outcome of a bulk load: the loaded tracker plus the stats a pipeline
/// observes about its ingestion.
struct ShardedIngestResult {
  /// IngestStream's tracker, bit-identical to what a sequential
  /// StreamIngestor over the same stream would have produced on
  /// spec.sequential(). Null after IngestInto (the caller owns it).
  std::unique_ptr<Tracker> tracker;
  /// Same fields StreamIngestor publishes, batches counted in
  /// IngestOptions::batch_size units on either arm; on the parallel arm
  /// tracker_peak_memory is the loaded tracker's final footprint, not
  /// a per-batch sample.
  IngestStats stats;
  /// False when the sequential arm ran.
  bool used_parallel_path = false;
  size_t num_shards = 1;
  /// Shard workers beside the producing thread (1 on the sequential
  /// arm).
  size_t num_threads = 1;
  /// Per-shard accounting as the replay left it, before the exchange
  /// grew shard 0 and freed the rest; empty on the sequential arm.
  std::vector<ShardInfo> shards;
};

class ShardedIngestEngine {
 public:
  /// `spec` names the tracker configuration (TrackerRegistry::Sharded
  /// builds one); `params` sizes the layout, where num_threads counts
  /// shard workers (0 = one fewer than HardwareThreads(), at least 1)
  /// and num_shards label shards (0 = one per worker; more shards than
  /// workers is valid); `options` carries the StreamIngestor contract
  /// (batch size, time order, initial watermark, sink).
  ShardedIngestEngine(const DatasetStats& stats, ShardedSpec spec,
                      ParallelParams params = {}, IngestOptions options = {});

  /// Drains `stream` once into a fresh spec.sequential() tracker.
  StatusOr<ShardedIngestResult> IngestStream(InteractionStream& stream) const;

  /// Drains `stream` once into `target`, a freshly constructed tracker
  /// built like spec.sequential()'s (borrowed; ReserveHint()s already
  /// applied are kept). A failed load may leave a partial prefix
  /// applied to it.
  StatusOr<ShardedIngestResult> IngestInto(InteractionStream& stream,
                                           Tracker* target) const;

  /// Shard workers the parallel arm runs; 0 when the sequential arm
  /// runs.
  size_t ResolvedWorkers() const { return workers_; }

  /// Label shards a load runs: 1 on the sequential arm.
  size_t ResolvedShards() const;

 private:
  StatusOr<ShardedIngestResult> ShardedLoad(InteractionStream& stream,
                                            Tracker* target) const;

  TrackerFactory sequential_;
  ShardedReplayEngine replay_;
  IngestOptions options_;
  size_t workers_ = 0;
};

}  // namespace tinprov

#endif  // TINPROV_PARALLEL_SHARDED_INGEST_H_
