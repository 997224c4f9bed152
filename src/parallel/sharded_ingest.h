// ShardedIngestEngine: the label-sharded engine, and the one bulk load
// from a stream to a full tracker.
//
// The pro-rata update is linear in generation labels: a transfer moves
// the same fraction of every label's share, and that fraction depends
// only on per-vertex balances, which evolve independently of which
// labels are attributed. So the label space can be partitioned into
// shards, each shard can replay the FULL stream on its own tracker
// restricted (via SparseProportionalBase::RestrictLabels) to the labels
// it owns, and the per-vertex lists of different shards stay disjoint
// by construction. Three consequences:
//   - balances, deficits and total_generated are computed by the
//     identical floating-point op sequence in every shard, so they are
//     bit-identical to a sequential replay;
//   - each owned label's quantity undergoes exactly the op sequence the
//     sequential replay applies to it, so shard lists are bit-identical
//     to the owned-label slices of the sequential lists;
//   - the exchange phase that merges cross-shard flow back into full
//     per-vertex lists is a pure interleave by label — no arithmetic —
//     and therefore deterministic regardless of thread timing.
// Work per shard is (stream scan) + (list work / #shards): the scan is
// the cheap scalar part, the list work is the superlinear cost paper
// Figure 6 plots, which is what actually parallelizes. WindowedTracker
// decomposes too: every shard sees every interaction, so its global
// reset counter advances identically.
//
// Label-linear specs (ShardedSpec::decomposable: Prop-sparse, Windowed,
// Selective, Grouped) at 2 or more workers take the sharded arm: the
// calling thread pulls the stream once and broadcasts it chunk by chunk
// through a bounded queue to resident shard workers (shard s runs on
// worker s mod workers, labels are dealt round-robin), the result
// tracker replays as shard 0, and the exchange interleaves the other
// shards' lists straight into its pool
// (SparseProportionalBase::AdoptLabelShards) and frees them before the
// load returns. Every other spec (the order-based policies;
// BudgetTracker, whose shrink inspects whole lists), every layout that
// resolves to fewer than 2 workers, and every load that needs what the
// broadcast cannot give (a BatchSink) runs a StreamIngestor on the
// calling thread. Either arm leaves the tracker bit-identical, SaveState
// bytes included, to a sequential StreamIngestor over the same stream.
// ProvenanceService::Catchup runs this engine.
#ifndef TINPROV_PARALLEL_SHARDED_INGEST_H_
#define TINPROV_PARALLEL_SHARDED_INGEST_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/types.h"
#include "policies/proportional_base.h"
#include "policies/tracker.h"
#include "stream/ingest.h"
#include "util/status.h"

namespace tinprov {

class InteractionStream;  // stream/interaction_stream.h

struct ParallelParams {
  /// Shard workers beside the producing (calling) thread; 0 =
  /// max(HardwareThreads(), 2) - 1, which leaves the producer one CPU.
  /// A layout of fewer than 2 workers loads sequentially.
  size_t num_threads = 0;
  /// Label shards; 0 = one per worker. Shard s runs on worker
  /// s mod workers. More shards than workers is valid but slower: each
  /// shard repeats the scan, and a worker switches shard state on every
  /// chunk (Prop-sparse, Prosper at TINPROV_SCALE=20, 3 workers on a
  /// 4-CPU host: 0.62 s replay with 8 shards, 0.31 s with 3). Shard
  /// counts are clamped to the label-space size.
  size_t num_shards = 0;
  /// Interactions per broadcast chunk, and the bound on undrained
  /// chunks the producer queue may hold. Each worker can additionally
  /// pin one in-flight chunk it is processing after the queue popped
  /// it, so total pipeline buffering is bounded by
  /// (stream_queue_chunks + workers) * stream_chunk interactions — a
  /// constant, independent of stream length.
  size_t stream_chunk = 4096;
  size_t stream_queue_chunks = 8;
};

/// Builds a fresh, identically configured pro-rata tracker; the engine
/// applies the per-shard label restriction itself.
using ShardTrackerFactory =
    std::function<std::unique_ptr<SparseProportionalBase>()>;

/// What the engine needs to know about a tracker configuration. Build
/// one by hand, or by name via TrackerRegistry::Sharded().
struct ShardedSpec {
  /// True when the tracker is label-linear (see file comment); false
  /// routes every load through the sequential arm.
  bool decomposable = false;
  /// Size of the generation-label id space: num_vertices for the
  /// vertex-labelled trackers, num_groups for GroupedTracker.
  size_t label_count = 0;
  /// Shard construction; required when decomposable.
  ShardTrackerFactory make_shard;
  /// The result tracker's construction; always required.
  TrackerFactory sequential;
};

/// Per-shard accounting for bench output.
struct ShardInfo {
  size_t labels = 0;        // labels owned
  size_t entries = 0;       // tuples held at the end of the replay
  double seconds = 0.0;     // replay wall time on its worker
  size_t pool_bytes = 0;    // arena bytes its tracker reserved
};

/// Outcome of a bulk load: the loaded tracker plus the stats a pipeline
/// observes about its ingestion.
struct ShardedIngestResult {
  /// IngestStream's tracker, bit-identical to what a sequential
  /// StreamIngestor over the same stream would have produced on
  /// spec.sequential(). Null after IngestInto (the caller owns it).
  std::unique_ptr<Tracker> tracker;
  /// Same fields StreamIngestor publishes, batches counted in
  /// IngestOptions::batch_size units on either arm; on the sharded arm
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
  /// builds one from `stats`, the dataset shape; the layout itself
  /// reads only spec.label_count); `params` sizes the layout;
  /// `options` carries the StreamIngestor contract (batch size, time
  /// order, initial watermark, sink).
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

  /// Shard workers the sharded arm runs; 0 when the sequential arm
  /// runs.
  size_t ResolvedWorkers() const { return workers_; }

  /// Label shards a load runs: 1 on the sequential arm.
  size_t ResolvedShards() const { return shards_; }

 private:
  // One executed broadcast: the shard trackers plus the label masks
  // they borrow (declared first so they outlive the trackers).
  struct ShardRun {
    std::vector<std::vector<uint8_t>> masks;
    /// Shards 1..n-1; shard 0 is the load's target.
    std::vector<std::unique_ptr<SparseProportionalBase>> owned;
    std::vector<SparseProportionalBase*> trackers;  // all shards, in order
    std::vector<size_t> labels_per_shard;
    std::vector<double> seconds;
  };

  StatusOr<ShardedIngestResult> ShardedLoad(InteractionStream& stream,
                                            Tracker* target) const;
  /// Per-shard entry pre-sizing from an expected interaction count
  /// (0 = unknown, no reservation).
  static void ReserveShard(SparseProportionalBase* tracker,
                           size_t expected_interactions, size_t num_shards);
  /// The shard runner: broadcasts `stream` to shards_ shards, `first`
  /// running as shard 0 (it keeps shard 0's label mask on return).
  /// `*watermark` is the order check's floor on entry and the last
  /// pulled timestamp on return.
  StatusOr<ShardRun> RunShards(InteractionStream& stream,
                               SparseProportionalBase* first,
                               size_t* interactions,
                               Timestamp* watermark) const;
  /// Per-shard accounting of an executed run; also publishes the
  /// parallel.shards_run / memory.shard_pool_bytes metrics.
  std::vector<ShardInfo> ShardInfos(const ShardRun& run) const;

  ShardedSpec spec_;
  ParallelParams params_;
  IngestOptions options_;
  size_t workers_ = 0;
  size_t shards_ = 1;
};

}  // namespace tinprov

#endif  // TINPROV_PARALLEL_SHARDED_INGEST_H_
