// Parallel sharded replay of the pro-rata provenance trackers.
//
// The pro-rata update is linear in generation labels: a transfer moves
// the same fraction of every label's share, and that fraction depends
// only on per-vertex balances, which evolve independently of which
// labels are attributed. So the label space can be partitioned into
// shards, each shard can replay the FULL interaction log on its own
// tracker restricted (via SparseProportionalBase::RestrictLabels) to
// the labels it owns, and the per-vertex lists of different shards stay
// disjoint by construction. Three consequences:
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
// Figure 6 plots, which is what actually parallelizes.
//
// Trackers whose behaviour is NOT label-linear (the order-based
// policies; BudgetTracker, whose shrink inspects whole lists) run on a
// sequential fallback path inside the same engine, so callers get one
// API and bit-identical results either way. WindowedTracker IS
// decomposable here — unlike influence-cone slicing, every shard sees
// every interaction, so its global reset counter advances identically.
//
// Shards are claimed by a small self-scheduling worker pool (each
// worker steals the next unclaimed shard index), so uneven shards —
// e.g. an activity-skewed label partition — keep all threads busy.
// Each shard tracker owns its own arena-backed pool; no state is
// shared between workers until the join.
//
// Two input modes share the engine: the materialized mode above (every
// shard re-scans the immutable log) and a streaming mode (ReplayStream)
// where a single pass of an InteractionStream is broadcast to the
// shards chunk by chunk through a bounded queue — same math, same
// bit-identical results, but the log is never materialized and
// buffering stays constant. ReplayStreamInto runs the streaming mode
// with a caller's tracker as shard 0 and interleaves the other shards'
// lists straight into it instead of a materialized result: the
// parallel arm of ShardedIngestEngine (sharded_ingest.h), the one
// stream -> full tracker bulk load, which ProvenanceService::Catchup
// runs.
#ifndef TINPROV_PARALLEL_SHARDED_REPLAY_H_
#define TINPROV_PARALLEL_SHARDED_REPLAY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/buffer.h"
#include "core/tin.h"
#include "core/types.h"
#include "policies/proportional_base.h"
#include "policies/tracker.h"
#include "scalable/grouped.h"
#include "util/status.h"

namespace tinprov {

class InteractionStream;  // stream/interaction_stream.h

/// How the generation-label space is partitioned into shards. These are
/// exactly the GroupedTracker assignment strategies (scalable/grouped.h)
/// applied to labels; kActivity balances per-shard list work via LPT
/// when labels are vertices and falls back to round-robin otherwise.
enum class ShardStrategy {
  kRoundRobin,
  kHash,
  kContiguous,
  kActivity,
};

struct ParallelParams {
  /// Worker threads; 0 = std::thread::hardware_concurrency(). With 1
  /// the shards all run inline on the caller.
  size_t num_threads = 0;
  /// Label shards; 0 = one per thread. More shards than threads is
  /// valid (and useful: the pool self-balances); shard counts are
  /// clamped to the label-space size.
  size_t num_shards = 0;
  ShardStrategy strategy = ShardStrategy::kActivity;
  /// Streaming replay (ReplayStream) only: interactions per broadcast
  /// chunk, and the bound on undrained chunks the producer queue may
  /// hold. Each worker can additionally pin one in-flight chunk it is
  /// processing after the queue popped it, so total pipeline buffering
  /// is bounded by (stream_queue_chunks + workers) * stream_chunk
  /// interactions — a constant, independent of stream length.
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
  /// routes every replay through the sequential fallback.
  bool decomposable = false;
  /// Size of the generation-label id space: num_vertices for the
  /// vertex-labelled trackers, num_groups for GroupedTracker.
  size_t label_count = 0;
  /// Shard construction; required when decomposable.
  ShardTrackerFactory make_shard;
  /// Fallback (and reference) construction; always required.
  TrackerFactory sequential;
};

/// Per-shard accounting for bench output.
struct ShardInfo {
  size_t labels = 0;        // labels owned
  size_t entries = 0;       // tuples held at the end of the replay
  double seconds = 0.0;     // replay wall time on its worker
  size_t pool_bytes = 0;    // arena bytes its tracker reserved
};

/// Materialized outcome of a (possibly prefix-bounded) replay.
struct ShardedReplayResult {
  size_t num_vertices = 0;
  size_t interactions_replayed = 0;  // log prefix length (logical cost)
  /// Wall time of the replay itself, excluding the exchange phase and
  /// result materialization. This is the number comparable to a
  /// sequential tracker's Process() loop: a sequential tracker is
  /// queryable the moment the loop ends, and so are the shard trackers
  /// (via a per-vertex interleave) the moment the replay ends.
  double replay_seconds = 0.0;
  std::vector<double> totals;        // per-vertex balances
  /// Per-vertex provenance lists, label-sorted — bit-identical to what
  /// the sequential tracker's Provenance() would list.
  std::vector<std::vector<ProvPair>> entries;
  double total_generated = 0.0;
  size_t num_entries = 0;
  /// False when the sequential fallback ran (non-decomposable spec or a
  /// single shard).
  bool used_parallel_path = false;
  size_t num_shards = 1;
  size_t num_threads = 1;
  std::vector<ShardInfo> shards;

  double BufferTotal(VertexId v) const { return totals[v]; }
  Buffer Provenance(VertexId v) const;
};

class ShardedReplayEngine {
 public:
  /// `tin` must outlive the engine.
  ShardedReplayEngine(const Tin& tin, ShardedSpec spec,
                      ParallelParams params = {});

  /// Tin-free streaming form: the engine knows only the dataset shape.
  /// ReplayStream is the sole replay entry point — the materialized
  /// ones below need a log to (re-)scan and return FailedPrecondition —
  /// and the kActivity strategy falls back to round-robin, since
  /// activity balancing needs a log to measure.
  ShardedReplayEngine(const DatasetStats& stats, ShardedSpec spec,
                      ParallelParams params = {});

  /// Replays the whole log.
  StatusOr<ShardedReplayResult> Replay() const;

  /// Single-pass streaming replay: drains `stream` once, broadcasting
  /// fixed-size chunks to every shard through a bounded queue (the
  /// calling thread is the producer; shard workers consume each chunk
  /// in order). Every shard still sees every interaction, so the result
  /// is bit-identical to Replay() over the materialized equivalent —
  /// but the log is never materialized and pipeline buffering stays
  /// bounded by (stream_queue_chunks + workers) chunks. Enforces
  /// non-decreasing timestamps like StreamIngestor. Non-decomposable
  /// specs (or a single shard) drain the stream through the sequential
  /// tracker instead, same result.
  StatusOr<ShardedReplayResult> ReplayStream(InteractionStream& stream) const;

  /// ReplayStream into `target` — a freshly constructed tracker
  /// configured like spec.make_shard()'s — instead of a materialized
  /// result: target replays as shard 0, then the exchange phase
  /// interleaves the other shards' lists straight into its pool
  /// (SparseProportionalBase::AdoptLabelShards), and every other shard
  /// is freed before this returns. On success target is bit-identical,
  /// SaveState bytes included, to a sequential replay of the stream;
  /// returns the interactions replayed, `*shard_infos` gets each
  /// shard's accounting as the replay left it (before the exchange),
  /// and `*watermark` — on entry the floor of the time-order check —
  /// becomes the last interaction's timestamp. Requires
  /// ResolvedShards() > 1 (FailedPrecondition otherwise: the caller
  /// owns the sequential path). A failed replay leaves target
  /// unrestricted but holding a partial shard-0 state.
  StatusOr<size_t> ReplayStreamInto(InteractionStream& stream,
                                    SparseProportionalBase* target,
                                    Timestamp* watermark,
                                    std::vector<ShardInfo>* shard_infos) const;

  /// Replays the first min(prefix, log length) interactions — the
  /// historical-prefix shape shared with the lazy engine.
  StatusOr<ShardedReplayResult> ReplayPrefix(size_t prefix) const;

  /// Single-vertex variant for per-query callers (the lazy engine):
  /// replays the prefix exactly like ReplayPrefix but exchanges only
  /// `v`'s shard slices, so the materialization cost is O(|list(v)|)
  /// instead of O(total entries). Bit-identical to
  /// ReplayPrefix(prefix)->Provenance(v).
  StatusOr<Buffer> QueryPrefix(VertexId v, size_t prefix) const;

  /// Threads the engine will actually use.
  size_t ResolvedThreads() const;

  /// Label shards a replay runs: 1 when it takes the sequential path
  /// (a non-decomposable spec, or a single shard after clamping).
  size_t ResolvedShards() const;

  /// label -> shard assignment for `strategy` (exposed for tests).
  static std::vector<GroupId> AssignLabels(const Tin& tin,
                                           ShardStrategy strategy,
                                           size_t label_count,
                                           size_t num_shards);

 private:
  // One executed parallel phase: the shard trackers plus the label
  // masks they borrow (declared first so they outlive the trackers).
  struct ShardRun {
    std::vector<std::vector<uint8_t>> masks;
    /// The shard trackers the engine built: every shard, or every one
    /// but a caller-provided shard 0 (ReplayStreamInto's target).
    std::vector<std::unique_ptr<SparseProportionalBase>> owned;
    std::vector<SparseProportionalBase*> trackers;  // all shards, in order
    std::vector<size_t> labels_per_shard;
    std::vector<double> seconds;
    size_t num_shards = 0;
    size_t num_threads = 0;
  };

  /// True when this spec/params combination shards at all; false means
  /// callers should take their sequential path.
  bool UsesShards(size_t* num_shards) const;
  /// Label partition + masks for `num_shards` (phase 0), shared by the
  /// materialized and streaming paths.
  void PartitionLabels(ShardRun* run, size_t num_shards) const;
  /// Per-shard entry pre-sizing from an expected interaction count
  /// (0 = unknown, no reservation).
  static void ReserveShard(SparseProportionalBase* tracker,
                           size_t expected_interactions, size_t num_shards);
  StatusOr<ShardRun> RunShards(size_t prefix, size_t num_shards) const;
  /// `first`, when non-null, runs as shard 0 in place of a tracker of
  /// the engine's own (it keeps shard 0's label mask on return).
  /// `*watermark` is the order check's floor on entry and the last
  /// pulled timestamp on return.
  StatusOr<ShardRun> RunShardsStream(InteractionStream& stream,
                                     size_t num_shards, size_t* interactions,
                                     Timestamp* watermark,
                                     SparseProportionalBase* first) const;
  /// Per-shard accounting of an executed run; also publishes the
  /// parallel.replays / shards_run / memory.shard_pool_bytes metrics.
  static std::vector<ShardInfo> ShardInfos(const ShardRun& run);
  /// Phase 2 (exchange) + result bookkeeping, shared by ReplayPrefix
  /// and ReplayStream.
  ShardedReplayResult AssembleResult(const ShardRun& run,
                                     size_t interactions_replayed,
                                     double replay_seconds) const;
  StatusOr<ShardedReplayResult> SequentialReplay(size_t prefix) const;
  StatusOr<ShardedReplayResult> SequentialStreamReplay(
      InteractionStream& stream) const;
  StatusOr<std::unique_ptr<Tracker>> SequentialTracker(size_t prefix) const;
  StatusOr<std::unique_ptr<Tracker>> MakeSequentialTracker() const;

  const Tin* tin_;  // null in the streaming-only form
  DatasetStats stats_;
  ShardedSpec spec_;
  ParallelParams params_;
};

}  // namespace tinprov

#endif  // TINPROV_PARALLEL_SHARDED_REPLAY_H_
