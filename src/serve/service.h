// ProvenanceService: snapshot-isolated provenance queries over a live
// ingest — the serve-while-ingesting layer.
//
// Every earlier layer assumes one thread owns the tracker; this one
// splits the work. A single writer thread drives a StreamIngestor over
// the live tracker and, every epoch_interval interactions, publishes an
// *epoch*: an immutable answer table holding Provenance(v) for every
// vertex, plus the watermark/prefix it is consistent with. Reader
// threads answer Provenance(v), Provenance(v, t), and top-k origin
// queries against published epochs only — they never touch the live
// tracker.
//
// Publishing costs what changed, not |V|. The answer table is a
// persistent two-level trie of shared immutable per-vertex Buffers.
// The writer re-reads Provenance(v) only for the endpoints of the
// interactions applied since the last publish (or for every vertex
// when Tracker::WideChanges() moved, e.g. a Windowed reset), and
// path-copies only the leaves that hold them; everything else is
// shared with the previous epoch. Vertices with empty state share one
// empty Buffer.
//
// Concurrency model (RCU-style epoch pinning):
//   - The service holds one std::shared_ptr<const EpochView>, published
//     with std::atomic_store (release) and pinned by readers with
//     std::atomic_load (acquire). Readers and the writer share no lock
//     of the service's own, but these shared_ptr atomics are not
//     lock-free: libstdc++ implements them with a small internal mutex
//     pool, held for the pointer copy only. An EpochView is immutable
//     after publication; pinning it keeps every state it references —
//     the ring of recent answer tables, the log chunks, the snapshot
//     byte images — alive for the duration of the query, however far
//     the writer advances meanwhile.
//   - The log is chunked and append-only: fixed-capacity chunks whose
//     backing arrays never move, so a published view's chunk pointers
//     stay valid while the writer fills later slots. Readers only read
//     entries below their pinned view's prefix, all written before the
//     view's release-store — no torn reads, TSan-clean.
//   - Writer-side state (live tracker, changed-vertex set, chunk list,
//     snapshot bookkeeping) is touched only by the writer thread.
//
// Snapshots (the retained history images and, with durability on, the
// snap-*.snap files) are SaveState images cut at an epoch publish by
// one fixed rule: once the interactions applied since the last
// snapshot, at sizeof(Interaction) each, reach that snapshot's byte
// size. All snapshots together therefore stay within the log's bytes
// plus one image, however large the state.
//
// Consistency guarantees:
//   - Provenance(v) / TopOrigins(v, k) answer from the newest published
//     epoch: a consistent prefix of the stream, bit-identical to a
//     stop-the-world query at that epoch's watermark. Staleness is
//     bounded by epoch_interval interactions (plus one in-flight
//     batch); the answer's EpochInfo says exactly which watermark it
//     reflects.
//   - Provenance(v, t) is exact for any t at or below the pinned
//     epoch's watermark: resolved from a ring epoch when one matches,
//     otherwise nearest retained snapshot + delta replay of the pinned
//     log (the TimeTravelIndex recipe, online). For t beyond the
//     watermark the answer is the epoch state — complete through the
//     watermark, with EpochInfo reporting the gap. With retain_history
//     off there is no log to find t's exact prefix in (timestamps may
//     tie), so only t at or past the newest watermark — or below the
//     handoff watermark — answers; a ring epoch never does.
//   - A service seeded from a finalized TimeTravelIndex answers
//     t < the handoff watermark from the index and later times from its
//     own log; the live tracker starts from the index's final state, so
//     the two regimes meet bit-exactly at the boundary.
#ifndef TINPROV_SERVE_SERVICE_H_
#define TINPROV_SERVE_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analytics/registry.h"
#include "core/buffer.h"
#include "core/tin.h"
#include "core/types.h"
#include "lazy/time_travel.h"
#include "parallel/sharded_replay.h"
#include "serve/request_queue.h"
#include "storage/durable_log.h"
#include "storage/recovery.h"
#include "stream/ingest.h"
#include "stream/interaction_stream.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace tinprov {

namespace obs {
class OpsServer;
class Recorder;
}  // namespace obs

/// Durability wiring for a service (ServeOptions::durability). With a
/// non-empty dir the service recovers whatever the directory holds on
/// construction (newest valid snapshot + checksummed log replay,
/// truncating at the first torn or corrupt record), seeds its live
/// tracker and a TimeTravelIndex from the recovered state, then keeps
/// the directory current: every applied micro-batch lands in the
/// segment log, and each snapshot the service's log-volume rule cuts
/// (see the file comment) becomes a snap-*.snap file. A restart
/// therefore resumes bit-identically to a clean replay of the recovered
/// prefix: nearest snapshot, then the log after it.
struct DurabilityOptions {
  /// Storage directory (created if missing). Empty = in-memory only —
  /// the pre-durability behavior, and the default.
  std::string dir;
  /// Filesystem boundary; null = storage::Env::Posix(). Tests pass a
  /// FaultInjectingEnv here to crash the pipeline at exact I/O ops.
  storage::Env* env = nullptr;
  /// Segment rotation / per-batch fsync / fail-stop-vs-degrade policy.
  storage::DurableLogOptions log;
  /// Recover existing state on construction. Off opens the directory
  /// for appending only (a deliberate restart-from-scratch keeps old
  /// segments dead weight — prefer a fresh dir).
  bool recover = true;
  /// Snapshot interval of the TimeTravelIndex built over the recovered
  /// log (pre-crash historical queries).
  size_t history_snapshot_interval = 4096;
  /// storage.disk_headroom health check trips below this many free
  /// bytes on dir's filesystem.
  uint64_t min_free_disk_bytes = 64ull << 20;

  bool Enabled() const { return !dir.empty(); }
};

struct ServeOptions {
  /// Interactions between epoch publishes. Lower = fresher reads and
  /// more publishes; each publish costs the vertices changed since the
  /// previous one (and the trie leaves holding them), not |V|.
  size_t epoch_interval = 4096;
  /// Recent epochs kept pinned by new views (older epochs survive only
  /// while an in-flight reader still pins them). With history retention
  /// on, the ring gives historical queries an exact-prefix fast path; an
  /// older epoch costs only the leaves and Buffers its successors
  /// replaced.
  size_t ring_size = 4;
  /// StreamIngestor micro-batch size for the writer.
  size_t ingest_batch = 1024;
  /// Retain the ingested log (chunked) and the snapshot images the
  /// log-volume rule cuts, so Provenance(v, t) can delta-replay to
  /// arbitrary past times. With retention off, standing memory stops
  /// growing with the stream, and Provenance(v, t) answers only t at or
  /// past the newest watermark (the latest epoch) or below the handoff
  /// watermark (the index): without the log a ring epoch cannot be
  /// matched to t exactly at timestamp ties, so every other t returns
  /// FailedPrecondition.
  bool retain_history = true;
  /// Worker threads for the Submit() queue. 0 = inline execution; the
  /// direct query methods never use the pool either way.
  size_t num_query_threads = 0;

  /// Used by Catchup(): the ShardedIngestEngine layout
  /// (parallel/sharded_ingest.h). num_threads counts shard workers,
  /// which run beside the calling thread that pulls the stream; 0 = one
  /// fewer than std::thread::hardware_concurrency(), with a floor of 1.
  /// A layout that resolves to fewer than 2 workers (or a spec that
  /// does not decompose) loads sequentially instead.
  ParallelParams catchup;

  // --- Ops plane (EnableOpsServer / the slow-query log) ------------------

  /// Execute()/Submit() queries slower than this land in the
  /// process-wide SlowQueryLog (/tracez?slow=1 on the ops server).
  /// 0 disables recording; ids are stamped either way.
  int64_t slow_query_ns = 1'000'000;  // 1 ms

  /// /healthz thresholds, wired when EnableOpsServer runs. Age applies
  /// only while ingest is live (a drained service is never stale);
  /// infinite limits report their value but never trip.
  double health_max_epoch_age_s = 60.0;
  double health_max_queue_depth = 65536.0;
  double health_max_watermark_lag = std::numeric_limits<double>::infinity();
  double health_max_alpha_residue = std::numeric_limits<double>::infinity();

  /// EnableOpsServer's metrics recorder: sampling period and ring bound
  /// (the ring always holds the most recent capacity*interval window).
  int64_t ops_recorder_interval_ms = 250;
  size_t ops_recorder_capacity = 512;

  // --- Durability (storage/ layer) ---------------------------------------

  /// Off (empty dir) by default. See DurabilityOptions.
  DurabilityOptions durability;
};

class ProvenanceService {
 public:
  /// A service for `spec` over a dataset of shape `stats`, starting
  /// from empty state. The spec must be TrackerMode::kStreaming — the
  /// service only ever sees a stream.
  static StatusOr<std::unique_ptr<ProvenanceService>> Create(
      const TrackerSpec& spec, const DatasetStats& stats,
      ServeOptions options = {});

  /// As Create(), but seeded from a finalized TimeTravelIndex: the live
  /// tracker restores the index's final state (SaveFinalState) and
  /// Provenance(v, t) routes times below the handoff watermark through
  /// the index. The factory `spec` must build trackers configured
  /// identically to the index's own, or the restore fails.
  static StatusOr<std::unique_ptr<ProvenanceService>> CreateWithHistory(
      const TrackerSpec& spec, const DatasetStats& stats,
      std::shared_ptr<const TimeTravelIndex> history,
      ServeOptions options = {});

  /// Stops ingest (joins the writer) and the worker pool.
  ~ProvenanceService();

  ProvenanceService(const ProvenanceService&) = delete;
  ProvenanceService& operator=(const ProvenanceService&) = delete;

  // --- Writer side -------------------------------------------------------

  /// Bulk-loads historical data before serving begins: drains `stream`
  /// (owned) into the live tracker and publishes the result as one
  /// epoch. Start() then continues with the live tail from the catchup
  /// watermark. The load is ShardedIngestEngine::IngestInto
  /// (parallel/sharded_ingest.h) with the live tracker as its target,
  /// laid out by ServeOptions::catchup: label-linear specs (Prop-sparse,
  /// Windowed, Selective, Grouped) at 2 or more shard workers load
  /// through label-sharded streaming replay with the live tracker as
  /// shard 0; every other spec and every 1-worker layout runs a
  /// StreamIngestor on the calling thread — the writer's own loop,
  /// minus the per-interval epochs. Both arms leave the live tracker
  /// bit-identical (SaveState bytes included) to a sequential ingest;
  /// the serve.catchup_workers gauge says which one ran (0 =
  /// sequential). Must run before Start(), at most once (a failed
  /// catchup may leave a partial prefix applied, so the service then
  /// refuses both a second Catchup() and Start() and must be
  /// discarded), from empty state (no handoff index) and with
  /// durability off (the catchup batches would bypass the durable log).
  /// With history retention on, the catchup interactions land in the
  /// retained log, so Provenance(v, t) works across the catchup range
  /// exactly as if the writer had ingested it.
  Status Catchup(std::unique_ptr<InteractionStream> stream);

  /// Catchup accounting. Valid after a successful Catchup(). Batches
  /// count min(ingest_batch, epoch_interval)-sized units on either arm.
  const IngestStats& catchup_stats() const { return catchup_stats_; }

  /// Starts the writer thread ingesting `stream` (owned). One ingest per
  /// service; FailedPrecondition after a failed Catchup().
  Status Start(std::unique_ptr<InteractionStream> stream);

  /// Blocks until the writer has drained its stream; returns the ingest
  /// status. Idempotent. After an OK return, the final epoch (every
  /// interaction applied) is published and ingest_stats() is valid.
  Status WaitIngest();

  /// True once the writer has finished (successfully or not) — readers
  /// can poll this without blocking.
  bool IngestDone() const {
    return ingest_done_.load(std::memory_order_acquire);
  }

  /// Final ingest accounting. Valid only after WaitIngest().
  const IngestStats& ingest_stats() const { return final_ingest_stats_; }

  // --- Reader side (thread-safe; never waits on the writer's work) -------

  /// Provenance of `v` at the newest published epoch.
  QueryResult Provenance(VertexId v) const;

  /// Provenance of `v` at historical time `t` — see the consistency
  /// notes above for how t relates to the handoff index, the retained
  /// log, and the epoch watermark.
  QueryResult Provenance(VertexId v, Timestamp t) const;

  /// The k origins contributing the most quantity to v's buffer at the
  /// newest epoch, sorted by quantity descending (origin id ascending
  /// on ties, so results are deterministic). buffer.total remains the
  /// full buffered quantity.
  QueryResult TopOrigins(VertexId v, size_t k) const;

  /// Executes any request — the QueryWorkerPool executor.
  QueryResult Execute(const QueryRequest& request) const;

  /// Queues a request on the worker pool (inline when the pool has no
  /// threads). Thread-safe.
  std::future<QueryResult> Submit(QueryRequest request);

  /// Identity of the newest published epoch.
  EpochInfo LatestEpoch() const;

  size_t num_query_threads() const { return pool_->num_threads(); }
  size_t num_vertices() const { return stats_.num_vertices; }

  // --- Ops plane ---------------------------------------------------------

  /// Starts the embedded ops endpoint on 127.0.0.1:`port` (0 picks an
  /// ephemeral port; the bound port is returned). Wires the whole
  /// plane: the service-aware /statusz page, a metrics Recorder
  /// sampling at ops_recorder_interval_ms, and the health checks
  /// (serve.epoch_age, serve.queue_depth, ingest.watermark_lag,
  /// trace.drops, tracker.alpha_residue) against the ServeOptions
  /// thresholds. One ops server per service; FailedPrecondition when
  /// already enabled.
  StatusOr<uint16_t> EnableOpsServer(uint16_t port);

  /// Stops the endpoint and recorder and unregisters the service's
  /// health checks. Idempotent; the destructor calls it.
  void DisableOpsServer();

  /// The recorder EnableOpsServer started (time-series export), or
  /// null while the ops plane is down.
  const obs::Recorder* ops_recorder() const { return ops_recorder_.get(); }

  /// The /statusz document: uptime, the newest epoch exactly as a
  /// pinned reader sees it, ingest progress and windowed rates, query
  /// accounting, and every memory.* gauge. Valid with or without the
  /// ops server running (the handler calls this).
  std::string StatuszJson() const;

  /// Seconds since the newest epoch was published (any thread).
  double EpochAgeSeconds() const;

 private:
  class AnswerTable;  // service.cc: one epoch's path-copied answers
  struct EpochView;   // service.cc: the immutable published state

  ProvenanceService(ShardedSpec spec, const DatasetStats& stats,
                    const ServeOptions& options,
                    std::shared_ptr<const TimeTravelIndex> history);

  /// Builds and publishes epoch 0 (initial or handoff state).
  Status Init(const std::vector<uint8_t>* handoff_state);

  /// Writer body: drains stream_, publishing epochs along the way.
  Status RunIngest();

  /// Writer (via LogSink): marks the pulled interaction's endpoints as
  /// changed and appends it to the chunked log (when history retention
  /// is on).
  void AppendLog(const Interaction& interaction);

  /// Writer: publishes the current live-tracker state as a new epoch,
  /// re-reading only the changed vertices, and cuts a snapshot when
  /// SnapshotDue(prefix).
  Status PublishEpoch(size_t prefix, Timestamp watermark);

  /// Writer: v's live answer, shared with every empty vertex when empty.
  std::shared_ptr<const Buffer> AnswerOf(VertexId v) const;

  /// Writer: the log-volume snapshot rule (see the file comment), when
  /// history retention or durability keeps snapshots at all.
  bool SnapshotDue(size_t prefix) const;

  /// Reader: pins the newest view.
  std::shared_ptr<const EpochView> PinView() const {
    return std::atomic_load_explicit(&latest_, std::memory_order_acquire);
  }

  QueryResult ProvenanceAt(VertexId v, Timestamp t) const;

  /// The kind switch Execute() wraps with id/latency/slow-log bookkeeping.
  QueryResult Dispatch(const QueryRequest& request) const;

  /// The spec's sharded description: spec_.sequential builds every
  /// tracker the service owns, and Catchup shards through the rest when
  /// the spec is decomposable.
  ShardedSpec spec_;
  DatasetStats stats_;
  ServeOptions options_;
  std::shared_ptr<const TimeTravelIndex> history_;
  Timestamp history_watermark_;  // meaningful iff history_ != nullptr
  /// Watermark the live ingest must resume at or above: the handoff
  /// watermark, raised by Catchup() to the catchup watermark.
  Timestamp resume_watermark_;

  // Writer-owned after Start() (and during Init).
  std::unique_ptr<Tracker> live_tracker_;
  std::unique_ptr<InteractionStream> stream_;
  /// Durable log, or null when ServeOptions::durability is off. Written
  /// by the writer thread; other threads observe it through the
  /// storage.* gauges only.
  std::unique_ptr<storage::DurableLog> durable_;
  /// Recovered global prefix — the durable log position local epoch
  /// prefixes are offset by (snapshot files carry global positions).
  uint64_t durable_base_ = 0;
  class LogSink;  // service.cc: tee stream appending into the chunked log
  std::vector<std::shared_ptr<std::vector<Interaction>>> chunks_;
  size_t log_size_ = 0;
  /// Interactions applied before the writer's own ingest begins —
  /// Catchup()'s count. Epoch prefixes offset by it so they keep
  /// indexing the full retained log.
  size_t prefix_base_ = 0;
  size_t snapshot_bytes_ = 0;  // running total of retained byte images
  /// Vertices changed since the last publish (each once: changed_mark_
  /// flags membership, indexed by vertex).
  std::vector<VertexId> changed_;
  std::vector<uint8_t> changed_mark_;
  /// live_tracker_->WideChanges() as of the last publish.
  uint64_t published_wide_changes_ = 0;
  /// Prefix and SaveState byte size of the last snapshot (the prefix-0
  /// initial/handoff state until the rule cuts one).
  size_t snapshot_prefix_ = 0;
  size_t snapshot_image_bytes_ = 0;
  uint64_t next_seq_ = 0;
  Stopwatch since_publish_;  // serve.epoch_age_ns at publish time

  // Shared: the RCU-published view; writer stores, readers load.
  std::shared_ptr<const EpochView> latest_;

  std::atomic<bool> started_{false};
  std::atomic<bool> ingest_done_{false};
  bool ingest_joined_ = false;
  bool caught_up_ = false;
  bool catchup_failed_ = false;
  Status ingest_status_;
  IngestStats final_ingest_stats_;
  IngestStats catchup_stats_;
  std::thread writer_;
  std::unique_ptr<QueryWorkerPool> pool_;

  // Ops plane (EnableOpsServer). last_publish_ns_ mirrors
  // since_publish_ in a form any thread may read (the health check and
  // /statusz run on the ops server's accept thread).
  Stopwatch uptime_;  // never restarted; reads are race-free
  std::atomic<int64_t> last_publish_ns_{0};
  std::unique_ptr<obs::OpsServer> ops_server_;
  std::unique_ptr<obs::Recorder> ops_recorder_;
  std::vector<std::string> health_checks_;  // names registered, for teardown

  friend class ProvenanceServiceTestPeer;  // tests: live-tracker SaveState
};

}  // namespace tinprov

#endif  // TINPROV_SERVE_SERVICE_H_
