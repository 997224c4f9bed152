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
// persistent two-level trie whose leaves hold plain pointers to
// immutable answers. The writer re-reads Provenance(v) only for the
// endpoints of the interactions applied since the last publish (or for
// every vertex when Tracker::WideChanges() moved, e.g. a Windowed
// reset), and path-copies only the leaves that hold them: a flat
// pointer copy, with no reference count to touch. Everything else is
// shared with the previous epoch, and vertices with empty state point
// at one static empty answer.
//
// Concurrency model (RCU-style epoch pinning):
//   - The service holds one std::shared_ptr<const EpochView>, published
//     with std::atomic_store (release) and pinned by readers with
//     std::atomic_load (acquire). Readers and the writer share no lock
//     of the service's own, but these shared_ptr atomics are not
//     lock-free: libstdc++ implements them with a small internal mutex
//     pool, held for the pointer copy only. An EpochView is immutable
//     after publication; pinning it keeps every state it references —
//     the ring of recent answer tables, the published History::View
//     (lazy/history.h) of the log chunks and snapshot byte images —
//     alive for the duration of the query, however far the writer
//     advances meanwhile. Readers only read log entries below their
//     pinned view's size, all written before the view's release-store —
//     no torn reads, TSan-clean.
//   - Answers are reclaimed by epoch (Fraser, "Practical lock-freedom",
//     2004; McKenney's RCU). The writer alone allocates and frees them
//     (the destructor frees those the newest table still holds).
//     An answer a publish replaces is retired with the range of table
//     seqs that reach it. Each answer table registers its seq in a
//     registry of live tables for as long as it lives; the registry's
//     own mutex guards it, since a table's destructor runs on whichever
//     thread drops the last view holding it, a reader's included. At
//     every publish and once when ingest ends, the writer frees each
//     retired answer no live table's seq falls within. A reader that
//     pins an old view therefore keeps exactly the answers that view
//     reaches (memory.serve_retired_answer_bytes), and never frees one.
//   - Writer-side state (live tracker, changed-vertex set, the History
//     itself) is touched only by the writer thread.
//
// The service keeps one History: its retained log and the snapshots
// its log-volume rule cuts at epoch publishes (with durability on, each
// also becomes a snap-*.snap file). A durable restart seeds it from
// recovery — the trusted log at its global positions, every valid
// snap-*.snap (the images the crashed service held, since the same rule
// cut them) and the recovered state — so epoch prefixes are global log
// positions, historical queries reach behind the restart, and the
// restart replays only the log tail past the newest snapshot.
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
//     log (History::View::Replay, lazy/history.h). For t beyond the
//     watermark the answer is the epoch state — complete through the
//     watermark, with EpochInfo reporting the gap. With retain_history
//     off there is no log to find t's exact prefix in (timestamps may
//     tie), so only t at or past the newest watermark answers; a ring
//     epoch never does.
#ifndef TINPROV_SERVE_SERVICE_H_
#define TINPROV_SERVE_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analytics/registry.h"
#include "core/buffer.h"
#include "core/tin.h"
#include "core/types.h"
#include "lazy/history.h"
#include "parallel/sharded_ingest.h"
#include "serve/query.h"
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
/// tracker and its retained history from the recovered state (see the
/// file comment), then keeps the directory current: every applied
/// micro-batch lands in the segment log, and each snapshot the
/// service's log-volume rule cuts becomes a snap-*.snap file. A restart
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
  /// older epoch costs only the leaves and answers its successors
  /// replaced.
  size_t ring_size = 4;
  /// StreamIngestor micro-batch size for the writer.
  size_t ingest_batch = 1024;
  /// Retain the ingested log (chunked) and the snapshot images the
  /// log-volume rule cuts, so Provenance(v, t) can delta-replay to
  /// arbitrary past times — behind a durable restart too, which seeds
  /// both from recovery. With retention off, standing memory stops
  /// growing with the stream (a restart keeps neither the recovered log
  /// nor its snapshots), and Provenance(v, t) answers only t at or past
  /// the newest watermark (the latest epoch): without the log a ring
  /// epoch cannot be matched to t exactly at timestamp ties, so every
  /// earlier t returns FailedPrecondition.
  bool retain_history = true;

  /// Used by Catchup(): the ShardedIngestEngine layout
  /// (parallel/sharded_ingest.h). num_threads counts shard workers,
  /// which run beside the calling thread that pulls the stream; 0 =
  /// max(nproc, 2) - 1. A layout that resolves to fewer than 2 workers
  /// (or a spec that does not decompose) loads sequentially instead.
  ParallelParams catchup;

  // --- Ops plane (EnableOpsServer / the slow-query log) ------------------

  /// Execute() queries slower than this land in the
  /// process-wide SlowQueryLog (/tracez?slow=1 on the ops server).
  /// 0 disables recording; ids are stamped either way.
  int64_t slow_query_ns = 1'000'000;  // 1 ms

  /// /healthz thresholds, wired when EnableOpsServer runs. Age applies
  /// only while ingest is live (a drained service is never stale);
  /// infinite limits report their value but never trip.
  double health_max_epoch_age_s = 60.0;
  double health_max_watermark_lag = std::numeric_limits<double>::infinity();
  double health_max_alpha_residue = std::numeric_limits<double>::infinity();

  /// EnableOpsServer's metrics recorder sampling period. Its ring holds
  /// the most recent 512 samples.
  int64_t ops_recorder_interval_ms = 250;

  // --- Durability (storage/ layer) ---------------------------------------

  /// Off (empty dir) by default. See DurabilityOptions.
  DurabilityOptions durability;
};

class ProvenanceService {
 public:
  /// A service for `spec` over a dataset of shape `stats`, starting
  /// from empty state — or, with durability on, from whatever the
  /// directory recovers to. The spec must be TrackerMode::kStreaming —
  /// the service only ever sees a stream.
  static StatusOr<std::unique_ptr<ProvenanceService>> Create(
      const TrackerSpec& spec, const DatasetStats& stats,
      ServeOptions options = {});

  /// Stops ingest (joins the writer) and the ops plane.
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
  /// Windowed, Selective, Grouped) at 2 or more shard workers take the
  /// engine's label-sharded arm, in which the live tracker replays as
  /// shard 0 and then adopts the other shards' lists; every other spec
  /// and every layout below 2 workers runs a StreamIngestor on the
  /// calling thread — the writer's own loop, minus the per-interval
  /// epochs. Both arms leave the live tracker bit-identical (SaveState
  /// bytes included) to a sequential ingest; the serve.catchup_workers
  /// gauge says which one ran (0 = sequential). Must run before Start(), at most once (a failed
  /// catchup may leave a partial prefix applied, so the service then
  /// refuses both a second Catchup() and Start() and must be
  /// discarded), and with durability off (the catchup batches would
  /// bypass the durable log).
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
  /// notes above for how t relates to the retained log and the epoch
  /// watermark.
  QueryResult Provenance(VertexId v, Timestamp t) const;

  /// The k origins contributing the most quantity to v's buffer at the
  /// newest epoch, sorted by quantity descending (origin id ascending
  /// on ties, so results are deterministic). buffer.total remains the
  /// full buffered quantity.
  QueryResult TopOrigins(VertexId v, size_t k) const;

  /// Executes any request, stamping its query id and recording its
  /// latency and, past slow_query_ns, a slow-query log entry.
  QueryResult Execute(const QueryRequest& request) const;

  /// Identity of the newest published epoch.
  EpochInfo LatestEpoch() const;

  size_t num_vertices() const { return stats_.num_vertices; }

  // --- Ops plane ---------------------------------------------------------

  /// Starts the embedded ops endpoint on 127.0.0.1:`port` (0 picks an
  /// ephemeral port; the bound port is returned). Wires the whole
  /// plane: the service-aware /statusz page, a metrics Recorder
  /// sampling at ops_recorder_interval_ms, and the health checks
  /// (serve.epoch_age, ingest.watermark_lag, trace.drops,
  /// tracker.alpha_residue, and storage.* with durability on) against
  /// the ServeOptions thresholds. One ops server per service;
  /// FailedPrecondition when already enabled.
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
  class AnswerStore;  // service.cc: owns and reclaims published answers
  class AnswerTable;  // service.cc: one epoch's path-copied answers
  struct EpochView;   // service.cc: the immutable published state

  ProvenanceService(ShardedSpec spec, const DatasetStats& stats,
                    const ServeOptions& options);

  /// Builds and publishes epoch 0 from the recovered state (empty when
  /// durability is off or the directory is new) and seeds the retained
  /// history with it.
  Status Init(storage::RecoveredState recovered);

  /// Writer body: drains stream_, publishing epochs along the way.
  Status RunIngest();

  /// Writer (via LogSink): marks the pulled interaction's endpoints as
  /// changed and appends it to the history.
  void AppendLog(const Interaction& interaction);

  /// Writer: publishes the current live-tracker state as a new epoch,
  /// re-reading only the changed vertices, and cuts a snapshot when the
  /// history's log-volume rule says one is due (and snapshots are kept
  /// at all: with history retention or durability on).
  Status PublishEpoch(size_t prefix, Timestamp watermark);

  /// Writer: frees the answers no live table reaches any more and
  /// publishes the bytes still awaiting reclamation
  /// (memory.serve_retired_answer_bytes).
  void ReclaimAnswers();

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
  /// Watermark the live ingest must resume at or above: the recovered
  /// watermark, raised by Catchup() to the catchup watermark.
  Timestamp resume_watermark_ = std::numeric_limits<Timestamp>::lowest();

  // Writer-owned after Start() (and during Init).
  std::unique_ptr<Tracker> live_tracker_;
  std::unique_ptr<InteractionStream> stream_;
  /// Durable log, or null when ServeOptions::durability is off. Written
  /// by the writer thread; other threads observe it through the
  /// storage.* gauges only.
  std::unique_ptr<storage::DurableLog> durable_;
  class LogSink;  // service.cc: tee stream appending into history_
  /// The retained log and snapshots (empty with retain_history off,
  /// when it only runs the snapshot rule).
  History history_;
  /// Interactions applied before the writer's own ingest begins — the
  /// recovered prefix plus Catchup()'s count. Epoch prefixes offset by
  /// it, so they are global log positions indexing the retained log.
  size_t prefix_base_ = 0;
  /// Vertices changed since the last publish (each once: changed_mark_
  /// flags membership, indexed by vertex).
  std::vector<VertexId> changed_;
  std::vector<uint8_t> changed_mark_;
  /// live_tracker_->WideChanges() as of the last publish.
  uint64_t published_wide_changes_ = 0;
  uint64_t next_seq_ = 0;
  Stopwatch since_publish_;  // serve.epoch_age_ns at publish time

  /// Every published answer and the registry of live answer tables.
  /// Declared before latest_ so that it outlives every table.
  std::unique_ptr<AnswerStore> answers_;
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
