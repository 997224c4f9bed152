#include "serve/service.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <utility>

#include "obs/health.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/slowlog.h"
#include "obs/trace.h"
#include "parallel/scheduler.h"
#include "parallel/sharded_ingest.h"
#include "util/cpu.h"

namespace tinprov {

namespace {

bool TopOriginOrder(const ProvPair& a, const ProvPair& b) {
  if (a.quantity != b.quantity) return a.quantity > b.quantity;
  return a.origin < b.origin;
}

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kProvenance:
      return "provenance";
    case QueryKind::kProvenanceAt:
      return "provenance_at";
    case QueryKind::kTopOrigins:
      return "top_origins";
  }
  return "unknown";
}

std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<VertexId> AllVertices(size_t num_vertices) {
  std::vector<VertexId> all(num_vertices);
  std::iota(all.begin(), all.end(), VertexId{0});
  return all;
}

/// One published answer: a vertex's Buffer as of table `first_seq`,
/// the first table that reaches it. Written once, before publication.
struct Answer {
  Buffer buffer;
  uint64_t first_seq = 0;
};

/// The answer every vertex with empty state points at.
const Answer kEmptyAnswer;

}  // namespace

/// The writer-side owner of every published answer, with epoch-based
/// reclamation (Fraser, "Practical lock-freedom", 2004; McKenney's RCU)
/// deciding when one may go. The newest table's answers are live: the
/// store allocates them and holds them through that table's leaves
/// (the service's destructor frees them with DeleteAnswers). An answer
/// a publish replaces is retired with the range of table seqs that can
/// reach it: from its first_seq to the seq before the table that
/// replaced it. Every AnswerTable registers its seq for as long as
/// it lives, so a retired answer is freed — by the writer, never by a
/// reader — at the first Reclaim() after no live table's seq falls
/// inside its range. A reader pinning an old view thus holds exactly
/// the answers that view can reach.
class ProvenanceService::AnswerStore {
 public:
  /// Any thread: the lifetime of table `seq` (its constructor and
  /// destructor; the last reference to a table may be a reader's).
  void Register(uint64_t seq) {
    const std::lock_guard<std::mutex> lock(mu_);
    live_seqs_.insert(seq);
  }
  void Unregister(uint64_t seq) {
    const std::lock_guard<std::mutex> lock(mu_);
    live_seqs_.erase(live_seqs_.find(seq));
  }

  /// Writer: `answer` replaces `old` from table `seq` on. Retires `old`;
  /// returns what the new table's leaf points at.
  const Answer* Install(const Answer* old, Buffer answer, uint64_t seq) {
    if (old != &kEmptyAnswer) {
      const size_t bytes =
          sizeof(Answer) + old->buffer.entries.capacity() * sizeof(ProvPair);
      retired_bytes_ += bytes;
      retired_.push_back(
          {std::unique_ptr<const Answer>(old), old->first_seq, seq - 1, bytes});
    }
    if (answer.entries.empty() && answer.total == 0.0 &&
        !std::signbit(answer.total)) {
      return &kEmptyAnswer;
    }
    return new Answer{std::move(answer), seq};
  }

  /// Writer: frees every retired answer no live table can reach, and
  /// returns the bytes of those still awaiting reclamation.
  size_t Reclaim() {
    // Only the writer builds tables, so no seq appears while the scan
    // runs; one that disappears meanwhile only defers a free.
    std::vector<uint64_t> live;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      live.assign(live_seqs_.begin(), live_seqs_.end());
    }
    size_t kept = 0;
    for (Retired& retired : retired_) {
      const auto it =
          std::lower_bound(live.begin(), live.end(), retired.first_seq);
      if (it != live.end() && *it <= retired.last_seq) {
        retired_[kept++] = std::move(retired);
      } else {
        retired_bytes_ -= retired.bytes;
      }
    }
    retired_.resize(kept);
    return retired_bytes_;
  }

 private:
  /// The scan reads only these records, never the answers they own.
  struct Retired {
    std::unique_ptr<const Answer> answer;
    uint64_t first_seq;
    uint64_t last_seq;
    size_t bytes;
  };

  std::mutex mu_;
  std::multiset<uint64_t> live_seqs_;  // guarded by mu_

  // Writer-only.
  std::vector<Retired> retired_;
  size_t retired_bytes_ = 0;
};

/// One epoch's answers: Provenance(v) of every vertex, held as a
/// persistent two-level trie of plain pointers to the AnswerStore's
/// immutable answers — kFanout pointers per leaf, kFanout leaves per
/// branch (Bagwell's path-copied vectors). A successor is path-copied
/// from its predecessor: only the leaves holding a changed vertex, and
/// the branches above them, are new; every other leaf and branch is
/// shared. Copying a leaf is a flat copy of its pointers, with no
/// reference count to touch.
class ProvenanceService::AnswerTable {
 public:
  static constexpr size_t kFanoutBits = 6;
  static constexpr size_t kFanout = size_t{1} << kFanoutBits;
  static constexpr size_t kMask = kFanout - 1;

  /// Table `seq` in which every vertex answers the empty buffer.
  AnswerTable(size_t num_vertices, uint64_t seq, AnswerStore* store)
      : AnswerTable(seq, store) {
    auto leaf = std::make_shared<Leaf>();
    leaf->fill(&kEmptyAnswer);
    auto branch = std::make_shared<Branch>();
    branch->fill(std::move(leaf));
    const size_t per_branch = kFanout * kFanout;
    branches_.assign((num_vertices + per_branch - 1) / per_branch,
                     std::move(branch));
  }

  ~AnswerTable() { store_->Unregister(seq_); }

  AnswerTable(const AnswerTable&) = delete;
  AnswerTable& operator=(const AnswerTable&) = delete;

  const Buffer& At(VertexId v) const {
    const Branch& branch = *branches_[v >> (2 * kFanoutBits)];
    return (*branch[(v >> kFanoutBits) & kMask])[v & kMask]->buffer;
  }

  /// Frees the answers this table points at. Only for the newest table
  /// once nothing reads it: its answers are the live ones, which no
  /// retired record owns. Each sits in exactly one slot, since only the
  /// all-empty initial leaf is shared between positions.
  void DeleteAnswers() const {
    for (const auto& branch : branches_) {
      for (const auto& leaf : *branch) {
        for (const Answer* answer : *leaf) {
          if (answer != &kEmptyAnswer) delete answer;
        }
      }
    }
  }

  /// Table `seq`, a successor in which each vertex of `changed`
  /// (ascending, distinct) answers answer(v), installed in the store.
  template <typename AnswerFn>
  std::shared_ptr<const AnswerTable> With(const std::vector<VertexId>& changed,
                                          uint64_t seq,
                                          const AnswerFn& answer) const {
    std::shared_ptr<AnswerTable> next(new AnswerTable(seq, store_));
    next->branches_ = branches_;
    size_t i = 0;
    while (i < changed.size()) {
      const size_t b = changed[i] >> (2 * kFanoutBits);
      auto branch = std::make_shared<Branch>(*next->branches_[b]);
      while (i < changed.size() && (changed[i] >> (2 * kFanoutBits)) == b) {
        const size_t leaf_index = changed[i] >> kFanoutBits;
        auto leaf = std::make_shared<Leaf>(*(*branch)[leaf_index & kMask]);
        for (; i < changed.size() && (changed[i] >> kFanoutBits) == leaf_index;
             ++i) {
          const Answer*& slot = (*leaf)[changed[i] & kMask];
          slot = store_->Install(slot, answer(changed[i]), seq);
        }
        (*branch)[leaf_index & kMask] = std::move(leaf);
      }
      next->branches_[b] = std::move(branch);
    }
    return next;
  }

 private:
  using Leaf = std::array<const Answer*, kFanout>;
  using Branch = std::array<std::shared_ptr<const Leaf>, kFanout>;

  AnswerTable(uint64_t seq, AnswerStore* store) : seq_(seq), store_(store) {
    store_->Register(seq_);
  }

  uint64_t seq_;
  AnswerStore* store_;
  std::vector<std::shared_ptr<const Branch>> branches_;
};

/// The immutable state one atomic publish makes visible. Readers pin a
/// view with atomic_load and may then use everything it references for
/// as long as they hold the shared_ptr; the writer never mutates a
/// published view, it builds a successor and swaps the pointer.
struct ProvenanceService::EpochView {
  struct Epoch {
    EpochInfo info;
    std::shared_ptr<const AnswerTable> table;
  };

  /// Recent epochs, oldest first; back() is the newest and always
  /// present (epoch 0 is published before any reader exists).
  std::vector<std::shared_ptr<const Epoch>> ring;

  /// The retained history as of this publish: the log through
  /// ring.back()->info.prefix and the snapshots cut so far, for
  /// nearest-snapshot + delta-replay historical queries. Empty when
  /// history retention is off.
  History::View history;

  const Epoch& Latest() const { return *ring.back(); }
};

/// Tee stream the writer wraps its source in: every pulled interaction
/// is appended to the service's history before the ingestor sees it,
/// so the published log prefix always covers the applied prefix.
class ProvenanceService::LogSink : public InteractionStream {
 public:
  LogSink(ProvenanceService* service, InteractionStream* inner)
      : service_(service), inner_(inner) {}

  bool Next(Interaction* out) override {
    if (!inner_->Next(out)) return false;
    service_->AppendLog(*out);
    return true;
  }

  DatasetStats Stats() const override { return inner_->Stats(); }

 private:
  ProvenanceService* service_;
  InteractionStream* inner_;
};

StatusOr<std::unique_ptr<ProvenanceService>> ProvenanceService::Create(
    const TrackerSpec& spec, const DatasetStats& stats, ServeOptions options) {
  // The sharded description carries the sequential factory too (the
  // identical closure Factory() returns), plus what Catchup needs to
  // shard a label-linear spec.
  auto sharded = TrackerRegistry::Global().Sharded(spec, stats);
  if (!sharded.ok()) return sharded.status();
  std::unique_ptr<ProvenanceService> service(
      new ProvenanceService(*std::move(sharded), stats, options));

  // Durability: recover whatever the directory holds — the service's
  // history and live state resume from it — and open the log for
  // appending at the recovered position.
  storage::RecoveredState recovered;
  if (options.durability.Enabled()) {
    storage::Env* env = options.durability.env != nullptr
                            ? options.durability.env
                            : storage::Env::Posix();
    if (options.durability.recover) {
      storage::RecoveryManager manager(env, options.durability.dir);
      auto result = manager.Recover(service->spec_.sequential);
      if (!result.ok()) return result.status();
      recovered = *std::move(result);
    }
    auto log = storage::DurableLog::Open(env, options.durability.dir,
                                         recovered.prefix, recovered.next_seq,
                                         options.durability.log);
    if (!log.ok()) return log.status();
    service->durable_ = *std::move(log);
  }
  const Status status = service->Init(std::move(recovered));
  if (!status.ok()) return status;
  return service;
}

ProvenanceService::ProvenanceService(ShardedSpec spec,
                                     const DatasetStats& stats,
                                     const ServeOptions& options)
    : spec_(std::move(spec)),
      stats_(stats),
      options_(options),
      history_(options.retain_history),
      answers_(std::make_unique<AnswerStore>()) {
  if (options_.epoch_interval == 0) options_.epoch_interval = 1;
  if (options_.ring_size == 0) options_.ring_size = 1;
  if (options_.ingest_batch == 0) options_.ingest_batch = 1;
  pool_ = std::make_unique<QueryWorkerPool>(
      [this](const QueryRequest& request) { return Execute(request); },
      options_.num_query_threads);
}

ProvenanceService::~ProvenanceService() {
  // The ops plane reads `this` from its accept thread; take it down
  // before the state it snapshots goes away.
  DisableOpsServer();
  // Workers execute through `this`; stop them before anything else.
  pool_.reset();
  if (writer_.joinable()) writer_.join();
  // The store owns the retired answers; the live ones go with the
  // newest table.
  if (latest_ != nullptr) latest_->Latest().table->DeleteAnswers();
}

Status ProvenanceService::Init(storage::RecoveredState recovered) {
  live_tracker_ = spec_.sequential();
  if (live_tracker_ == nullptr) {
    return Status::Internal("tracker factory returned null");
  }
  auto state = std::make_shared<std::vector<uint8_t>>();
  if (recovered.prefix > 0) {
    *state = std::move(recovered.state);
    const Status status = live_tracker_->RestoreState(*state);
    if (!status.ok()) {
      return Status(status.code(),
                    "restoring the recovered state into the live tracker: " +
                        status.message());
    }
  } else {
    live_tracker_->SaveState(state.get());
  }
  live_tracker_->ReserveHint({stats_.num_vertices, stats_.num_interactions});
  changed_mark_.assign(stats_.num_vertices, 0);
  published_wide_changes_ = live_tracker_->WideChanges();
  // Epoch prefixes are global log positions: a restart continues at the
  // recovered one, and the recovered state is the last snapshot so far.
  prefix_base_ = recovered.prefix;
  resume_watermark_ = recovered.watermark;

  // Epoch 0: the pre-ingest state, published before any reader or the
  // writer exists, so latest_ is never null and plain stores suffice.
  auto epoch = std::make_shared<EpochView::Epoch>();
  epoch->info.seq = next_seq_++;
  epoch->info.prefix = recovered.prefix;
  epoch->info.watermark = recovered.watermark;
  // A fresh tracker buffers nothing: every vertex starts empty.
  epoch->table = std::make_shared<const AnswerTable>(
      stats_.num_vertices, epoch->info.seq, answers_.get());
  if (recovered.prefix > 0) {
    epoch->table = epoch->table->With(
        AllVertices(stats_.num_vertices), epoch->info.seq,
        [this](VertexId v) { return live_tracker_->Provenance(v); });
  }

  // The retained history resumes from the recovered one: the trusted log
  // at its global positions, the on-disk snapshots (cut by the same
  // log-volume rule, so the ones the crashed service held) and the
  // recovered state itself.
  history_.Seed(recovered.log, std::move(recovered.snapshots),
                {recovered.prefix, std::move(state)});
  auto view = std::make_shared<EpochView>();
  view->ring.push_back(std::move(epoch));
  view->history = history_.Publish();
  latest_ = std::move(view);
  last_publish_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  return Status::Ok();
}

void ProvenanceService::AppendLog(const Interaction& interaction) {
  // The endpoints are the only vertices Process() changes (barring a
  // WideChanges() move, which PublishEpoch checks for itself). Ids out
  // of range are left for the tracker to reject.
  for (const VertexId v : {interaction.src, interaction.dst}) {
    if (v < changed_mark_.size() && changed_mark_[v] == 0) {
      changed_mark_[v] = 1;
      changed_.push_back(v);
    }
  }
  history_.Append(interaction);
}

Status ProvenanceService::PublishEpoch(size_t prefix, Timestamp watermark) {
  TINPROV_SCOPED_LATENCY_NS("serve.snapshot_publish_ns");
  obs::TraceSpan span("serve.publish_epoch", "serve");

  // Re-read only what changed since the last publish: the endpoints the
  // log sink saw, or every vertex when the tracker reports a wide change.
  const uint64_t wide_changes = live_tracker_->WideChanges();
  std::vector<VertexId> changed;
  if (wide_changes != published_wide_changes_) {
    published_wide_changes_ = wide_changes;
    changed = AllVertices(stats_.num_vertices);
    std::fill(changed_mark_.begin(), changed_mark_.end(), 0);
    changed_.clear();
  } else {
    changed.swap(changed_);
    std::sort(changed.begin(), changed.end());
    for (const VertexId v : changed) changed_mark_[v] = 0;
  }
  TINPROV_HISTOGRAM_OBSERVE("serve.publish_dirty_vertices", changed.size());

  // Build the successor view from the current one. The writer is the
  // only publisher, so reading the previous view is race-free; readers
  // keep pinning the old view until the store below.
  std::shared_ptr<const EpochView> prev = PinView();
  auto epoch = std::make_shared<EpochView::Epoch>();
  epoch->info.seq = next_seq_++;
  epoch->info.prefix = prefix;
  epoch->info.watermark = watermark;
  epoch->table = prev->Latest().table->With(
      changed, epoch->info.seq,
      [this](VertexId v) { return live_tracker_->Provenance(v); });

  auto view = std::make_shared<EpochView>();
  view->ring = prev->ring;
  view->ring.push_back(std::move(epoch));
  while (view->ring.size() > options_.ring_size) {
    view->ring.erase(view->ring.begin());
  }
  std::shared_ptr<std::vector<uint8_t>> image;
  if ((options_.retain_history || durable_ != nullptr) &&
      history_.SnapshotDue(prefix)) {
    image = std::make_shared<std::vector<uint8_t>>();
    live_tracker_->SaveState(image.get());
    history_.Cut(prefix, image);
    TINPROV_COUNTER_ADD("serve.snapshots_taken", 1);
  }
  view->history = history_.Publish();
  std::atomic_store_explicit(&latest_,
                             std::shared_ptr<const EpochView>(std::move(view)),
                             std::memory_order_release);
  // Unpinned, the epochs that fell off the ring die unless a reader
  // still holds them, and the answers only they reached can go.
  prev.reset();
  ReclaimAnswers();

  TINPROV_COUNTER_ADD("serve.epochs_published", 1);
  TINPROV_HISTOGRAM_OBSERVE("serve.epoch_age_ns",
                            since_publish_.ElapsedNanos());
  since_publish_.Restart();
  last_publish_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  TINPROV_GAUGE_SET("serve.epoch_seq", next_seq_ - 1);
  TINPROV_GAUGE_SET("serve.epoch_prefix", prefix);

  // Snapshot taken → persisted at its log position.
  // WriteSnapshot syncs the segment log first, so a snapshot on disk is
  // always backed by a durable log at least as long. Under kFailStop an
  // error surfaces as the ingest status; under kDegrade the log
  // absorbed it and flipped the storage.durability health check.
  if (durable_ != nullptr && image != nullptr) {
    const Status durable_status =
        durable_->WriteSnapshot(prefix, watermark, *image);
    if (!durable_status.ok()) return durable_status;
  }
  return Status::Ok();
}

namespace {

/// BatchSink adapter: applied micro-batches flow into the durable log.
class DurableBatchSink : public BatchSink {
 public:
  explicit DurableBatchSink(storage::DurableLog* log) : log_(log) {}

  Status OnBatch(const Interaction* batch, size_t count) override {
    return log_->Append(batch, count);
  }

 private:
  storage::DurableLog* log_;
};

}  // namespace

void ProvenanceService::ReclaimAnswers() {
  TINPROV_GAUGE_SET("memory.serve_retired_answer_bytes", answers_->Reclaim());
}

Status ProvenanceService::RunIngest() {
  obs::TraceSpan span("serve.ingest", "serve");
  LogSink sink(this, stream_.get());
  DurableBatchSink durable_sink(durable_.get());
  IngestOptions ingest_options;
  ingest_options.batch_size = std::min(options_.ingest_batch,
                                       options_.epoch_interval);
  ingest_options.initial_watermark = resume_watermark_;
  if (durable_ != nullptr) ingest_options.sink = &durable_sink;
  StreamIngestor ingestor(live_tracker_.get(), ingest_options);

  size_t last_published = 0;
  bool done = false;
  while (!done) {
    Status status = ingestor.IngestBatch(sink, &done);
    if (!status.ok()) {
      final_ingest_stats_ = ingestor.stats();
      return status;
    }
    const IngestStats& stats = ingestor.stats();
    if (stats.interactions - last_published >= options_.epoch_interval) {
      last_published = stats.interactions;
      status = PublishEpoch(prefix_base_ + stats.interactions,
                            std::max(stats.watermark, resume_watermark_));
      if (!status.ok()) {
        final_ingest_stats_ = stats;
        return status;
      }
    }
  }
  final_ingest_stats_ = ingestor.stats();
  if (final_ingest_stats_.interactions != last_published) {
    // Final epoch: every applied interaction visible to readers.
    const Status status = PublishEpoch(
        prefix_base_ + final_ingest_stats_.interactions,
        std::max(final_ingest_stats_.watermark, resume_watermark_));
    if (!status.ok()) return status;
  }
  if (durable_ != nullptr) {
    // Clean drain: footer + fsync, so the next recovery reads a sealed
    // segment instead of trusting-then-truncating an open tail.
    const Status status = durable_->Seal();
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Status ProvenanceService::Catchup(std::unique_ptr<InteractionStream> stream) {
  if (stream == nullptr) {
    return Status::InvalidArgument("null catchup stream");
  }
  if (started_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("catchup must run before Start()");
  }
  if (caught_up_) {
    return Status::FailedPrecondition("service already caught up");
  }
  if (durable_ != nullptr) {
    return Status::FailedPrecondition(
        "catchup bypasses the durable log — run it with durability off and "
        "seed the directory separately");
  }
  obs::TraceSpan span("serve.catchup", "serve");

  // Set before ingesting: a failed catchup may leave a partial prefix
  // in the live tracker, so it must never be retried.
  caught_up_ = true;
  // The tee keeps the retained log covering the catchup range, so
  // historical delta replays work across it. This thread pulls it and
  // owns the writer-side state until Start().
  LogSink sink(this, stream.get());
  IngestOptions ingest;
  ingest.batch_size = std::min(options_.ingest_batch, options_.epoch_interval);
  ingest.initial_watermark = resume_watermark_;
  const ShardedIngestEngine engine(stats_, spec_, options_.catchup, ingest);
  TINPROV_GAUGE_SET("serve.catchup_workers", engine.ResolvedWorkers());
  auto loaded = engine.IngestInto(sink, live_tracker_.get());
  if (!loaded.ok()) {
    catchup_failed_ = true;
    return loaded.status();
  }
  catchup_stats_ = loaded->stats;

  prefix_base_ += catchup_stats_.interactions;
  resume_watermark_ = std::max(resume_watermark_, catchup_stats_.watermark);
  TINPROV_COUNTER_ADD("serve.catchup_interactions",
                      catchup_stats_.interactions);
  // Readers see the caught-up state the moment this returns.
  return PublishEpoch(prefix_base_, resume_watermark_);
}

Status ProvenanceService::Start(std::unique_ptr<InteractionStream> stream) {
  if (stream == nullptr) {
    return Status::InvalidArgument("null ingest stream");
  }
  if (catchup_failed_) {
    return Status::FailedPrecondition(
        "a failed catchup left a partial prefix applied — discard the "
        "service");
  }
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("service already started");
  }
  stream_ = std::move(stream);
  since_publish_.Restart();
  writer_ = std::thread([this] {
    ingest_status_ = RunIngest();
    // Readers that pinned the last epochs may have let them go since.
    ReclaimAnswers();
    ingest_done_.store(true, std::memory_order_release);
  });
  return Status::Ok();
}

Status ProvenanceService::WaitIngest() {
  if (!started_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("service not started");
  }
  if (writer_.joinable()) writer_.join();
  ingest_joined_ = true;
  return ingest_status_;
}

EpochInfo ProvenanceService::LatestEpoch() const {
  return PinView()->Latest().info;
}

QueryResult ProvenanceService::Provenance(VertexId v) const {
  TINPROV_SCOPED_LATENCY_NS("serve.query_ns");
  TINPROV_COUNTER_ADD("serve.queries", 1);
  QueryResult result;
  const std::shared_ptr<const EpochView> view = PinView();
  const EpochView::Epoch& epoch = view->Latest();
  result.epoch = epoch.info;
  if (v >= stats_.num_vertices) {
    result.status = Status::InvalidArgument("query vertex " +
                                            std::to_string(v) +
                                            " out of range");
    return result;
  }
  result.buffer = epoch.table->At(v);
  return result;
}

QueryResult ProvenanceService::TopOrigins(VertexId v, size_t k) const {
  TINPROV_SCOPED_LATENCY_NS("serve.query_ns");
  TINPROV_COUNTER_ADD("serve.queries", 1);
  QueryResult result;
  const std::shared_ptr<const EpochView> view = PinView();
  const EpochView::Epoch& epoch = view->Latest();
  result.epoch = epoch.info;
  if (v >= stats_.num_vertices) {
    result.status = Status::InvalidArgument("query vertex " +
                                            std::to_string(v) +
                                            " out of range");
    return result;
  }
  const Buffer& buffer = epoch.table->At(v);
  result.buffer.total = buffer.total;
  std::vector<ProvPair>& top = result.buffer.entries;
  if (k >= buffer.entries.size()) {
    top = buffer.entries;
    std::sort(top.begin(), top.end(), TopOriginOrder);
    return result;
  }
  // One pass over the shared answer keeping the k best in a heap whose
  // front is the worst kept, so a hub's list is neither copied nor
  // sorted whole. TopOriginOrder is a strict total order (origins are
  // unique within a list), so the result is the unique top k.
  top.reserve(k);
  for (const ProvPair& entry : buffer.entries) {
    if (top.size() < k) {
      top.push_back(entry);
      std::push_heap(top.begin(), top.end(), TopOriginOrder);
    } else if (k > 0 && TopOriginOrder(entry, top.front())) {
      std::pop_heap(top.begin(), top.end(), TopOriginOrder);
      top.back() = entry;
      std::push_heap(top.begin(), top.end(), TopOriginOrder);
    }
  }
  std::sort_heap(top.begin(), top.end(), TopOriginOrder);
  return result;
}

QueryResult ProvenanceService::Provenance(VertexId v, Timestamp t) const {
  TINPROV_SCOPED_LATENCY_NS("serve.query_ns");
  TINPROV_COUNTER_ADD("serve.queries", 1);
  return ProvenanceAt(v, t);
}

QueryResult ProvenanceService::ProvenanceAt(VertexId v, Timestamp t) const {
  QueryResult result;
  const std::shared_ptr<const EpochView> view = PinView();
  const EpochView::Epoch& latest = view->Latest();
  result.epoch = latest.info;
  if (v >= stats_.num_vertices) {
    result.status = Status::InvalidArgument("query vertex " +
                                            std::to_string(v) +
                                            " out of range");
    return result;
  }

  // t at or past the epoch watermark resolves to the full published
  // prefix, i.e. the latest epoch itself — the fast path.
  const size_t target =
      options_.retain_history
          ? view->history.UpperBound(t)
          : (t >= latest.info.watermark ? latest.info.prefix
                                        : latest.info.prefix + 1);
  if (target == latest.info.prefix) {
    result.buffer = latest.table->At(v);
    return result;
  }

  // Exact-prefix hit in the ring: some recent epoch is the wanted state.
  for (const std::shared_ptr<const EpochView::Epoch>& epoch : view->ring) {
    if (epoch->info.prefix == target) {
      result.buffer = epoch->table->At(v);
      result.epoch = epoch->info;
      return result;
    }
  }

  if (!options_.retain_history) {
    result.status = Status::FailedPrecondition(
        "historical query at t=" + std::to_string(t) +
        " needs history retention (ServeOptions::retain_history)");
    return result;
  }

  // Nearest retained snapshot at or before the target, then delta
  // replay of the pinned log.
  TINPROV_COUNTER_ADD("serve.historical_replays", 1);
  TINPROV_SCOPED_LATENCY_NS("serve.historical_replay_ns");
  size_t replayed = 0;
  auto tracker = view->history.Replay(spec_.sequential, target, &replayed);
  if (!tracker.ok()) {
    result.status = tracker.status();
    return result;
  }
  TINPROV_HISTOGRAM_OBSERVE("serve.delta_interactions", replayed);
  result.replayed_interactions = replayed;
  result.buffer = (*tracker)->Provenance(v);
  return result;
}

QueryResult ProvenanceService::Dispatch(const QueryRequest& request) const {
  switch (request.kind) {
    case QueryKind::kProvenance:
      return Provenance(request.v);
    case QueryKind::kProvenanceAt:
      return Provenance(request.v, request.t);
    case QueryKind::kTopOrigins:
      return TopOrigins(request.v, request.k);
  }
  QueryResult result;
  result.status = Status::InvalidArgument("unknown query kind");
  return result;
}

QueryResult ProvenanceService::Execute(const QueryRequest& request) const {
  obs::SlowQueryLog& log = obs::SlowQueryLog::Global();
  const uint64_t id = log.NextQueryId();
  const Stopwatch watch;
  QueryResult result = Dispatch(request);
  result.query_id = id;
  const int64_t latency_ns = watch.ElapsedNanos();
  if (options_.slow_query_ns > 0 && latency_ns >= options_.slow_query_ns) {
    obs::SlowQueryRecord record;
    record.query_id = id;
    record.kind = QueryKindName(request.kind);
    record.vertex = request.v;
    record.latency_ns = latency_ns;
    record.replayed_interactions = result.replayed_interactions;
    record.epoch_seq = result.epoch.seq;
    record.epoch_prefix = result.epoch.prefix;
    log.Record(record);
    TINPROV_COUNTER_ADD("serve.slow_queries", 1);
  }
  return result;
}

std::future<QueryResult> ProvenanceService::Submit(QueryRequest request) {
  return pool_->Submit(request);
}

double ProvenanceService::EpochAgeSeconds() const {
  const int64_t last = last_publish_ns_.load(std::memory_order_relaxed);
  if (last == 0) return 0.0;  // Init hasn't published epoch 0 yet
  return static_cast<double>(SteadyNowNs() - last) / 1e9;
}

std::string ProvenanceService::StatuszJson() const {
  // The epoch block is read the way a query reads it — one pinned view —
  // so the page is consistent with what any concurrent reader sees.
  const std::shared_ptr<const EpochView> view = PinView();
  const EpochInfo epoch = view->Latest().info;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::SlowQueryLog& slow = obs::SlowQueryLog::Global();

  std::string out = "{\"service\":{\"uptime_s\":";
  out += JsonDouble(uptime_.ElapsedSeconds());
  out += ",\"num_vertices\":" + std::to_string(stats_.num_vertices);
  out += ",\"query_threads\":" + std::to_string(pool_->num_threads());
  out += "},\"epoch\":{\"seq\":" + std::to_string(epoch.seq);
  out += ",\"prefix\":" + std::to_string(epoch.prefix);
  out += ",\"watermark\":" + JsonDouble(epoch.watermark);
  out += ",\"age_s\":" + JsonDouble(EpochAgeSeconds());
  // Publish cost follows the vertices changed per epoch, not |V|.
  const obs::Histogram* dirty =
      registry.GetHistogram("serve.publish_dirty_vertices");
  out += "},\"publish\":{\"count\":" + std::to_string(dirty->Count());
  out += ",\"dirty_vertices_p50\":" + JsonDouble(dirty->Percentile(0.5));
  out += ",\"dirty_vertices_p99\":" + JsonDouble(dirty->Percentile(0.99));
  const obs::Histogram* publish_ns =
      registry.GetHistogram("serve.snapshot_publish_ns");
  out += ",\"publish_ns_p50\":" + JsonDouble(publish_ns->Percentile(0.5));
  out += ",\"publish_ns_p99\":" + JsonDouble(publish_ns->Percentile(0.99));
  out += ",\"snapshots_taken\":" +
         std::to_string(registry.GetCounter("serve.snapshots_taken")->Value());
  out += "},\"ingest\":{\"done\":";
  out += IngestDone() ? "true" : "false";
  out += ",\"watermark\":" +
         JsonDouble(registry.GetGauge("ingest.watermark")->Value());
  out += ",\"watermark_lag\":" +
         JsonDouble(registry.GetGauge("ingest.watermark_lag")->Value());
  out += ",\"interactions\":" +
         std::to_string(registry.GetCounter("ingest.interactions")->Value());
  out += ",\"catchup_workers\":" +
         JsonDouble(registry.GetGauge("serve.catchup_workers")->Value());
  out += ",\"interactions_per_s\":" +
         JsonDouble(ops_recorder_ != nullptr
                        ? ops_recorder_->Rate("ingest.interactions")
                        : 0.0);
  out += "},\"queries\":{\"executed\":" +
         std::to_string(registry.GetCounter("serve.queries")->Value());
  out += ",\"submitted\":" +
         std::to_string(registry.GetCounter("serve.queries_submitted")->Value());
  out += ",\"per_s\":" + JsonDouble(ops_recorder_ != nullptr
                                        ? ops_recorder_->Rate("serve.queries")
                                        : 0.0);
  out += ",\"slow_recorded\":" + std::to_string(slow.recorded());
  // The runtime block: which kernel table this process dispatches to
  // (fixed at startup; see util/cpu.h) and the host's width.
  out += "},\"runtime\":{\"simd\":\"";
  out += cpu::SimdLevelName(cpu::ActiveSimdLevel());
  out += "\",\"simd_detected\":\"";
  out += cpu::SimdLevelName(cpu::DetectSimdLevel());
  out += "\",\"avx512\":";
  out += cpu::DetectAvx512() ? "true" : "false";
  out += ",\"num_threads\":" + std::to_string(HardwareThreads());
  out += "},\"memory\":{\"total_bytes\":" + JsonDouble(registry.MemoryBytes());
  for (const auto& [name, value] : registry.GaugeValues()) {
    if (name.rfind("memory.", 0) != 0) continue;
    out += ",\"" + name + "\":" + JsonDouble(value);
  }
  out += "},\"storage\":{\"enabled\":";
  out += durable_ != nullptr ? "true" : "false";
  if (durable_ != nullptr) {
    // prefix/degraded come straight from DurableLog's atomics (safe
    // from this ops thread, and truthful even when TINPROV_METRICS=OFF
    // compiles the gauge mirrors away); the counters are registry-only
    // best-effort stats.
    out += ",\"durable_prefix\":" +
           std::to_string(durable_->prefix());
    out += ",\"degraded\":";
    out += durable_->degraded() ? "true" : "false";
    out += ",\"segments_sealed\":" +
           std::to_string(
               registry.GetCounter("storage.segments_sealed")->Value());
    out += ",\"snapshots_written\":" +
           std::to_string(
               registry.GetCounter("storage.snapshots_written")->Value());
    out += ",\"bytes_written\":" +
           std::to_string(registry.GetCounter("storage.bytes_written")->Value());
    out += ",\"recovered_interactions\":" +
           JsonDouble(
               registry.GetGauge("storage.recovered_interactions")->Value());
  }
  out += "},\"recorder\":{\"samples\":" +
         std::to_string(ops_recorder_ != nullptr ? ops_recorder_->num_samples()
                                                 : 0);
  out += ",\"window_s\":" +
         JsonDouble(ops_recorder_ != nullptr ? ops_recorder_->WindowSeconds()
                                             : 0.0);
  out += "}}";
  return out;
}

StatusOr<uint16_t> ProvenanceService::EnableOpsServer(uint16_t port) {
  if (ops_server_ != nullptr) {
    return Status::FailedPrecondition("ops server already enabled");
  }

  obs::RecorderOptions recorder_options;
  recorder_options.interval_ms = options_.ops_recorder_interval_ms;
  recorder_options.capacity = options_.ops_recorder_capacity;
  auto recorder = std::make_unique<obs::Recorder>(recorder_options);
  Status status = recorder->Start();
  if (!status.ok()) return status;

  // The health catalogue, thresholds from ServeOptions. Checks run on
  // the ops server's accept thread; everything they touch is either a
  // registry gauge or an atomic on `this` (torn down in
  // DisableOpsServer before `this` dies).
  obs::HealthRegistry& health = obs::HealthRegistry::Global();
  health.Register("serve.epoch_age", [this] {
    obs::HealthResult result;
    result.value = EpochAgeSeconds();
    result.healthy =
        IngestDone() || result.value <= options_.health_max_epoch_age_s;
    result.message =
        "epoch age " + std::to_string(result.value) + "s (limit " +
        std::to_string(options_.health_max_epoch_age_s) +
        (IngestDone() ? "s, ingest done)" : "s while ingesting)");
    return result;
  });
  health.Register("serve.queue_depth",
                  obs::GaugeAtMostCheck("serve.queue_depth",
                                        options_.health_max_queue_depth));
  RegisterIngestHealthChecks(health, options_.health_max_watermark_lag);
  health.Register("trace.drops", [] {
    obs::HealthResult result;
    result.value = static_cast<double>(obs::TraceSink::Global().dropped_events());
    result.healthy = result.value == 0.0;
    result.message = "trace ring dropped " +
                     std::to_string(static_cast<size_t>(result.value)) +
                     " events";
    return result;
  });
  health.Register("tracker.alpha_residue",
                  obs::GaugeAtMostCheck("tracker.alpha_residue",
                                        options_.health_max_alpha_residue));
  health_checks_ = {"serve.epoch_age", "serve.queue_depth",
                    "ingest.watermark_lag", "trace.drops",
                    "tracker.alpha_residue"};
  if (durable_ != nullptr) {
    // storage.durability: healthy while the log has not degraded to
    // memory. Reads DurableLog::degraded() (an atomic latched by the
    // ingest thread) directly rather than the gauge mirror, so the
    // check works in TINPROV_METRICS=OFF builds too; `durable_`
    // outlives the check (unregistered in DisableOpsServer).
    storage::DurableLog* log = durable_.get();
    health.Register("storage.durability", [log] {
      obs::HealthResult result;
      result.value = log->degraded() ? 1.0 : 0.0;
      result.healthy = !log->degraded();
      result.message =
          log->degraded()
              ? "log degraded to memory-only after a storage failure"
              : "appending at prefix " + std::to_string(log->prefix());
      return result;
    });
    // storage.segment_corrupt: any checksum-mismatched record seen by
    // recovery means bit rot on this disk — surface it even though
    // recovery itself carried on.
    health.Register("storage.segment_corrupt", [] {
      obs::HealthResult result;
      result.value = static_cast<double>(obs::MetricsRegistry::Global()
                                             .GetCounter(
                                                 "storage.segment_corrupt")
                                             ->Value());
      result.healthy = result.value == 0.0;
      result.message =
          "recovery saw " +
          std::to_string(static_cast<uint64_t>(result.value)) +
          " corrupt segment record(s)";
      return result;
    });
    const uint64_t min_free = options_.durability.min_free_disk_bytes;
    storage::Env* env = durable_->env();
    const std::string dir = durable_->dir();
    health.Register("storage.disk_headroom", [env, dir, min_free] {
      obs::HealthResult result;
      auto free_bytes = env->FreeDiskBytes(dir);
      result.value =
          free_bytes.ok() ? static_cast<double>(*free_bytes) : 0.0;
      result.healthy = free_bytes.ok() && *free_bytes >= min_free;
      result.message =
          free_bytes.ok()
              ? std::to_string(*free_bytes) + " bytes free (floor " +
                    std::to_string(min_free) + ")"
              : "statvfs failed: " + std::string(free_bytes.status().message());
      return result;
    });
    health_checks_.push_back("storage.durability");
    health_checks_.push_back("storage.segment_corrupt");
    health_checks_.push_back("storage.disk_headroom");
  }

  auto server = std::make_unique<obs::OpsServer>();
  server->SetHandler("/statusz", [this](std::string_view) {
    obs::HttpResponse response;
    response.content_type = "application/json";
    response.body = StatuszJson();
    return response;
  });
  status = server->Start(port);
  if (!status.ok()) {
    recorder->Stop();
    for (const std::string& name : health_checks_) health.Unregister(name);
    health_checks_.clear();
    return status;
  }
  ops_recorder_ = std::move(recorder);
  ops_server_ = std::move(server);
  return ops_server_->port();
}

void ProvenanceService::DisableOpsServer() {
  // Accept thread first: its handlers read `this` and the recorder.
  if (ops_server_ != nullptr) ops_server_->Stop();
  if (ops_recorder_ != nullptr) ops_recorder_->Stop();
  for (const std::string& name : health_checks_) {
    obs::HealthRegistry::Global().Unregister(name);
  }
  health_checks_.clear();
  ops_server_.reset();
  ops_recorder_.reset();
}

}  // namespace tinprov
