#include "parallel/sharded_replay.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/scheduler.h"
#include "stream/ingest.h"
#include "stream/interaction_stream.h"
#include "util/stopwatch.h"

namespace tinprov {

namespace {

/// The deterministic single-vertex exchange: interleaves v's disjoint
/// shard slices into one label-sorted list by repeated min-head
/// selection (shard counts are small; slices are disjoint, so ties are
/// impossible). Shared by ReplayPrefix's phase 2 and QueryPrefix so the
/// two cannot drift apart. `cursor` is caller-provided scratch of at
/// least trackers.size() elements.
void InterleaveVertexSlices(
    const std::vector<std::unique_ptr<SparseProportionalBase>>& trackers,
    VertexId v, std::vector<ProvPair>* out, std::vector<size_t>* cursor) {
  const size_t shards = trackers.size();
  size_t total_len = 0;
  for (size_t s = 0; s < shards; ++s) {
    (*cursor)[s] = 0;
    total_len += trackers[s]->EntriesOf(v).size();
  }
  out->reserve(total_len);
  for (size_t picked = 0; picked < total_len; ++picked) {
    size_t best = shards;
    VertexId best_origin = kInvalidVertex;
    for (size_t s = 0; s < shards; ++s) {
      const SparseVector& list = trackers[s]->EntriesOf(v);
      if ((*cursor)[s] < list.size() &&
          (best == shards || list[(*cursor)[s]].origin < best_origin)) {
        best = s;
        best_origin = list[(*cursor)[s]].origin;
      }
    }
    out->push_back(trackers[best]->EntriesOf(v)[(*cursor)[best]]);
    ++(*cursor)[best];
  }
}

}  // namespace

Buffer ShardedReplayResult::Provenance(VertexId v) const {
  Buffer buffer;
  buffer.total = totals[v];
  buffer.entries = entries[v];
  return buffer;
}

ShardedReplayEngine::ShardedReplayEngine(const Tin& tin, ShardedSpec spec,
                                         ParallelParams params)
    : tin_(&tin), stats_(tin.Stats()), spec_(std::move(spec)),
      params_(params) {}

ShardedReplayEngine::ShardedReplayEngine(const DatasetStats& stats,
                                         ShardedSpec spec,
                                         ParallelParams params)
    : tin_(nullptr), stats_(stats), spec_(std::move(spec)), params_(params) {}

size_t ShardedReplayEngine::ResolvedThreads() const {
  return params_.num_threads == 0 ? HardwareThreads() : params_.num_threads;
}

std::vector<GroupId> ShardedReplayEngine::AssignLabels(const Tin& tin,
                                                       ShardStrategy strategy,
                                                       size_t label_count,
                                                       size_t num_shards) {
  switch (strategy) {
    case ShardStrategy::kRoundRobin:
      return RoundRobinGroups(label_count, num_shards);
    case ShardStrategy::kHash:
      return HashGroups(label_count, num_shards);
    case ShardStrategy::kContiguous:
      return ContiguousGroups(label_count, num_shards);
    case ShardStrategy::kActivity:
      // LPT over interaction activity only makes sense when labels ARE
      // vertices; group-id label spaces fall back to round-robin.
      if (label_count == tin.num_vertices()) {
        return ActivityGroups(tin, num_shards);
      }
      return RoundRobinGroups(label_count, num_shards);
  }
  return RoundRobinGroups(label_count, num_shards);
}

StatusOr<ShardedReplayResult> ShardedReplayEngine::Replay() const {
  if (tin_ == nullptr) {
    return Status::FailedPrecondition(
        "engine was built without a materialized log — use ReplayStream");
  }
  return ReplayPrefix(tin_->num_interactions());
}

StatusOr<std::unique_ptr<Tracker>> ShardedReplayEngine::MakeSequentialTracker()
    const {
  if (!spec_.sequential) {
    return Status::FailedPrecondition(
        "sharded spec has no sequential tracker factory");
  }
  std::unique_ptr<Tracker> tracker = spec_.sequential();
  if (tracker == nullptr) {
    return Status::Internal("sequential tracker factory returned null");
  }
  return tracker;
}

StatusOr<std::unique_ptr<Tracker>> ShardedReplayEngine::SequentialTracker(
    size_t prefix) const {
  auto tracker = MakeSequentialTracker();
  if (!tracker.ok()) return tracker.status();
  MaterializedStream stream(*tin_, prefix);
  const Status status = (*tracker)->ProcessStream(stream);
  if (!status.ok()) {
    return Status(status.code(),
                  "sequential replay: " + status.message());
  }
  return tracker;
}

namespace {

/// Drains `tracker` into a materialized result — the sequential halves
/// of both the prefix and the streaming paths end here.
ShardedReplayResult MaterializeTracker(Tracker& tracker, size_t num_vertices,
                                       size_t interactions_replayed,
                                       double replay_seconds) {
  ShardedReplayResult result;
  result.num_vertices = num_vertices;
  result.interactions_replayed = interactions_replayed;
  result.replay_seconds = replay_seconds;
  result.totals.resize(num_vertices);
  result.entries.resize(num_vertices);
  for (VertexId v = 0; v < num_vertices; ++v) {
    Buffer buffer = tracker.Provenance(v);
    result.totals[v] = buffer.total;
    result.num_entries += buffer.entries.size();
    result.entries[v] = std::move(buffer.entries);
  }
  result.total_generated = tracker.total_generated();
  return result;
}

}  // namespace

StatusOr<ShardedReplayResult> ShardedReplayEngine::SequentialReplay(
    size_t prefix) const {
  Stopwatch watch;
  auto replayed = SequentialTracker(prefix);
  if (!replayed.ok()) return replayed.status();
  const double replay_seconds = watch.ElapsedSeconds();
  return MaterializeTracker(**replayed, tin_->num_vertices(), prefix,
                            replay_seconds);
}

StatusOr<ShardedReplayResult> ShardedReplayEngine::SequentialStreamReplay(
    InteractionStream& stream) const {
  auto tracker = MakeSequentialTracker();
  if (!tracker.ok()) return tracker.status();
  Stopwatch watch;
  StreamIngestor ingestor(tracker->get());
  const Status status = ingestor.IngestAll(stream);
  if (!status.ok()) {
    return Status(status.code(),
                  "sequential stream replay: " + status.message());
  }
  return MaterializeTracker(**tracker, stats_.num_vertices,
                            ingestor.stats().interactions,
                            watch.ElapsedSeconds());
}

bool ShardedReplayEngine::UsesShards(size_t* num_shards) const {
  const size_t threads = ResolvedThreads();
  size_t shards = params_.num_shards == 0 ? threads : params_.num_shards;
  shards = std::min(shards, spec_.label_count);
  *num_shards = shards;
  return spec_.decomposable && spec_.make_shard != nullptr && shards > 1;
}

void ShardedReplayEngine::PartitionLabels(ShardRun* run,
                                          size_t num_shards) const {
  const size_t label_count = spec_.label_count;
  // Deterministic label partition, independent of threading. Only
  // kActivity needs a log (to measure activity); in the Tin-free
  // streaming form it falls back to round-robin while the other
  // strategies apply unchanged.
  std::vector<GroupId> assignment;
  if (tin_ != nullptr) {
    assignment =
        AssignLabels(*tin_, params_.strategy, label_count, num_shards);
  } else {
    switch (params_.strategy) {
      case ShardStrategy::kHash:
        assignment = HashGroups(label_count, num_shards);
        break;
      case ShardStrategy::kContiguous:
        assignment = ContiguousGroups(label_count, num_shards);
        break;
      case ShardStrategy::kRoundRobin:
      case ShardStrategy::kActivity:
        assignment = RoundRobinGroups(label_count, num_shards);
        break;
    }
  }
  run->masks.assign(num_shards, std::vector<uint8_t>(label_count, 0));
  run->labels_per_shard.assign(num_shards, 0);
  for (size_t label = 0; label < label_count; ++label) {
    const GroupId shard = assignment[label];
    run->masks[shard][label] = 1;
    ++run->labels_per_shard[shard];
  }
}

void ShardedReplayEngine::ReserveShard(SparseProportionalBase* tracker,
                                       size_t expected_interactions,
                                       size_t num_shards) {
  if (expected_interactions == 0) return;  // unknown length: grow on demand
  const size_t hint = std::min(expected_interactions,
                               (size_t{8} << 20) / sizeof(ProvPair)) /
                          num_shards +
                      16;
  tracker->ReserveEntries(hint);
}

StatusOr<ShardedReplayEngine::ShardRun> ShardedReplayEngine::RunShards(
    size_t prefix, size_t num_shards) const {
  const size_t threads = ResolvedThreads();
  const size_t label_count = spec_.label_count;
  ShardRun run;
  run.num_shards = num_shards;
  run.num_threads = std::min(threads, num_shards);
  PartitionLabels(&run, num_shards);

  // Phase 1: every shard replays the full prefix over its label slice.
  run.trackers.resize(num_shards);
  run.seconds.assign(num_shards, 0.0);
  std::vector<Status> statuses(num_shards, Status::Ok());
  const auto& log = tin_->interactions();
  WorkStealingScheduler scheduler(threads);
  scheduler.ParallelFor(num_shards, [&](size_t s) {
    obs::TraceSpan span("replay.shard", "parallel");
    TINPROV_SCOPED_COUNTER_NS("parallel.shard_busy_ns");
    Stopwatch watch;
    std::unique_ptr<SparseProportionalBase> tracker = spec_.make_shard();
    if (tracker == nullptr) {
      statuses[s] = Status::Internal("shard tracker factory returned null");
      return;
    }
    tracker->RestrictLabels(run.masks[s].data(), label_count);
    ReserveShard(tracker.get(), prefix, num_shards);
    for (size_t i = 0; i < prefix; ++i) {
      const Status status = tracker->Process(log[i]);
      if (!status.ok()) {
        statuses[s] = Status(status.code(),
                             "shard " + std::to_string(s) +
                                 " replay at interaction " +
                                 std::to_string(i) + ": " + status.message());
        return;
      }
    }
    run.trackers[s] = std::move(tracker);
    run.seconds[s] = watch.ElapsedSeconds();
  });
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }

  // Replicated global state must agree bit-for-bit across shards, or
  // the spec lied about being label-linear; total_generated is the
  // cheapest complete witness (it accumulates every deficit in order).
  for (size_t s = 1; s < num_shards; ++s) {
    if (run.trackers[s]->total_generated() !=
        run.trackers[0]->total_generated()) {
      return Status::Internal(
          "shard " + std::to_string(s) +
          " diverged from shard 0 — tracker is not label-decomposable");
    }
  }
  return run;
}

StatusOr<ShardedReplayEngine::ShardRun> ShardedReplayEngine::RunShardsStream(
    InteractionStream& stream, size_t num_shards,
    size_t* interactions) const {
  const size_t label_count = spec_.label_count;
  ShardRun run;
  run.num_shards = num_shards;
  const size_t num_workers = std::min(ResolvedThreads(), num_shards);
  run.num_threads = num_workers;
  PartitionLabels(&run, num_shards);

  // Shard trackers are built up front on the caller (construction is
  // O(|V|), not worth parallelizing) and pre-sized from whatever length
  // the stream advertises.
  run.trackers.resize(num_shards);
  run.seconds.assign(num_shards, 0.0);
  const DatasetStats advertised = stream.Stats();
  for (size_t s = 0; s < num_shards; ++s) {
    run.trackers[s] = spec_.make_shard();
    if (run.trackers[s] == nullptr) {
      return Status::Internal("shard tracker factory returned null");
    }
    run.trackers[s]->RestrictLabels(run.masks[s].data(), label_count);
    ReserveShard(run.trackers[s].get(), advertised.num_interactions,
                 num_shards);
  }

  const size_t chunk_capacity = std::max<size_t>(1, params_.stream_chunk);

  // Applies one chunk to one shard. Only the owning worker ever touches
  // a shard's tracker or seconds slot, so no synchronization is needed
  // beyond the queue hand-off.
  const auto feed = [&run](size_t s,
                           const std::vector<Interaction>& chunk) -> Status {
    Stopwatch watch;
    for (const Interaction& interaction : chunk) {
      const Status status = run.trackers[s]->Process(interaction);
      if (!status.ok()) {
        return Status(status.code(), "shard " + std::to_string(s) +
                                         " stream replay: " +
                                         status.message());
      }
    }
    run.seconds[s] += watch.ElapsedSeconds();
    TINPROV_COUNTER_ADD("parallel.shard_busy_ns", watch.ElapsedNanos());
    return Status::Ok();
  };

  // The producer (calling thread) is the only one that touches the
  // stream; it also enforces the time-order contract the trackers rely
  // on, exactly as StreamIngestor does.
  Timestamp watermark = std::numeric_limits<Timestamp>::lowest();
  size_t pulled_total = 0;
  const auto pull_chunk = [&](std::vector<Interaction>* chunk) -> Status {
    chunk->clear();
    Interaction interaction;
    while (chunk->size() < chunk_capacity && stream.Next(&interaction)) {
      if (interaction.t < watermark) {
        return Status::InvalidArgument(
            "stream interaction " +
            std::to_string(pulled_total + chunk->size()) +
            " has timestamp below the watermark — wrap the source in a "
            "SortingStream");
      }
      watermark = interaction.t;
      chunk->push_back(interaction);
    }
    pulled_total += chunk->size();
    return Status::Ok();
  };

  if (num_workers <= 1) {
    // Single worker: no queue, just alternate pull and broadcast. Same
    // per-shard op sequence as the threaded path, so same results.
    std::vector<Interaction> chunk;
    for (;;) {
      Status status = pull_chunk(&chunk);
      if (!status.ok()) return status;
      if (chunk.empty()) break;
      for (size_t s = 0; s < num_shards; ++s) {
        status = feed(s, chunk);
        if (!status.ok()) return status;
      }
      if (chunk.size() < chunk_capacity) break;
    }
  } else {
    // Bounded broadcast queue: the producer appends shared chunks, each
    // worker consumes every chunk in order for the shards it owns
    // (shard s belongs to worker s % num_workers), and fully consumed
    // chunks are popped. The queue holds at most stream_queue_chunks
    // chunks and each worker can pin one popped chunk it is still
    // processing, so live buffering never exceeds
    // (stream_queue_chunks + num_workers) * stream_chunk interactions.
    const size_t max_chunks = std::max<size_t>(1, params_.stream_queue_chunks);
    std::mutex mu;
    std::condition_variable producer_cv, consumer_cv;
    std::deque<std::shared_ptr<const std::vector<Interaction>>> chunks;
    size_t base = 0;  // global index of chunks.front()
    std::vector<size_t> cursor(num_workers, 0);
    bool done = false;
    bool abort = false;
    std::vector<Status> worker_status(num_workers, Status::Ok());

    const auto worker_main = [&](size_t w) {
      obs::TraceSpan worker_span("replay.worker", "parallel");
      for (;;) {
        std::shared_ptr<const std::vector<Interaction>> chunk;
        {
          std::unique_lock<std::mutex> lock(mu);
          {
            // Queue-wait time: the stream is the bottleneck when this
            // dwarfs parallel.shard_busy_ns.
            TINPROV_SCOPED_COUNTER_NS("parallel.worker_idle_ns");
            consumer_cv.wait(lock, [&] {
              return abort || done || cursor[w] < base + chunks.size();
            });
          }
          if (abort) return;
          if (cursor[w] == base + chunks.size()) return;  // done and drained
          chunk = chunks[cursor[w] - base];
          ++cursor[w];
        }
        producer_cv.notify_one();
        Status status = Status::Ok();
        for (size_t s = w; s < num_shards && status.ok(); s += num_workers) {
          status = feed(s, *chunk);
        }
        if (!status.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          worker_status[w] = std::move(status);
          abort = true;
          producer_cv.notify_all();
          consumer_cv.notify_all();
          return;
        }
      }
    };
    std::vector<std::function<void()>> worker_tasks;
    worker_tasks.reserve(num_workers);
    for (size_t w = 0; w < num_workers; ++w) {
      worker_tasks.emplace_back([&worker_main, w] { worker_main(w); });
    }
    ResidentPool workers(std::move(worker_tasks));

    Status producer_status = Status::Ok();
    std::vector<Interaction> scratch;
    for (;;) {
      const Status status = pull_chunk(&scratch);
      if (!status.ok()) {
        producer_status = status;
        break;
      }
      if (scratch.empty()) break;
      const bool exhausted = scratch.size() < chunk_capacity;
      auto chunk = std::make_shared<const std::vector<Interaction>>(
          std::move(scratch));
      {
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
          while (!chunks.empty() &&
                 *std::min_element(cursor.begin(), cursor.end()) > base) {
            chunks.pop_front();
            ++base;
          }
          if (abort || chunks.size() < max_chunks) break;
          producer_cv.wait(lock);
        }
        if (abort) break;
        chunks.push_back(std::move(chunk));
        TINPROV_COUNTER_ADD("stream.chunks", 1);
        TINPROV_GAUGE_SET("stream.queue_depth", chunks.size());
        TINPROV_GAUGE_MAX("stream.queue_depth_peak", chunks.size());
      }
      consumer_cv.notify_all();
      if (exhausted) break;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    consumer_cv.notify_all();
    workers.Join();
    if (!producer_status.ok()) return producer_status;
    for (const Status& status : worker_status) {
      if (!status.ok()) return status;
    }
  }

  // Same label-linearity witness as the materialized path.
  for (size_t s = 1; s < num_shards; ++s) {
    if (run.trackers[s]->total_generated() !=
        run.trackers[0]->total_generated()) {
      return Status::Internal(
          "shard " + std::to_string(s) +
          " diverged from shard 0 — tracker is not label-decomposable");
    }
  }
  *interactions = pulled_total;
  return run;
}

ShardedReplayResult ShardedReplayEngine::AssembleResult(
    const ShardRun& run, size_t interactions_replayed,
    double replay_seconds) const {
  const auto& trackers = run.trackers;
  const size_t shards = run.num_shards;
  const size_t threads = ResolvedThreads();
  const size_t n = stats_.num_vertices;
  ShardedReplayResult result;
  result.num_vertices = n;
  result.interactions_replayed = interactions_replayed;
  result.replay_seconds = replay_seconds;
  result.used_parallel_path = true;
  result.num_shards = shards;
  result.num_threads = run.num_threads;
  result.totals.resize(n);
  result.entries.resize(n);
  result.total_generated = trackers[0]->total_generated();
  size_t pool_bytes = 0;
  for (size_t s = 0; s < shards; ++s) {
    result.num_entries += trackers[s]->num_entries();
    ShardInfo info;
    info.labels = run.labels_per_shard[s];
    info.entries = trackers[s]->num_entries();
    info.seconds = run.seconds[s];
    info.pool_bytes = trackers[s]->PoolBytesReserved();
    pool_bytes += info.pool_bytes;
    result.shards.push_back(info);
  }
  TINPROV_COUNTER_ADD("parallel.replays", 1);
  TINPROV_COUNTER_ADD("parallel.shards_run", shards);
  TINPROV_GAUGE_SET("memory.shard_pool_bytes", pool_bytes);

  // Phase 2 (exchange): interleave the shards' disjoint label slices
  // back into full per-vertex lists. Pure data movement ordered by
  // label id — deterministic and free of floating-point arithmetic —
  // parallelized over vertex blocks on the work-stealing scheduler
  // (blocks vary wildly in list volume, which is exactly the skew
  // stealing exists for).
  obs::TraceSpan exchange_span("replay.exchange", "parallel");
  TINPROV_SCOPED_LATENCY_NS("parallel.exchange_ns");
  constexpr size_t kBlock = 1024;
  const size_t num_blocks = (n + kBlock - 1) / kBlock;
  WorkStealingScheduler scheduler(threads);
  scheduler.ParallelFor(num_blocks, [&](size_t block) {
    std::vector<size_t> cursor(shards);
    const VertexId begin = static_cast<VertexId>(block * kBlock);
    const VertexId end =
        static_cast<VertexId>(std::min(n, (block + 1) * kBlock));
    for (VertexId v = begin; v < end; ++v) {
      result.totals[v] = trackers[0]->BufferTotal(v);
      InterleaveVertexSlices(trackers, v, &result.entries[v], &cursor);
    }
  });
  return result;
}

StatusOr<ShardedReplayResult> ShardedReplayEngine::ReplayPrefix(
    size_t prefix) const {
  if (tin_ == nullptr) {
    return Status::FailedPrecondition(
        "engine was built without a materialized log — use ReplayStream");
  }
  prefix = std::min(prefix, tin_->num_interactions());
  size_t shards = 0;
  if (!UsesShards(&shards)) {
    return SequentialReplay(prefix);
  }
  Stopwatch watch;
  auto executed = RunShards(prefix, shards);
  if (!executed.ok()) return executed.status();
  return AssembleResult(*executed, prefix, watch.ElapsedSeconds());
}

StatusOr<ShardedReplayResult> ShardedReplayEngine::ReplayStream(
    InteractionStream& stream) const {
  size_t shards = 0;
  if (!UsesShards(&shards)) {
    return SequentialStreamReplay(stream);
  }
  Stopwatch watch;
  size_t interactions = 0;
  auto executed = RunShardsStream(stream, shards, &interactions);
  if (!executed.ok()) return executed.status();
  return AssembleResult(*executed, interactions, watch.ElapsedSeconds());
}

StatusOr<Buffer> ShardedReplayEngine::QueryPrefix(VertexId v,
                                                  size_t prefix) const {
  if (tin_ == nullptr) {
    return Status::FailedPrecondition(
        "engine was built without a materialized log — use ReplayStream");
  }
  if (v >= tin_->num_vertices()) {
    return Status::InvalidArgument("query vertex " + std::to_string(v) +
                                   " out of range");
  }
  prefix = std::min(prefix, tin_->num_interactions());
  size_t shards = 0;
  if (!UsesShards(&shards)) {
    auto replayed = SequentialTracker(prefix);
    if (!replayed.ok()) return replayed.status();
    return (*replayed)->Provenance(v);
  }
  auto executed = RunShards(prefix, shards);
  if (!executed.ok()) return executed.status();

  // Single-vertex exchange: the same interleave as ReplayPrefix's
  // phase 2, restricted to v — per-query cost stays O(|list(v)|).
  Buffer buffer;
  buffer.total = executed->trackers[0]->BufferTotal(v);
  std::vector<size_t> cursor(shards);
  InterleaveVertexSlices(executed->trackers, v, &buffer.entries, &cursor);
  return buffer;
}

}  // namespace tinprov
