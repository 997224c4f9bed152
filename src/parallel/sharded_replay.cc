#include "parallel/sharded_replay.h"

#include <algorithm>
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
  // 0 leaves the producing thread one of the host's CPUs.
  if (params_.num_threads != 0) return params_.num_threads;
  return std::max<size_t>(HardwareThreads(), 2) - 1;
}

size_t ShardedReplayEngine::ResolvedShards() const {
  size_t shards = 0;
  return UsesShards(&shards) ? shards : 1;
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

namespace {

Status NoLog() {
  return Status::FailedPrecondition(
      "engine was built without a materialized log — use ReplayStream");
}

/// Drains `tracker` into a materialized result — the sequential arm of
/// ReplayStream ends here.
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

StatusOr<ShardedReplayResult> ShardedReplayEngine::Replay() const {
  // MaterializedStream clamps the prefix to the log length.
  return ReplayPrefix(std::numeric_limits<size_t>::max());
}

StatusOr<std::unique_ptr<Tracker>> ShardedReplayEngine::SequentialReplay(
    InteractionStream& stream, size_t* interactions) const {
  if (!spec_.sequential) {
    return Status::FailedPrecondition(
        "sharded spec has no sequential tracker factory");
  }
  std::unique_ptr<Tracker> tracker = spec_.sequential();
  if (tracker == nullptr) {
    return Status::Internal("sequential tracker factory returned null");
  }
  StreamIngestor ingestor(tracker.get());
  const Status status = ingestor.IngestAll(stream);
  if (!status.ok()) {
    return Status(status.code(), "sequential replay: " + status.message());
  }
  *interactions = ingestor.stats().interactions;
  return tracker;
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
    InteractionStream& stream, size_t num_shards, size_t* interactions,
    Timestamp* watermark_inout, SparseProportionalBase* first) const {
  const size_t label_count = spec_.label_count;
  ShardRun run;
  run.num_shards = num_shards;
  const size_t num_workers = std::min(ResolvedThreads(), num_shards);
  run.num_threads = num_workers;
  PartitionLabels(&run, num_shards);

  // Shard trackers are built up front on the caller (construction is
  // O(|V|), not worth parallelizing) and pre-sized from whatever length
  // the stream advertises; a caller-provided shard 0 comes sized.
  run.seconds.assign(num_shards, 0.0);
  const DatasetStats advertised = stream.Stats();
  for (size_t s = 0; s < num_shards; ++s) {
    SparseProportionalBase* tracker = first;
    if (s > 0 || first == nullptr) {
      run.owned.push_back(spec_.make_shard());
      tracker = run.owned.back().get();
      if (tracker == nullptr) {
        return Status::Internal("shard tracker factory returned null");
      }
      ReserveShard(tracker, advertised.num_interactions, num_shards);
    }
    tracker->RestrictLabels(run.masks[s].data(), label_count);
    run.trackers.push_back(tracker);
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
                                         " replay: " + status.message());
      }
    }
    run.seconds[s] += watch.ElapsedSeconds();
    TINPROV_COUNTER_ADD("parallel.shard_busy_ns", watch.ElapsedNanos());
    return Status::Ok();
  };

  // The producer (calling thread) is the only one that touches the
  // stream; it also enforces the time-order contract the trackers rely
  // on, exactly as StreamIngestor does, from the caller's floor.
  Timestamp watermark = *watermark_inout;
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
  *interactions = pulled_total;
  *watermark_inout = watermark;
  return run;
}

std::vector<ShardInfo> ShardedReplayEngine::ShardInfos(const ShardRun& run) {
  std::vector<ShardInfo> shards;
  size_t pool_bytes = 0;
  for (size_t s = 0; s < run.num_shards; ++s) {
    ShardInfo info;
    info.labels = run.labels_per_shard[s];
    info.entries = run.trackers[s]->num_entries();
    info.seconds = run.seconds[s];
    info.pool_bytes = run.trackers[s]->PoolBytesReserved();
    pool_bytes += info.pool_bytes;
    shards.push_back(info);
  }
  TINPROV_COUNTER_ADD("parallel.replays", 1);
  TINPROV_COUNTER_ADD("parallel.shards_run", run.num_shards);
  TINPROV_GAUGE_SET("memory.shard_pool_bytes", pool_bytes);
  return shards;
}

ShardedReplayResult ShardedReplayEngine::AssembleResult(
    const ShardRun& run, size_t interactions_replayed,
    double replay_seconds) const {
  const auto& trackers = run.trackers;
  const size_t shards = run.num_shards;
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
  result.shards = ShardInfos(run);
  for (const ShardInfo& info : result.shards) {
    result.num_entries += info.entries;
  }

  // Phase 2 (exchange): interleave the shards' disjoint label slices
  // back into full per-vertex lists. Pure data movement ordered by
  // label id — deterministic and free of floating-point arithmetic —
  // over 1024-vertex blocks, strided across the workers (worker w takes
  // blocks w, w + W, ...; the caller is worker 0), which spreads blocks
  // of uneven list volume without any claiming.
  obs::TraceSpan exchange_span("replay.exchange", "parallel");
  TINPROV_SCOPED_LATENCY_NS("parallel.exchange_ns");
  constexpr size_t kBlock = 1024;
  const size_t num_blocks = (n + kBlock - 1) / kBlock;
  const size_t workers = std::min(ResolvedThreads(), num_blocks);
  const auto exchange = [&](size_t w) {
    std::vector<size_t> cursor(shards);
    for (size_t block = w; block < num_blocks; block += workers) {
      const VertexId begin = static_cast<VertexId>(block * kBlock);
      const VertexId end =
          static_cast<VertexId>(std::min(n, (block + 1) * kBlock));
      for (VertexId v = begin; v < end; ++v) {
        result.totals[v] = trackers[0]->BufferTotal(v);
        InterleaveVertexSlices(trackers, v, &result.entries[v], &cursor);
      }
    }
  };
  std::vector<std::function<void()>> tasks;
  for (size_t w = 1; w < workers; ++w) {
    tasks.emplace_back([&exchange, w] { exchange(w); });
  }
  ResidentPool pool(std::move(tasks));
  if (workers > 0) exchange(0);
  pool.Join();
  return result;
}

StatusOr<ShardedReplayResult> ShardedReplayEngine::ReplayPrefix(
    size_t prefix) const {
  if (tin_ == nullptr) return NoLog();
  MaterializedStream stream(*tin_, prefix);
  return ReplayStream(stream);
}

StatusOr<ShardedReplayResult> ShardedReplayEngine::ReplayStream(
    InteractionStream& stream) const {
  Stopwatch watch;
  size_t shards = 0;
  size_t interactions = 0;
  if (!UsesShards(&shards)) {
    auto tracker = SequentialReplay(stream, &interactions);
    if (!tracker.ok()) return tracker.status();
    return MaterializeTracker(**tracker, stats_.num_vertices, interactions,
                              watch.ElapsedSeconds());
  }
  Timestamp watermark = std::numeric_limits<Timestamp>::lowest();
  auto executed =
      RunShards(stream, shards, &interactions, &watermark, nullptr);
  if (!executed.ok()) return executed.status();
  return AssembleResult(*executed, interactions, watch.ElapsedSeconds());
}

StatusOr<size_t> ShardedReplayEngine::ReplayStreamInto(
    InteractionStream& stream, SparseProportionalBase* target,
    Timestamp* watermark, std::vector<ShardInfo>* shard_infos) const {
  size_t shards = 0;
  if (!UsesShards(&shards)) {
    return Status::FailedPrecondition(
        "replay into a target needs a decomposable spec and more than one "
        "shard — ingest sequentially instead");
  }
  size_t interactions = 0;
  auto executed = RunShards(stream, shards, &interactions, watermark, target);
  Status status = executed.status();
  if (status.ok()) {
    // Taken before the exchange grows shard 0 and `executed` frees the
    // others.
    *shard_infos = ShardInfos(*executed);
    // Phase 2 (exchange) straight into the target's pool: the same
    // label interleave AssembleResult runs, minus the intermediate
    // result. The other shards are freed with `executed`.
    obs::TraceSpan exchange_span("replay.exchange", "parallel");
    TINPROV_SCOPED_LATENCY_NS("parallel.exchange_ns");
    status = target->AdoptLabelShards(executed->trackers);
  }
  if (!status.ok()) {
    // Shard 0's mask dies with the run; the target must not keep it.
    target->RestrictLabels(nullptr, 0);
    return status;
  }
  return interactions;
}

StatusOr<Buffer> ShardedReplayEngine::QueryPrefix(VertexId v,
                                                  size_t prefix) const {
  if (tin_ == nullptr) return NoLog();
  if (v >= tin_->num_vertices()) {
    return Status::InvalidArgument("query vertex " + std::to_string(v) +
                                   " out of range");
  }
  MaterializedStream stream(*tin_, prefix);
  size_t shards = 0;
  size_t interactions = 0;
  if (!UsesShards(&shards)) {
    auto replayed = SequentialReplay(stream, &interactions);
    if (!replayed.ok()) return replayed.status();
    return (*replayed)->Provenance(v);
  }
  Timestamp watermark = std::numeric_limits<Timestamp>::lowest();
  auto executed =
      RunShards(stream, shards, &interactions, &watermark, nullptr);
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
