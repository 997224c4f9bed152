#include "parallel/sharded_ingest.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/scheduler.h"
#include "stream/interaction_stream.h"
#include "util/stopwatch.h"

namespace tinprov {

ShardedIngestEngine::ShardedIngestEngine(const DatasetStats& /*stats*/,
                                         ShardedSpec spec,
                                         ParallelParams params,
                                         IngestOptions options)
    : spec_(std::move(spec)), params_(params), options_(options) {
  // 0 leaves the producing thread one of the host's CPUs.
  const size_t threads = params_.num_threads != 0
                             ? params_.num_threads
                             : std::max<size_t>(HardwareThreads(), 2) - 1;
  const size_t shards = std::min(
      params_.num_shards == 0 ? threads : params_.num_shards,
      spec_.label_count);
  const size_t workers = std::min(threads, shards);
  // The broadcast producer has no point at which a batch is applied by
  // every shard, so a sink (which must see batches after the tracker
  // applied them) loads sequentially.
  if (spec_.decomposable && spec_.make_shard != nullptr && workers >= 2 &&
      options_.sink == nullptr) {
    workers_ = workers;
    shards_ = shards;
  }
}

StatusOr<ShardedIngestResult> ShardedIngestEngine::IngestStream(
    InteractionStream& stream) const {
  if (!spec_.sequential) {
    return Status::FailedPrecondition(
        "sharded spec has no sequential tracker factory");
  }
  std::unique_ptr<Tracker> tracker = spec_.sequential();
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
  target->ReserveHint(stream.Stats());
  ShardedIngestResult result;
  Timestamp watermark = options_.initial_watermark;
  size_t n = 0;
  auto executed = RunShards(stream, shard0, &n, &watermark);
  Status status = executed.status();
  if (status.ok()) {
    // Taken before the exchange grows shard 0 and `executed` frees the
    // others.
    result.shards = ShardInfos(*executed);
    // The exchange: the label interleave, written straight into the
    // target's pool.
    obs::TraceSpan exchange_span("replay.exchange", "parallel");
    TINPROV_SCOPED_LATENCY_NS("parallel.exchange_ns");
    status = shard0->AdoptLabelShards(executed->trackers);
  }
  if (!status.ok()) {
    // Shard 0's mask dies with the run; the target must not keep it.
    shard0->RestrictLabels(nullptr, 0);
    return status;
  }

  // The accounting a StreamIngestor with this batch size would report:
  // perfbench counts catchup batches as attempted operations.
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
  result.num_shards = shards_;
  result.num_threads = workers_;
  TINPROV_COUNTER_ADD("parallel.ingests", 1);
  return result;
}

void ShardedIngestEngine::ReserveShard(SparseProportionalBase* tracker,
                                       size_t expected_interactions,
                                       size_t num_shards) {
  if (expected_interactions == 0) return;  // unknown length: grow on demand
  const size_t hint = std::min(expected_interactions,
                               (size_t{8} << 20) / sizeof(ProvPair)) /
                          num_shards +
                      16;
  tracker->ReserveEntries(hint);
}

StatusOr<ShardedIngestEngine::ShardRun> ShardedIngestEngine::RunShards(
    InteractionStream& stream, SparseProportionalBase* first,
    size_t* interactions, Timestamp* watermark_inout) const {
  const size_t label_count = spec_.label_count;
  const size_t num_shards = shards_;
  const size_t num_workers = workers_;
  ShardRun run;

  // Deterministic round-robin label partition, independent of
  // threading.
  run.masks.assign(num_shards, std::vector<uint8_t>(label_count, 0));
  run.labels_per_shard.assign(num_shards, 0);
  for (size_t label = 0; label < label_count; ++label) {
    run.masks[label % num_shards][label] = 1;
    ++run.labels_per_shard[label % num_shards];
  }

  // Shard trackers are built up front on the caller (construction is
  // O(|V|), not worth parallelizing) and pre-sized from whatever length
  // the stream advertises; shard 0, the caller's, comes sized.
  run.seconds.assign(num_shards, 0.0);
  const DatasetStats advertised = stream.Stats();
  for (size_t s = 0; s < num_shards; ++s) {
    SparseProportionalBase* tracker = first;
    if (s > 0) {
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

  // Bounded broadcast queue: the producer appends shared chunks, each
  // worker consumes every chunk in order for the shards it owns (shard
  // s belongs to worker s % num_workers), and fully consumed chunks are
  // popped. The queue holds at most stream_queue_chunks chunks and each
  // worker can pin one popped chunk it is still processing, so live
  // buffering never exceeds (stream_queue_chunks + num_workers) *
  // stream_chunk interactions.
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
    auto chunk =
        std::make_shared<const std::vector<Interaction>>(std::move(scratch));
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
  *interactions = pulled_total;
  *watermark_inout = watermark;
  return run;
}

std::vector<ShardInfo> ShardedIngestEngine::ShardInfos(
    const ShardRun& run) const {
  std::vector<ShardInfo> shards;
  size_t pool_bytes = 0;
  for (size_t s = 0; s < shards_; ++s) {
    ShardInfo info;
    info.labels = run.labels_per_shard[s];
    info.entries = run.trackers[s]->num_entries();
    info.seconds = run.seconds[s];
    info.pool_bytes = run.trackers[s]->PoolBytesReserved();
    pool_bytes += info.pool_bytes;
    shards.push_back(info);
  }
  TINPROV_COUNTER_ADD("parallel.shards_run", shards_);
  TINPROV_GAUGE_SET("memory.shard_pool_bytes", pool_bytes);
  return shards;
}

}  // namespace tinprov
