#include "parallel/sharded_ingest.h"

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
#include "policies/proportional_base.h"
#include "scalable/grouped.h"
#include "stream/interaction_stream.h"
#include "util/stopwatch.h"

namespace tinprov {

ShardedIngestEngine::ShardedIngestEngine(const DatasetStats& stats,
                                         ShardedSpec spec,
                                         ParallelParams params,
                                         IngestOptions options)
    : stats_(stats), spec_(std::move(spec)), params_(params),
      options_(options) {}

std::vector<uint32_t> ShardedIngestEngine::AssignVertices(size_t num_vertices,
                                                          size_t num_shards) {
  // Contiguous ranges: vertex ids cluster in generators and real logs,
  // so ranges keep a shard's lists dense in its pool, and the owner
  // lookup stays a cheap monotone map.
  return ContiguousGroups(num_vertices, num_shards);
}

size_t ShardedIngestEngine::ResolvedShards() const {
  size_t shards = 0;
  if (!UsesShards(&shards)) return 1;
  return shards;
}

bool ShardedIngestEngine::UsesShards(size_t* num_shards) const {
  const size_t threads =
      params_.num_threads == 0 ? HardwareThreads() : params_.num_threads;
  // Shards and workers are 1:1 (every shard must be able to block on
  // its mailboxes independently), so unlike the replay engine a shard
  // request beyond the thread budget is clamped, not queued.
  size_t shards = params_.num_shards == 0 ? threads : params_.num_shards;
  shards = std::min(shards, threads);
  shards = std::min(shards, stats_.num_vertices);
  *num_shards = std::max<size_t>(1, shards);
  return spec_.decomposable && spec_.make_shard != nullptr && shards > 1 &&
         options_.sink == nullptr;
}

StatusOr<ShardedIngestResult> ShardedIngestEngine::IngestStream(
    InteractionStream& stream) const {
  size_t shards = 0;
  if (!UsesShards(&shards)) {
    return SequentialIngest(stream);
  }
  return ParallelIngest(stream, shards);
}

StatusOr<ShardedIngestResult> ShardedIngestEngine::SequentialIngest(
    InteractionStream& stream) const {
  if (!spec_.sequential) {
    return Status::FailedPrecondition(
        "sharded spec has no sequential tracker factory");
  }
  std::unique_ptr<Tracker> tracker = spec_.sequential();
  if (tracker == nullptr) {
    return Status::Internal("sequential tracker factory returned null");
  }
  StreamIngestor ingestor(tracker.get(), options_);
  const Status status = ingestor.IngestAll(stream);
  if (!status.ok()) {
    return Status(status.code(), "sequential ingest: " + status.message());
  }
  ShardedIngestResult result;
  result.stats = ingestor.stats();
  result.tracker = std::move(tracker);
  return result;
}

namespace {

/// One cross-shard transfer: the source shard's pre-scaled outgoing
/// list for the interaction at global position `seq`. Pushed even when
/// empty — the receiver pops unconditionally at that position, which
/// is what keeps the exchange deterministic.
struct ExchangeMessage {
  uint64_t seq = 0;
  std::vector<ProvPair> pairs;
};

/// Bounded FIFO between one ordered shard pair: one pusher (the source
/// owner), one popper (the destination owner). The capacity only needs
/// to exist for buffering to stay bounded — deadlock-freedom holds for
/// any capacity >= 1 (see the header's minimal-position argument).
class Mailbox {
 public:
  static constexpr size_t kCapacity = 256;

  /// False when the ingest aborted.
  bool Push(ExchangeMessage message, const std::atomic<bool>& abort) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return abort.load(std::memory_order_relaxed) ||
             queue_.size() < kCapacity;
    });
    if (abort.load(std::memory_order_relaxed)) return false;
    queue_.push_back(std::move(message));
    lock.unlock();
    cv_.notify_one();
    return true;
  }

  /// False when the ingest aborted (a message owed to a healthy popper
  /// always arrives — see the deadlock-freedom argument).
  bool Pop(ExchangeMessage* message, const std::atomic<bool>& abort) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return abort.load(std::memory_order_relaxed) || !queue_.empty();
    });
    if (queue_.empty()) return false;  // only reachable on abort
    *message = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    cv_.notify_one();
    return true;
  }

  /// Post-join check: a drained exchange ends with every mailbox empty.
  size_t UndrainedSize() {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

  void NotifyAbort() { cv_.notify_all(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<ExchangeMessage> queue_;
};

}  // namespace

StatusOr<ShardedIngestResult> ShardedIngestEngine::ParallelIngest(
    InteractionStream& stream, size_t num_shards) const {
  obs::TraceSpan span("ingest.sharded", "parallel");
  Stopwatch total_watch;
  const size_t num_vertices = stats_.num_vertices;
  const std::vector<uint32_t> owner = AssignVertices(num_vertices, num_shards);

  // Shard trackers are built up front on the caller (construction is
  // O(|V|)) and pre-sized from whatever length the stream advertises.
  std::vector<std::unique_ptr<SparseProportionalBase>> trackers(num_shards);
  const DatasetStats advertised = stream.Stats();
  for (size_t s = 0; s < num_shards; ++s) {
    trackers[s] = spec_.make_shard();
    if (trackers[s] == nullptr) {
      return Status::Internal("shard tracker factory returned null");
    }
    if (options_.reserve_from_stats && advertised.num_interactions > 0) {
      const size_t hint = std::min(advertised.num_interactions,
                                   (size_t{8} << 20) / sizeof(ProvPair)) /
                              num_shards +
                          16;
      trackers[s]->ReserveEntries(hint);
    }
  }

  // mailboxes[from * num_shards + to]; the diagonal is never used.
  std::vector<Mailbox> mailboxes(num_shards * num_shards);
  std::atomic<bool> abort{false};
  const auto raise_abort = [&] {
    abort.store(true, std::memory_order_relaxed);
    for (Mailbox& mailbox : mailboxes) mailbox.NotifyAbort();
  };

  // Bounded broadcast queue, same shape as the streaming replay's: the
  // producer (calling thread) is the only one that touches the stream
  // and enforces the time-order contract; every worker consumes every
  // chunk in order.
  const size_t chunk_capacity = std::max<size_t>(1, params_.stream_chunk);
  const size_t max_chunks = std::max<size_t>(1, params_.stream_queue_chunks);
  std::mutex mu;
  std::condition_variable producer_cv, consumer_cv;
  std::deque<std::shared_ptr<const std::vector<Interaction>>> chunks;
  size_t base = 0;  // global index of chunks.front()
  std::vector<size_t> cursor(num_shards, 0);
  bool done = false;
  std::vector<Status> worker_status(num_shards, Status::Ok());
  std::vector<double> worker_seconds(num_shards, 0.0);

  const auto worker_main = [&](size_t s) {
    obs::TraceSpan worker_span("ingest.shard", "parallel");
    SparseProportionalBase& tracker = *trackers[s];
    SparseVector outgoing;  // heap-backed scratch, reused per transfer
    ExchangeMessage message;
    uint64_t position = 0;  // global interaction index, equal across workers
    Status status = Status::Ok();
    for (;;) {
      std::shared_ptr<const std::vector<Interaction>> chunk;
      {
        std::unique_lock<std::mutex> lock(mu);
        {
          TINPROV_SCOPED_COUNTER_NS("parallel.worker_idle_ns");
          consumer_cv.wait(lock, [&] {
            return abort.load(std::memory_order_relaxed) || done ||
                   cursor[s] < base + chunks.size();
          });
        }
        if (abort.load(std::memory_order_relaxed)) return;
        if (cursor[s] == base + chunks.size()) return;  // done and drained
        chunk = chunks[cursor[s] - base];
        ++cursor[s];
      }
      producer_cv.notify_one();
      Stopwatch watch;
      for (const Interaction& interaction : *chunk) {
        const bool own_src = owner[interaction.src] == s;
        const bool own_dst = owner[interaction.dst] == s;
        const bool transfers =
            interaction.quantity > 0.0 && interaction.src != interaction.dst;
        if (transfers && own_src && !own_dst) {
          status = tracker.ProcessVertexSharded(interaction, true, false,
                                                &outgoing, nullptr, 0);
          if (status.ok()) {
            message.seq = position;
            message.pairs.assign(outgoing.begin(), outgoing.end());
            if (!mailboxes[s * num_shards + owner[interaction.dst]].Push(
                    std::move(message), abort)) {
              return;  // aborted by a peer; its status wins
            }
            message = ExchangeMessage{};
          }
        } else if (transfers && own_dst && !own_src) {
          if (!mailboxes[owner[interaction.src] * num_shards + s].Pop(
                  &message, abort)) {
            return;  // aborted by a peer
          }
          if (message.seq != position) {
            status = Status::Internal(
                "shard " + std::to_string(s) + " exchange out of order: got " +
                std::to_string(message.seq) + ", expected " +
                std::to_string(position));
          } else {
            status = tracker.ProcessVertexSharded(interaction, false, true,
                                                  nullptr, message.pairs.data(),
                                                  message.pairs.size());
          }
        } else {
          // Owns both endpoints (exactly Process()), owns neither
          // (replicated bookkeeping only), or nothing moves.
          status = tracker.ProcessVertexSharded(interaction, own_src, own_dst,
                                                nullptr, nullptr, 0);
        }
        if (!status.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          worker_status[s] =
              Status(status.code(), "shard " + std::to_string(s) +
                                        " ingest at interaction " +
                                        std::to_string(position) + ": " +
                                        status.message());
          raise_abort();
          producer_cv.notify_all();
          consumer_cv.notify_all();
          return;
        }
        ++position;
      }
      worker_seconds[s] += watch.ElapsedSeconds();
      TINPROV_COUNTER_ADD("parallel.shard_busy_ns", watch.ElapsedNanos());
    }
  };

  std::vector<std::function<void()>> worker_tasks;
  worker_tasks.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    worker_tasks.emplace_back([&worker_main, s] { worker_main(s); });
  }
  ResidentPool workers(std::move(worker_tasks));

  // Producer loop: pull, order-check, broadcast. stats.watermark keeps
  // its applied-interactions default until the first chunk lands, like
  // StreamIngestor's.
  IngestStats stats;
  Timestamp pull_watermark = options_.initial_watermark;
  Status producer_status = Status::Ok();
  std::vector<Interaction> scratch;
  for (;;) {
    scratch.clear();
    Interaction interaction;
    while (scratch.size() < chunk_capacity && stream.Next(&interaction)) {
      if (options_.enforce_time_order && interaction.t < pull_watermark) {
        producer_status = Status::InvalidArgument(
            "stream interaction " +
            std::to_string(stats.interactions + scratch.size()) +
            " has timestamp below the watermark — wrap the source in a "
            "SortingStream");
        break;
      }
      if (interaction.src >= num_vertices || interaction.dst >= num_vertices) {
        // The owner map is indexed before any tracker sees the
        // interaction, so the producer repeats the tracker's own check.
        producer_status = Status::InvalidArgument(
            "interaction references vertex beyond " +
            std::to_string(num_vertices));
        break;
      }
      pull_watermark = interaction.t;
      scratch.push_back(interaction);
    }
    if (!producer_status.ok() || scratch.empty()) break;
    stats.interactions += scratch.size();
    stats.batches += 1;
    stats.peak_batch = std::max(stats.peak_batch, scratch.size());
    stats.watermark = scratch.back().t;
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
        if (abort.load(std::memory_order_relaxed) ||
            chunks.size() < max_chunks) {
          break;
        }
        producer_cv.wait(lock);
      }
      if (abort.load(std::memory_order_relaxed)) break;
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
    if (!producer_status.ok()) raise_abort();
  }
  consumer_cv.notify_all();
  workers.Join();
  if (!producer_status.ok()) return producer_status;
  for (const Status& status : worker_status) {
    if (!status.ok()) return status;
  }
  for (size_t index = 0; index < mailboxes.size(); ++index) {
    const size_t undrained = mailboxes[index].UndrainedSize();
    if (undrained != 0) {
      return Status::Internal(
          "exchange " + std::to_string(index / num_shards) + " -> " +
          std::to_string(index % num_shards) + " left " +
          std::to_string(undrained) + " undrained messages");
    }
  }

  // Merge the shard trackers into one full tracker. AdoptVertexShards
  // verifies the replicated-scalar witness, so a spec that lied about
  // decomposability fails here instead of returning silently wrong
  // provenance.
  std::unique_ptr<SparseProportionalBase> merged = spec_.make_shard();
  if (merged == nullptr) {
    return Status::Internal("shard tracker factory returned null");
  }
  size_t total_entries = 0;
  for (const auto& tracker : trackers) total_entries += tracker->num_entries();
  merged->ReserveEntries(total_entries + 16);
  const Status adopted = merged->AdoptVertexShards(trackers, owner);
  if (!adopted.ok()) return adopted;

  ShardedIngestResult result;
  result.used_parallel_path = true;
  result.num_shards = num_shards;
  result.num_threads = num_shards;
  for (size_t s = 0; s < num_shards; ++s) {
    ShardInfo info;
    info.labels = static_cast<size_t>(
        std::count(owner.begin(), owner.end(), static_cast<uint32_t>(s)));
    info.entries = trackers[s]->num_entries();
    info.seconds = worker_seconds[s];
    info.pool_bytes = trackers[s]->PoolBytesReserved();
    result.shards.push_back(info);
  }
  stats.tracker_peak_memory = merged->MemoryUsage();
  stats.seconds = total_watch.ElapsedSeconds();
  result.stats = stats;
  result.tracker = std::move(merged);
  TINPROV_COUNTER_ADD("parallel.ingests", 1);
  TINPROV_COUNTER_ADD("parallel.shards_run", num_shards);
  return result;
}

}  // namespace tinprov
