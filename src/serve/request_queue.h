// The query-side plumbing of the serve layer: the request/result
// vocabulary and an MPMC request queue with a worker pool.
//
// Any number of client threads Submit() queries; worker threads pop
// them in FIFO order and resolve each through the executor the pool was
// built with (ProvenanceService::Execute — reads only epoch-pinned
// immutable state, so workers never contend with the ingest writer).
// Results come back through std::future, so callers choose between
// blocking (get) and fire-many-then-collect batching. With zero worker
// threads Submit() resolves the query inline on the calling thread and
// returns a ready future, so the API is the same either way.
#ifndef TINPROV_SERVE_REQUEST_QUEUE_H_
#define TINPROV_SERVE_REQUEST_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/buffer.h"
#include "core/types.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace tinprov {

/// Identity of one published epoch: which consistent state a query was
/// answered from.
struct EpochInfo {
  /// Publish sequence number; 0 is the initial (pre-ingest) state.
  uint64_t seq = 0;
  /// Log position: interactions applied since empty state, counting
  /// those recovered from the durability directory and those loaded by
  /// Catchup().
  size_t prefix = 0;
  /// The state is complete through this timestamp.
  Timestamp watermark = std::numeric_limits<Timestamp>::lowest();
};

enum class QueryKind {
  kProvenance,    // Provenance(v) at the latest epoch
  kProvenanceAt,  // Provenance(v, t) — historical: ring epoch or History
  kTopOrigins,    // top-k origins of v's buffer by quantity
};

struct QueryRequest {
  QueryKind kind = QueryKind::kProvenance;
  VertexId v = 0;
  Timestamp t = 0;  // kProvenanceAt only
  size_t k = 0;     // kTopOrigins only
};

struct QueryResult {
  Status status;
  Buffer buffer;
  /// The epoch the answer is consistent with. For kProvenanceAt this is
  /// still the epoch the query was *resolved against* (its log/snapshot
  /// view); the buffer itself reflects time `t`.
  EpochInfo epoch;
  /// Process-unique id ProvenanceService::Execute stamped on the query
  /// (correlates with the slow-query log); 0 for answers that bypassed
  /// Execute (the direct reader methods).
  uint64_t query_id = 0;
  /// Log interactions delta-replayed to build the answer; 0 on the
  /// epoch fast paths (latest epoch, ring hit).
  size_t replayed_interactions = 0;
};

/// Resolves one request; must be safe to call from any thread.
using QueryExecutor = std::function<QueryResult(const QueryRequest&)>;

class QueryWorkerPool {
 public:
  /// Spawns `num_threads` workers over an MPMC queue. 0 means inline
  /// execution (no queue, no threads).
  QueryWorkerPool(QueryExecutor executor, size_t num_threads);

  /// Drains the queue (workers finish every submitted request), then
  /// joins the workers.
  ~QueryWorkerPool();

  QueryWorkerPool(const QueryWorkerPool&) = delete;
  QueryWorkerPool& operator=(const QueryWorkerPool&) = delete;

  /// Enqueues a request; the future resolves when a worker has executed
  /// it. Thread-safe. Inline pools execute before returning.
  std::future<QueryResult> Submit(QueryRequest request);

  size_t num_threads() const { return threads_.size(); }

 private:
  struct Item {
    QueryRequest request;
    std::promise<QueryResult> promise;
    Stopwatch enqueued;  // queue-wait accounting (serve.queue_wait_ns)
  };

  void WorkerLoop();

  QueryExecutor executor_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace tinprov

#endif  // TINPROV_SERVE_REQUEST_QUEUE_H_
