// Work-stealing loop scheduler for the parallel engines.
//
// ParallelFor splits [0, count) into per-worker index deques (one
// packed atomic {begin, end} range per worker — the front is where the
// owner pops, the back is where thieves split off half with a CAS, so
// both sides are lock-free). A worker that drains its own deque scans
// the others and steals the back half of the largest remainder; work
// only ever moves between deques atomically, so the scheduler never
// loses or duplicates an index. This replaces the shared-atomic-counter
// self-scheduled pool the sharded replay engine used: under skew the
// counter made every claim contend on one cache line, while here the
// common case touches only the worker's own range and stealing is the
// exception that gets counted (`parallel.steals`).
//
// The calling thread is worker 0 and threads are spawned per call —
// identical lifecycle (and 1-thread inline fast path, no threads, no
// atomics beyond a relaxed stats add) to the pool it replaces, so
// single-threaded callers pay nothing new.
#ifndef TINPROV_PARALLEL_SCHEDULER_H_
#define TINPROV_PARALLEL_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace tinprov {

/// std::thread::hardware_concurrency() with the zero-means-unknown case
/// mapped to 1.
size_t HardwareThreads();

class WorkStealingScheduler {
 public:
  /// `num_threads` == 0 means HardwareThreads().
  explicit WorkStealingScheduler(size_t num_threads = 0);

  size_t num_threads() const { return num_threads_; }

  /// Runs body(i) exactly once for every i in [0, count) across up to
  /// min(num_threads, count) workers, the calling thread included, and
  /// returns when all of them finished. `body` must not throw and must
  /// tolerate concurrent invocations on distinct indices; count must be
  /// below 2^32 (ranges pack into one 64-bit atomic). Invocation order
  /// is unspecified.
  void ParallelFor(size_t count, const std::function<void(size_t)>& body);

  /// Cumulative over this scheduler's lifetime. `tasks` counts body
  /// invocations, `steals` counts back-half range steals (0 on the
  /// inline path). Updated once per ParallelFor by the calling thread;
  /// read it from that thread, not concurrently with a running loop.
  struct Stats {
    uint64_t tasks = 0;
    uint64_t steals = 0;
  };
  Stats stats() const { return stats_; }

 private:
  size_t num_threads_;
  Stats stats_;
};

/// Spawns one dedicated thread per task and joins them in Join() (or
/// the destructor). For resident pipeline workers — the streaming
/// replay's shard consumers, the sharded ingest's exchange peers —
/// whose tasks block on queues and therefore must not share threads.
/// Single-worker callers take their inline path instead of
/// constructing one of these.
class ResidentPool {
 public:
  explicit ResidentPool(std::vector<std::function<void()>> tasks);
  ~ResidentPool();

  ResidentPool(const ResidentPool&) = delete;
  ResidentPool& operator=(const ResidentPool&) = delete;

  /// Blocks until every task returned. Idempotent.
  void Join();

 private:
  std::vector<std::thread> threads_;
};

}  // namespace tinprov

#endif  // TINPROV_PARALLEL_SCHEDULER_H_
