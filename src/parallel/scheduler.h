// Thread plumbing for the parallel engines: the host's width and a pool
// of dedicated threads.
//
// Nothing here schedules work. The shard runner (sharded_replay.h)
// gives shard s to worker s mod workers, and its exchange phase gives
// vertex block b to worker b mod workers; both spawn their workers
// through ResidentPool, and the calling thread takes part.
#ifndef TINPROV_PARALLEL_SCHEDULER_H_
#define TINPROV_PARALLEL_SCHEDULER_H_

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace tinprov {

/// std::thread::hardware_concurrency() with the zero-means-unknown case
/// mapped to 1.
size_t HardwareThreads();

/// Spawns one dedicated thread per task and joins them in Join() (or
/// the destructor). For the shard runner's resident workers, whose
/// tasks block on its broadcast queue and therefore must not share
/// threads, and for the exchange phase's block workers. An empty task
/// list spawns nothing.
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
