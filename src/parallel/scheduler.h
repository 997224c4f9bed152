// Thread plumbing for the label-sharded engine: the host's width and a
// pool of dedicated threads.
//
// Nothing here schedules work. The shard runner (sharded_ingest.h)
// gives shard s to worker s mod workers and spawns its workers through
// ResidentPool while the calling thread produces the stream.
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
/// threads. An empty task list spawns nothing.
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
