#include "parallel/scheduler.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "obs/metrics.h"

namespace tinprov {

size_t HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

WorkStealingScheduler::WorkStealingScheduler(size_t num_threads)
    : num_threads_(num_threads == 0 ? HardwareThreads() : num_threads) {}

namespace {

// A worker's deque of loop indices, packed {begin:32, end:32} into one
// atomic so both ends move with a single CAS: the owner pops index
// `begin` from the front, thieves split the back half off by lowering
// `end`. Empty when begin == end.
constexpr uint64_t Pack(uint64_t begin, uint64_t end) {
  return (begin << 32) | end;
}
constexpr uint32_t RangeBegin(uint64_t packed) {
  return static_cast<uint32_t>(packed >> 32);
}
constexpr uint32_t RangeEnd(uint64_t packed) {
  return static_cast<uint32_t>(packed);
}

struct alignas(64) RangeDeque {
  std::atomic<uint64_t> range{0};
};

}  // namespace

void WorkStealingScheduler::ParallelFor(
    size_t count, const std::function<void(size_t)>& body) {
  if (count == 0) return;
  const size_t workers = std::min(num_threads_, count);
  if (workers <= 1) {
    for (size_t i = 0; i < count; ++i) body(i);
    stats_.tasks += count;
    TINPROV_COUNTER_ADD("parallel.tasks", count);
    return;
  }

  std::vector<RangeDeque> deques(workers);
  for (size_t w = 0; w < workers; ++w) {
    // Same contiguous pre-split a static partition would use; stealing
    // only redistributes the remainder under skew.
    const uint64_t begin = count * w / workers;
    const uint64_t end = count * (w + 1) / workers;
    deques[w].range.store(Pack(begin, end), std::memory_order_relaxed);
  }
  std::atomic<uint64_t> total_steals{0};

  const auto worker_main = [&](size_t w) {
    uint64_t steals = 0;
    for (;;) {
      // Drain our own deque front-first.
      uint64_t cur = deques[w].range.load(std::memory_order_acquire);
      while (RangeBegin(cur) < RangeEnd(cur)) {
        const uint32_t index = RangeBegin(cur);
        if (deques[w].range.compare_exchange_weak(
                cur, Pack(index + 1, RangeEnd(cur)),
                std::memory_order_acq_rel, std::memory_order_acquire)) {
          body(index);
          cur = deques[w].range.load(std::memory_order_acquire);
        }
        // On CAS failure `cur` was reloaded by compare_exchange.
      }
      // Empty: steal the back half of the largest victim remainder.
      // One full scan finding nothing means every deque was empty at
      // some point in the scan; any work that still exists is in the
      // tiny private window of another thief, which will finish it —
      // exiting here is safe because the caller joins all workers.
      size_t victim = workers;
      uint64_t victim_range = 0;
      for (size_t probe = 1; probe < workers; ++probe) {
        const size_t candidate = (w + probe) % workers;
        const uint64_t range =
            deques[candidate].range.load(std::memory_order_acquire);
        const uint32_t avail = RangeEnd(range) - RangeBegin(range);
        if (RangeBegin(range) < RangeEnd(range) &&
            (victim == workers ||
             avail > RangeEnd(victim_range) - RangeBegin(victim_range))) {
          victim = candidate;
          victim_range = range;
        }
      }
      if (victim == workers) break;
      const uint32_t begin = RangeBegin(victim_range);
      const uint32_t end = RangeEnd(victim_range);
      const uint32_t take = (end - begin + 1) / 2;
      const uint32_t split = end - take;
      if (deques[victim].range.compare_exchange_strong(
              victim_range, Pack(begin, split), std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        // Install the stolen [split, end) as our own deque. Ours is
        // empty and nobody else pushes into it, but a thief may be
        // lowering our end concurrently — only a CAS from the empty
        // state is safe. A thief can only see what we publish, so the
        // expected value is exactly the drained range we left behind.
        uint64_t mine = deques[w].range.load(std::memory_order_acquire);
        if (RangeBegin(mine) == RangeEnd(mine) &&
            deques[w].range.compare_exchange_strong(
                mine, Pack(split, end), std::memory_order_acq_rel,
                std::memory_order_acquire)) {
          ++steals;
        } else {
          // Could not publish (stale thief racing on our empty deque);
          // run the stolen range privately instead.
          ++steals;
          for (uint32_t i = split; i < end; ++i) body(i);
        }
      }
      // CAS failure: victim moved under us; rescan.
    }
    total_steals.fetch_add(steals, std::memory_order_relaxed);
  };

  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) threads.emplace_back(worker_main, w);
  worker_main(0);
  for (std::thread& thread : threads) thread.join();

  stats_.tasks += count;
  stats_.steals += total_steals.load(std::memory_order_relaxed);
  TINPROV_COUNTER_ADD("parallel.tasks", count);
  TINPROV_COUNTER_ADD("parallel.steals",
                      total_steals.load(std::memory_order_relaxed));
}

ResidentPool::ResidentPool(std::vector<std::function<void()>> tasks) {
  threads_.reserve(tasks.size());
  for (auto& task : tasks) threads_.emplace_back(std::move(task));
}

ResidentPool::~ResidentPool() { Join(); }

void ResidentPool::Join() {
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

}  // namespace tinprov
