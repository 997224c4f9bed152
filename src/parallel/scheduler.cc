#include "parallel/scheduler.h"

#include <utility>

namespace tinprov {

size_t HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
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
