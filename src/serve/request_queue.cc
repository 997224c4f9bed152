#include "serve/request_queue.h"

#include <utility>

#include "obs/metrics.h"

namespace tinprov {

namespace {

std::future<QueryResult> ReadyFuture(QueryResult result) {
  std::promise<QueryResult> promise;
  promise.set_value(std::move(result));
  return promise.get_future();
}

}  // namespace

QueryWorkerPool::QueryWorkerPool(QueryExecutor executor, size_t num_threads)
    : executor_(std::move(executor)) {
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryWorkerPool::~QueryWorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
  // Workers only exit once the queue is empty, so every submitted
  // promise has been fulfilled by now.
}

std::future<QueryResult> QueryWorkerPool::Submit(QueryRequest request) {
  TINPROV_COUNTER_ADD("serve.queries_submitted", 1);
  if (threads_.empty()) {
    return ReadyFuture(executor_(request));
  }
  Item item;
  item.request = request;
  std::future<QueryResult> future = item.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(item));
    TINPROV_GAUGE_SET("serve.queue_depth", queue_.size());
    TINPROV_GAUGE_MAX("serve.queue_peak_depth", queue_.size());
  }
  cv_.notify_one();
  return future;
}

void QueryWorkerPool::WorkerLoop() {
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ && drained
      item = std::move(queue_.front());
      queue_.pop_front();
      TINPROV_GAUGE_SET("serve.queue_depth", queue_.size());
    }
    TINPROV_HISTOGRAM_OBSERVE("serve.queue_wait_ns",
                              item.enqueued.ElapsedNanos());
    item.promise.set_value(executor_(item.request));
  }
}

}  // namespace tinprov
