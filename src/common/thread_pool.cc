#include "src/common/thread_pool.h"

#include <algorithm>

#include "src/common/logging.h"

namespace ausdb {

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) work_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(
    size_t n, size_t num_chunks,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  AUSDB_CHECK(num_chunks > 0) << "ParallelFor needs at least one chunk";
  if (n == 0) return;
  num_chunks = std::min(num_chunks, n);
  {
    std::lock_guard<std::mutex> lock(mu_);
    AUSDB_CHECK(in_flight_ == 0)
        << "ThreadPool::ParallelFor is not reentrant";
    in_flight_ = num_chunks;
    for (size_t c = 0; c < num_chunks; ++c) {
      const size_t begin = n * c / num_chunks;
      const size_t end = n * (c + 1) / num_chunks;
      queue_.push_back([fn, c, begin, end] { fn(c, begin, end); });
    }
  }
  work_available_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  work_done_.wait(lock, [this] { return in_flight_ == 0; });
}

}  // namespace ausdb
