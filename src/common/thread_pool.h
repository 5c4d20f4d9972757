#ifndef AUSDB_COMMON_THREAD_POOL_H_
#define AUSDB_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ausdb {

/// \brief Fixed-size worker pool with a statically chunked ParallelFor.
///
/// No engine operator or library kernel takes a pool: a query runs on
/// the thread that pulls it. The pool remains for callers that still
/// construct one and hand it to Operator::BindThreadPool, a no-op.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t thread_count() const { return workers_.size(); }

  /// \brief Runs `fn(chunk_index, begin, end)` for every chunk of [0, n)
  /// split into `num_chunks` contiguous ranges of near-equal size, and
  /// blocks until all chunks have finished. Chunk boundaries are a pure
  /// function of (n, num_chunks). `fn` must not touch shared mutable
  /// state except through per-chunk slots.
  void ParallelFor(size_t n, size_t num_chunks,
                   const std::function<void(size_t chunk_index,
                                            size_t begin, size_t end)>& fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable work_done_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ausdb

#endif  // AUSDB_COMMON_THREAD_POOL_H_
