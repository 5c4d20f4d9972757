#include "src/common/thread_pool.h"

#include <array>
#include <atomic>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/math_util.h"

namespace ausdb {
namespace {

TEST(ThreadPoolTest, SpawnsRequestedWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  // Zero is clamped up: a pool that cannot run anything is never wanted.
  ThreadPool minimum(0);
  EXPECT_EQ(minimum.thread_count(), 1u);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, 7, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ChunkBoundariesDependOnlyOnProblemSize) {
  // (n, num_chunks) fully determines the chunk decomposition; the thread
  // count must not appear in it.
  auto decompose = [](size_t threads, size_t n, size_t chunks) {
    ThreadPool pool(threads);
    std::vector<std::array<size_t, 3>> out(chunks, {0, 0, 0});
    pool.ParallelFor(n, chunks, [&](size_t c, size_t b, size_t e) {
      out[c] = {c, b, e};
    });
    return out;
  };
  const auto one = decompose(1, 103, 5);
  EXPECT_EQ(decompose(2, 103, 5), one);
  EXPECT_EQ(decompose(8, 103, 5), one);
  // Chunks tile [0, n) contiguously.
  size_t prev = 0;
  for (const auto& [c, b, e] : one) {
    EXPECT_EQ(b, prev);
    EXPECT_LE(b, e);
    prev = e;
  }
  EXPECT_EQ(prev, 103u);
}

TEST(ThreadPoolTest, ClampsChunkCountToProblemSize) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(3, 16, [&](size_t, size_t begin, size_t end) {
    calls.fetch_add(1);
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 3);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EmptyRangeRunsNothing) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 8, [&](size_t, size_t, size_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, ChunkedReductionIsBitIdenticalAcrossThreadCounts) {
  // Per-chunk private accumulators merged in chunk-index order: the FP
  // operation tree is invariant, so sums agree to the bit.
  const size_t n = 10000;
  const size_t chunks = 64;
  auto value = [](size_t i) {
    return (i % 2 == 0 ? 1e12 : 1e-3) * (1.0 + static_cast<double>(i % 97));
  };
  auto reduce = [&](size_t threads) {
    ThreadPool pool(threads);
    std::vector<KahanSum> partials(chunks);
    pool.ParallelFor(n, chunks, [&](size_t c, size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) partials[c].Add(value(i));
    });
    KahanSum total;
    for (const KahanSum& p : partials) total.Add(p.Get());
    return total.Get();
  };
  const double one = reduce(1);
  EXPECT_EQ(one, reduce(2));
  EXPECT_EQ(one, reduce(8));
}

TEST(ThreadPoolTest, PoolIsReusableAcrossManyLoops) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(64, 8, [&](size_t, size_t b, size_t e) {
      total.fetch_add(e - b);
    });
  }
  EXPECT_EQ(total.load(), 200u * 64u);
}

}  // namespace
}  // namespace ausdb
