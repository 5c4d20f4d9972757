// Scaling of the parallel execution layer (google-benchmark): histogram
// convolution and bootstrap resampling at thread counts
// {0 = serial engine, 1, 2, 4, 8}. Thread count 0 runs the no-pool serial
// path; 1 runs the same chunk decomposition through a one-worker pool, so
// comparing the two rows isolates the pool's dispatch overhead (the
// acceptance bar: within a few percent). Rows with more workers than
// hardware cores measure oversubscription, not speedup.

#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <vector>

#include "src/bootstrap/bootstrap_accuracy.h"
#include "src/common/thread_pool.h"
#include "src/dist/convolution.h"
#include "src/dist/histogram.h"

using namespace ausdb;

namespace {

std::unique_ptr<ThreadPool> MakePool(int threads) {
  return threads > 0 ? std::make_unique<ThreadPool>(threads) : nullptr;
}

// --- 512-bin convolution, subdivisions = 4 (the acceptance workload).

void BM_ConvolveHistograms512(benchmark::State& state) {
  std::vector<double> edges;
  std::vector<double> probs;
  const size_t bins = 64;
  for (size_t i = 0; i <= bins; ++i) {
    edges.push_back(static_cast<double>(i));
  }
  for (size_t i = 0; i < bins; ++i) {
    probs.push_back(1.0 / static_cast<double>(bins));
  }
  auto a = dist::HistogramDist::Make(edges, probs);
  auto b = dist::HistogramDist::Make(edges, probs);
  if (!a.ok() || !b.ok()) {
    state.SkipWithError("histogram construction failed");
    return;
  }
  auto pool = MakePool(static_cast<int>(state.range(0)));
  dist::ConvolveOptions opts;
  opts.output_bins = 512;
  opts.subdivisions = 4;
  opts.pool = pool.get();
  for (auto _ : state) {
    auto sum = dist::ConvolveHistograms(*a, *b, opts);
    if (!sum.ok()) {
      state.SkipWithError("convolution failed");
      return;
    }
    benchmark::DoNotOptimize(sum->probs().data());
  }
}
BENCHMARK(BM_ConvolveHistograms512)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// --- Percentile bootstrap, 1000 resamples of a 1000-value sample.

void BM_ParallelBootstrap(benchmark::State& state) {
  std::vector<double> sample(1000);
  for (size_t i = 0; i < sample.size(); ++i) {
    sample[i] = static_cast<double>(i % 97) * 1.5;
  }
  const auto stat = [](std::span<const double> s) {
    double m = 0.0;
    for (double v : s) m += v;
    return m / static_cast<double>(s.size());
  };
  auto pool = MakePool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Rng rng(42);
    auto ci = bootstrap::ParallelPercentileBootstrap(sample, 1000, 0.95,
                                                     stat, rng, pool.get());
    if (!ci.ok()) {
      state.SkipWithError("bootstrap failed");
      return;
    }
    benchmark::DoNotOptimize(ci->lo);
  }
}
BENCHMARK(BM_ParallelBootstrap)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
