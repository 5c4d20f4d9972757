// Scaling of the parallel execution layer (google-benchmark): histogram
// convolution, bootstrap resampling and an AQL GROUP BY window at thread
// counts {0 = serial engine, 1, 2, 4, 8}. Thread count 0 runs
// the no-pool serial path; 1 runs the same chunk decomposition through a
// one-worker pool, so comparing the two rows isolates the pool's
// dispatch overhead (the acceptance bar: within a few percent). The
// window fans out only over two or more workers, so its 1-worker row
// runs the serial path with the pool bound. Rows with more workers than
// hardware cores measure oversubscription, not speedup.

#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/bootstrap/bootstrap_accuracy.h"
#include "src/common/thread_pool.h"
#include "src/dist/convolution.h"
#include "src/dist/gaussian.h"
#include "src/dist/histogram.h"
#include "src/dist/learner.h"
#include "src/engine/executor.h"
#include "src/engine/scan.h"
#include "src/query/planner.h"

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

// --- AQL GROUP BY window over >= 1000 distinct keys, planned through
// PlanQuery and drained in batches, fanned out over the pool.

void BM_GroupByWindowDrain(benchmark::State& state) {
  engine::Schema schema;
  if (!schema.AddField({"k", engine::FieldType::kString}).ok() ||
      !schema.AddField({"x", engine::FieldType::kUncertain}).ok()) {
    state.SkipWithError("schema construction failed");
    return;
  }
  const size_t kKeys = 1024;
  const size_t kTuples = 32768;
  std::vector<engine::Tuple> tuples;
  tuples.reserve(kTuples);
  for (size_t i = 0; i < kTuples; ++i) {
    tuples.push_back(engine::Tuple(
        {expr::Value("key" + std::to_string(i % kKeys)),
         expr::Value(dist::RandomVar(
             std::make_shared<dist::GaussianDist>(
                 static_cast<double>(i % 211), 1.0 + (i % 7)),
             20 + i % 30))}));
  }
  auto pool = MakePool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto plan = query::PlanQuery(
        "SELECT AVG(x) OVER (ROWS 16) AS a FROM s GROUP BY k",
        std::make_unique<engine::VectorScan>(schema, tuples));
    if (!plan.ok()) {
      state.SkipWithError("planning failed");
      return;
    }
    auto n = engine::Run(**plan, {.batched = true, .pool = pool.get()});
    if (!n.ok()) {
      state.SkipWithError("drain failed");
      return;
    }
    benchmark::DoNotOptimize(*n);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kTuples));
}
BENCHMARK(BM_GroupByWindowDrain)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
