// Async ingestion overlap (google-benchmark): a source whose every pull
// stalls on simulated I/O (the CLARO-style high-volume regime where
// ingestion latency, not math, bounds throughput) feeding a partitioned
// window aggregation. Queue depth 0 is the synchronous baseline; depths
// {1, 4, 64} pull the same source through AsyncPrefetchSource, so the
// stall overlaps with window processing. The acceptance bar is >= 1.3x
// items/s over the depth-0 row on the stalled source; the no-stall rows
// bound the wrapper's own overhead. Output is bit-identical across all
// rows by the determinism contract (asserted by the equivalence tests,
// not re-measured here).

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/logging.h"
#include "src/dist/gaussian.h"
#include "src/engine/accuracy_annotator.h"
#include "src/engine/executor.h"
#include "src/engine/scan.h"
#include "src/engine/window_aggregate.h"
#include "src/stream/async_prefetch_source.h"

using namespace ausdb;

namespace {

constexpr size_t kTuples = 512;
constexpr size_t kKeys = 16;
constexpr size_t kWindow = 16;

// Bootstrap resamples for the accuracy annotation stage — sized so the
// per-tuple compute is of the same order as the simulated I/O stall,
// the regime where prefetch overlap pays.
constexpr size_t kResamples = 250;

// Source of deterministic keyed Gaussian tuples; every pull blocks for
// `stall_us` microseconds of simulated I/O before returning.
engine::OperatorPtr MakeStalledSource(size_t count, int stall_us) {
  engine::Schema schema;
  AUSDB_CHECK_OK(schema.AddField({"k", engine::FieldType::kString}));
  AUSDB_CHECK_OK(schema.AddField({"x", engine::FieldType::kUncertain}));
  auto produced = std::make_shared<size_t>(0);
  return std::make_unique<engine::StreamScan>(
      std::move(schema),
      [produced, count,
       stall_us]() -> Result<std::optional<engine::Tuple>> {
        if (*produced >= count) {
          return std::optional<engine::Tuple>(std::nullopt);
        }
        if (stall_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
        }
        const size_t i = (*produced)++;
        return std::optional<engine::Tuple>(engine::Tuple(
            {expr::Value("key" + std::to_string(i % kKeys)),
             expr::Value(dist::RandomVar(
                 std::make_shared<dist::GaussianDist>(
                     static_cast<double>(i % 211), 1.0 + (i % 7)),
                 20 + i % 30))}));
      });
}

// The downstream work the prefetch overlaps with: a grouped window
// aggregation followed by bootstrap accuracy annotation — the
// paper's accuracy-carrying hot path, and genuinely compute-heavy
// (kResamples d.f. resamples per output tuple).
Result<engine::OperatorPtr> MakePipeline(engine::OperatorPtr source) {
  engine::WindowAggregateOptions opts;
  opts.window_size = kWindow;
  AUSDB_ASSIGN_OR_RETURN(auto agg,
                         engine::WindowAggregate::Make(std::move(source), "x",
                                                       "avg", opts, "k"));
  engine::AccuracyAnnotatorOptions aopts;
  aopts.method = accuracy::AccuracyMethod::kBootstrap;
  aopts.bootstrap_resamples = kResamples;
  return engine::OperatorPtr(std::make_unique<engine::AccuracyAnnotator>(
      std::move(agg), aopts));
}

// range(0): queue depth (0 = synchronous, no wrapper).
// range(1): per-pull stall in microseconds.
void BM_IngestPipeline(benchmark::State& state) {
  const size_t depth = static_cast<size_t>(state.range(0));
  const int stall_us = static_cast<int>(state.range(1));
  for (auto _ : state) {
    engine::OperatorPtr source = MakeStalledSource(kTuples, stall_us);
    if (depth > 0) {
      stream::AsyncPrefetchOptions opts;
      opts.queue_depth = depth;
      source = stream::MakeAsyncPrefetch(std::move(source), opts);
    }
    auto pipeline = MakePipeline(std::move(source));
    if (!pipeline.ok()) {
      state.SkipWithError("pipeline construction failed");
      return;
    }
    auto n = engine::Run(**pipeline);
    if (!n.ok() || *n == 0) {
      state.SkipWithError("drain failed");
      return;
    }
    benchmark::DoNotOptimize(*n);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kTuples));
  state.counters["queue_depth"] =
      benchmark::Counter(static_cast<double>(depth));
  state.counters["stall_us"] =
      benchmark::Counter(static_cast<double>(stall_us));
}
// I/O-stalled source (20us per pull): the overlap win.
BENCHMARK(BM_IngestPipeline)
    ->Args({0, 20})->Args({1, 20})->Args({4, 20})->Args({64, 20})
    ->Unit(benchmark::kMillisecond)->UseRealTime();
// No stall: upper bound on the wrapper's hand-off overhead.
BENCHMARK(BM_IngestPipeline)
    ->Args({0, 0})->Args({64, 0})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Raw source drain without downstream work: overlap cannot help here
// (there is nothing to overlap with), isolating queue hand-off cost on
// a stalled source.
void BM_RawSourceDrain(benchmark::State& state) {
  const size_t depth = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    engine::OperatorPtr source = MakeStalledSource(kTuples, 20);
    if (depth > 0) {
      stream::AsyncPrefetchOptions opts;
      opts.queue_depth = depth;
      source = stream::MakeAsyncPrefetch(std::move(source), opts);
    }
    auto n = engine::Run(*source);
    if (!n.ok()) {
      state.SkipWithError("drain failed");
      return;
    }
    benchmark::DoNotOptimize(*n);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kTuples));
}
BENCHMARK(BM_RawSourceDrain)
    ->Arg(0)->Arg(64)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
