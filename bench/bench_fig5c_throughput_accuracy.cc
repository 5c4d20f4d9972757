// Figure 5(c): maximum stream throughput (tuples/second) of
//  (1) query processing only,
//  (2) query processing + analytical accuracy information, and
//  (3) query processing + bootstrap accuracy information.
//
// Setup per the paper (Section V-C): each stream item carries a Gaussian
// learned from 20 generated data points; the query is a count-based
// sliding-window AVG with window size 1000; accuracy information (on mu
// and sigma^2) is computed for each window result.

#include <algorithm>
#include <memory>
#include <vector>

#include "bench/figure_common.h"
#include "src/common/logging.h"
#include "src/engine/accuracy_annotator.h"
#include "src/engine/executor.h"
#include "src/engine/window_aggregate.h"
#include "src/stream/sources.h"
#include "src/stream/throughput.h"

using namespace ausdb;

namespace {

constexpr size_t kTuples = 200000;
constexpr size_t kPointsPerItem = 20;
constexpr size_t kWindow = 1000;
constexpr size_t kPasses = 5;

engine::OperatorPtr MakePipeline(bool annotate,
                                 accuracy::AccuracyMethod method) {
  auto source = stream::MakeLearnedGaussianSource(
      "x", kTuples, kPointsPerItem, 10.0, 2.0, /*seed=*/53);
  auto agg = engine::WindowAggregate::Make(std::move(source), "x", "avg_x",
                                           {.window_size = kWindow});
  AUSDB_CHECK(agg.ok()) << agg.status().ToString();
  if (!annotate) return std::move(*agg);
  engine::AccuracyAnnotatorOptions opts;
  opts.method = method;
  opts.confidence = 0.9;
  opts.bootstrap_resamples = 20;
  return std::make_unique<engine::AccuracyAnnotator>(std::move(*agg),
                                                     opts);
}

// The median of `v` (mean of the middle two for an even count).
double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

}  // namespace

// Runs the three pipelines in kPasses interleaved passes (each pass
// rotates which pipeline goes first) and prints, per pipeline, the median
// throughput with its range and the median of the per-pass ratios to
// QP-only. A single unpaired pass on a shared machine once showed
// "analytical" 1.34x faster than QP-only.
int main() {
  bench::Banner("Figure 5(c)",
                "throughput impact of accuracy information");

  struct Pipeline {
    const char* name;
    bool annotate;
    accuracy::AccuracyMethod method;
    std::vector<double> tps;
    std::vector<double> relative;
  };
  std::vector<Pipeline> pipelines = {
      {"QP_only", false, accuracy::AccuracyMethod::kAnalytical, {}, {}},
      {"analytical", true, accuracy::AccuracyMethod::kAnalytical, {}, {}},
      {"bootstrap", true, accuracy::AccuracyMethod::kBootstrap, {}, {}}};
  for (size_t pass = 0; pass < kPasses; ++pass) {
    for (size_t j = 0; j < pipelines.size(); ++j) {
      Pipeline& p = pipelines[(pass + j) % pipelines.size()];
      engine::OperatorPtr plan = MakePipeline(p.annotate, p.method);
      p.tps.push_back(bench::MeasureTuplesPerSecond(*plan));
    }
    for (Pipeline& p : pipelines) {
      p.relative.push_back(p.tps.back() / pipelines[0].tps.back());
    }
  }

  std::printf("%zu interleaved passes of %zu tuples per pipeline\n",
              kPasses, kTuples);
  bench::PrintRow({"pipeline", "median_tps", "min_tps", "max_tps",
                   "median_relative"},
                  18);
  for (const Pipeline& p : pipelines) {
    bench::PrintRow(
        {p.name, bench::FmtInt(Median(p.tps)),
         bench::FmtInt(*std::min_element(p.tps.begin(), p.tps.end())),
         bench::FmtInt(*std::max_element(p.tps.begin(), p.tps.end())),
         bench::Fmt(Median(p.relative), 3)},
        18);
  }
  std::printf(
      "\nExpected shape (paper): QP-only fastest; analytical close "
      "behind;\nbootstrap somewhat slower; all the same order of "
      "magnitude.\n");
  return 0;
}
