// Tour of the distribution learners and their accuracy information:
// histogram, Gaussian MLE and empirical, all from the same raw sample,
// all carrying the provenance the accuracy engine needs, plus
// recency-weighted accuracy over the same sample viewed as a stream.

#include <cstdio>
#include <vector>

#include "src/accuracy/accuracy_info.h"
#include "src/accuracy/weighted_accuracy.h"
#include "src/dist/learner.h"
#include "src/stats/random_variates.h"
#include "src/stats/weighted.h"

using namespace ausdb;

namespace {

bool Report(const char* name, const Result<dist::LearnedDistribution>& r) {
  if (!r.ok()) {
    std::printf("%s: %s\n", name, r.status().ToString().c_str());
    return false;
  }
  const dist::Distribution& d = *r->distribution;
  auto info = accuracy::AnalyticalAccuracy(d, r->sample_size, 0.9);
  std::printf("%-10s %-34s", name, d.ToString().c_str());
  if (info.ok()) {
    std::printf(" mean=%.2f %s", d.Mean(), info->mean_ci->ToString().c_str());
  }
  // Mass in the idle band [30, 50] and the hot band [65, 95].
  std::printf("\n           P(idle)=%.2f P(hot)=%.2f\n",
              d.Cdf(50.0) - d.Cdf(30.0), d.Cdf(95.0) - d.Cdf(65.0));
  return true;
}

}  // namespace

int main() {
  // A bimodal sensor: a machine that idles near 40 and runs hot near 80.
  Rng rng(2026);
  std::vector<double> sample;
  for (int i = 0; i < 60; ++i) {
    sample.push_back(rng.NextDouble() < 0.5
                         ? stats::SampleNormal(rng, 40.0, 3.0)
                         : stats::SampleNormal(rng, 80.0, 5.0));
  }

  std::printf("learning from %zu observations of a bimodal sensor\n\n",
              sample.size());

  // The histogram and the empirical distribution keep both modes; the
  // Gaussian fit spreads their mass over the gap between them.
  if (!Report("histogram", dist::LearnHistogram(sample, {})) ||
      !Report("gaussian", dist::LearnGaussian(sample)) ||
      !Report("empirical", dist::LearnEmpirical(sample))) {
    return 1;
  }

  // Recency weighting (paper Section VII future work): the same data
  // viewed as a drifting stream, newest first with exponential decay.
  auto weights = stats::ExponentialDecayWeights(sample.size(), 0.9);
  if (!weights.ok()) return 1;
  auto n_eff = stats::EffectiveSampleSize(*weights);
  auto weighted_ci = accuracy::WeightedMeanInterval(sample, *weights, 0.9);
  if (!n_eff.ok() || !weighted_ci.ok()) return 1;
  std::printf(
      "\nweighted   decay 0.9: n_raw=%zu but n_eff=%.1f, mean %s\n",
      sample.size(), *n_eff, weighted_ci->ToString().c_str());
  std::printf(
      "           (the intervals use the smaller n_eff, so they\n"
      "            honestly widen)\n");
  return 0;
}
