#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/govern/ladder.h"
#include "src/govern/overload_injector.h"
#include "src/stats/random_variates.h"

namespace aqlbench {

using namespace ausdb;

namespace {

constexpr double kSigma = 2.0;

// late_governed: share of tuples displaced, and the largest displacement
// in arrival positions (below the statement's LATENESS 32, so no tuple
// is ever beyond the revision horizon).
constexpr double kDisplacedShare = 0.10;
constexpr uint64_t kMaxDisplacement = 24;

std::vector<WorkloadSpec> BuildWorkloads() {
  std::vector<WorkloadSpec> out;

  const std::string count_window = "SELECT AVG(x) OVER (ROWS 1000) AS a FROM s";
  WorkloadSpec analytical;
  analytical.name = "fig5c_analytical";
  analytical.columns = {Column::kX};
  analytical.sql = count_window + " WITH ACCURACY ANALYTICAL CONFIDENCE 0.9";
  analytical.prefixes = {{"source", "SELECT * FROM s"},
                         {"window", count_window},
                         {"annotator", analytical.sql}};
  analytical.tuples = 300000;
  analytical.smoke_tuples = 4000;
  analytical.window_rows = 1000;
  out.push_back(analytical);

  WorkloadSpec bootstrap = analytical;
  bootstrap.name = "fig5c_bootstrap";
  bootstrap.sql = count_window + " WITH ACCURACY BOOTSTRAP CONFIDENCE 0.9";
  bootstrap.prefixes.back().sql = bootstrap.sql;
  bootstrap.tuples = 80000;
  bootstrap.smoke_tuples = 3000;
  out.push_back(bootstrap);

  const std::string where = " WHERE MTEST(v, '>', 10, 0.05, 0.05)";
  const std::string grouped_window =
      "SELECT AVG(x) OVER (ROWS 50) AS a FROM s" + where + " GROUP BY k";
  WorkloadSpec grouped;
  grouped.name = "grouped_mtest";
  grouped.columns = {Column::kKey, Column::kX, Column::kV};
  grouped.sql = grouped_window + " WITH ACCURACY ANALYTICAL";
  grouped.prefixes = {{"source", "SELECT * FROM s"},
                      {"filter", "SELECT * FROM s" + where},
                      {"window", grouped_window},
                      {"annotator", grouped.sql}};
  grouped.tuples = 150000;
  grouped.smoke_tuples = 8000;
  grouped.window_rows = 50;
  grouped.grouped = true;
  grouped.thread_pool = true;
  grouped.mtest_c = 10.0;
  grouped.mtest_alpha = 0.05;
  out.push_back(grouped);

  const std::string late_window =
      "SELECT AVG(x) OVER (RANGE 1000 ON ts WITHIN 8 LATENESS 32) AS a "
      "FROM s";
  WorkloadSpec late;
  late.name = "late_governed";
  late.columns = {Column::kTs, Column::kX};
  late.sql = late_window + " WITH ACCURACY 0.5 CONFIDENCE 0.9";
  // The reorder prefix needs a window to be expressible in AQL; a
  // RANGE 1 window over unit-spaced event times aggregates one entry,
  // so its cost is charged to the reorder stage.
  late.prefixes = {
      {"source", "SELECT * FROM s", false},
      {"gate", "SELECT * FROM s", true},
      {"reorder", "SELECT AVG(x) OVER (RANGE 1 ON ts WITHIN 8) AS a FROM s",
       true},
      {"time_window", late_window, true},
      {"annotator", late.sql, true}};
  late.tuples = 80000;
  late.smoke_tuples = 9000;
  late.range = 1000.0;
  late.governed = true;
  out.push_back(late);
  return out;
}

void DrawReadings(Rng& rng, double mu, std::vector<double>& out) {
  for (size_t r = 0; r < kReadings; ++r) {
    out.push_back(stats::SampleNormal(rng, mu, kSigma));
  }
}

/// Zipf(1) key sampler over kKeys values by inverse CDF.
class ZipfKeys {
 public:
  ZipfKeys() : cdf_(kKeys) {
    double total = 0.0;
    for (size_t k = 0; k < kKeys; ++k) {
      total += 1.0 / static_cast<double>(k + 1);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Draw(Rng& rng) const {
    const double u = rng.NextDouble();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                            kKeys - 1);
  }

 private:
  std::vector<double> cdf_;
};

void FnvFoldAll(uint64_t& h, const std::vector<double>& values) {
  for (double v : values) FnvFold(h, DoubleBits(v));
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = BuildWorkloads();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs Generate(const WorkloadSpec& spec, uint64_t seed, size_t n) {
  Rng rng(seed);
  Inputs in;
  in.n = n;
  in.x.reserve(n * kReadings);
  in.x_true_mean.reserve(n);
  if (spec.grouped) {
    static const ZipfKeys zipf;
    std::vector<double> key_mean(kKeys);
    for (double& m : key_mean) m = rng.NextDouble(5.0, 15.0);
    in.key.reserve(n);
    in.v.reserve(n * kReadings);
    for (size_t i = 0; i < n; ++i) {
      const size_t k = zipf.Draw(rng);
      in.key.push_back(static_cast<double>(k));
      in.x_true_mean.push_back(key_mean[k]);
      DrawReadings(rng, key_mean[k], in.x);
      DrawReadings(rng, rng.NextDouble(8.0, 12.0), in.v);
    }
    return in;
  }
  for (size_t i = 0; i < n; ++i) {
    in.x_true_mean.push_back(10.0);
    DrawReadings(rng, 10.0, in.x);
  }
  if (spec.range > 0.0) {
    // Event e arrives at position e, or — for a displaced tuple — just
    // after event e + d: the disorder is baked into the arrival order.
    std::vector<std::pair<double, size_t>> arrival(n);
    for (size_t e = 0; e < n; ++e) {
      double slot = static_cast<double>(e);
      if (rng.NextDouble() < kDisplacedShare) {
        slot += static_cast<double>(1 + rng.NextBelow(kMaxDisplacement)) + 0.5;
      }
      arrival[e] = {slot, e};
    }
    std::stable_sort(arrival.begin(), arrival.end());
    in.ts.reserve(n);
    for (const auto& [slot, e] : arrival) {
      in.ts.push_back(static_cast<double>(e));
    }
  }
  return in;
}

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

uint64_t DigestInputs(const Inputs& in) {
  uint64_t h = kFnvOffset;
  FnvFoldAll(h, in.x);
  FnvFoldAll(h, in.v);
  FnvFoldAll(h, in.key);
  FnvFoldAll(h, in.ts);
  return h;
}

engine::Schema MakeSchema(const WorkloadSpec& spec) {
  engine::Schema schema;
  for (Column c : spec.columns) {
    switch (c) {
      case Column::kX:
        AUSDB_CHECK_OK(schema.AddField({"x", engine::FieldType::kUncertain}));
        break;
      case Column::kV:
        AUSDB_CHECK_OK(schema.AddField({"v", engine::FieldType::kUncertain}));
        break;
      case Column::kKey:
        AUSDB_CHECK_OK(schema.AddField({"k", engine::FieldType::kDouble}));
        break;
      case Column::kTs:
        AUSDB_CHECK_OK(schema.AddField({"ts", engine::FieldType::kDouble}));
        break;
    }
  }
  return schema;
}

namespace {

/// Calm, a spike that climbs two rungs, a hold, a second spike that
/// climbs to the last rung, a hold, then calm again so the ladder
/// relaxes back to rung 0. Every spike ends before the governor would
/// escalate past the last rung, so admission control never fires.
/// Phase lengths scale with the stream so the smoke mode runs the same
/// shape.
std::vector<govern::OverloadPhase> GovernScript(size_t tuples) {
  const size_t epochs = tuples / kEpochInterval;
  const auto phase = [](size_t n, double fill) {
    govern::OverloadPhase p;
    p.epochs = std::max<size_t>(2, n);
    p.queue_fill = fill;
    return p;
  };
  constexpr double kCalm = 0.1, kSpike = 0.95, kHold = 0.6;
  return {phase(epochs / 8, kCalm), phase(4, kSpike),
          phase(epochs / 5, kHold), phase(4, kSpike),
          phase(epochs / 8, kHold), phase(1, kCalm)};
}

}  // namespace

query::PlannerOptions MakePlannerOptions(bool governed, size_t tuples,
                                         obs::EventJournal* journal) {
  query::PlannerOptions options;
  options.journal = journal;
  if (governed) {
    options.govern.enabled = true;
    options.govern.governor.epoch_interval = kEpochInterval;
    options.govern.signals = [tuples]() {
      return std::make_unique<govern::OverloadInjector>(GovernScript(tuples));
    };
  }
  return options;
}

size_t LadderRungs() { return govern::LadderPolicy::Default().rungs.size(); }

}  // namespace aqlbench
