// AQL end-to-end benchmark.
//
//   aqlbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--smoke] [--trace-dir <dir>]
//
// Each workload is one AQL statement planned by query::PlanQuery over a
// BenchSource filled from the seed. One thread pulls the plan root
// through Operator::NextBatch(DeterministicBatchSize(plan)) until end
// of stream: a closed loop with a single client.
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics of a separate traced run (source spans, prefix-plan
// stage self times, kernel replays, governor counts). The last line of
// stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --smoke runs a tiny input and also prints the digests the
// self-check compares.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "source.h"
#include "src/accuracy/accuracy_info.h"
#include "src/bootstrap/bootstrap_accuracy.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/dist/learner.h"
#include "src/engine/executor.h"
#include "src/hypothesis/coupled_tests.h"
#include "src/hypothesis/mean_tests.h"
#include "src/query/planner.h"
#include "verify.h"
#include "workloads.h"

namespace aqlbench {
namespace {

using namespace ausdb;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      args.trace = std::atoi(value.c_str());
      if (args.trace != 0 && args.trace != 1) return false;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !args.workload.empty();
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// The q-quantile (nearest rank) of `v`, reordering it.
double Quantile(std::vector<int64_t>& v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  const size_t k = std::min(v.size() - 1, rank);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Sees every delivered tuple of an untimed drain.
using Rows = std::function<void(const engine::Tuple&)>;

/// The per-run state every plan of a workload shares.
class Bench {
 public:
  Bench(const WorkloadSpec& spec, const Args& args)
      : spec_(spec),
        args_(args),
        n_(args.smoke ? spec.smoke_tuples : spec.tuples) {
    if (spec.thread_pool) {
      const size_t hw = std::max(2u, std::thread::hardware_concurrency());
      pool_ = std::make_unique<ThreadPool>(std::min<size_t>(3, hw - 1));
    }
  }

  const WorkloadSpec& spec() const { return spec_; }
  const Inputs& inputs() const { return inputs_; }
  const Reference& reference() const { return ref_; }
  size_t n() const { return n_; }

  /// Generates the inputs and plans the statement `reps` times; returns
  /// each set-up's seconds and each PlanQuery's microseconds. The last
  /// generated inputs stay.
  Status SetUp(size_t reps, std::vector<double>& setup_s,
               std::vector<double>& plan_us) {
    for (size_t r = 0; r < reps; ++r) {
      inputs_ = Inputs();
      const int64_t t0 = NowNs();
      inputs_ = Generate(spec_, args_.seed, n_);
      handoff_ns_.assign(n_, 0);
      const int64_t t1 = NowNs();
      AUSDB_ASSIGN_OR_RETURN(engine::OperatorPtr plan,
                             Plan(spec_.sql, spec_.governed));
      const int64_t t2 = NowNs();
      setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
      plan_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
    }
    AUSDB_ASSIGN_OR_RETURN(ref_, BuildReference(spec_, inputs_));
    return Status::OK();
  }

  /// Plans `sql` over a fresh source. `journal` and `tracer` may be
  /// null; the journal must outlive the plan.
  Result<engine::OperatorPtr> Plan(const std::string& sql, bool governed,
                                   obs::EventJournal* journal = nullptr,
                                   Tracer* tracer = nullptr) {
    auto source =
        std::make_unique<BenchSource>(spec_, inputs_, &handoff_ns_, tracer);
    const uint32_t span = tracer ? tracer->Begin(SpanName::kPlanQuery) : 0;
    Result<engine::OperatorPtr> plan = query::PlanQuery(
        sql, std::move(source), MakePlannerOptions(governed, n_, journal));
    if (tracer) tracer->End(span);
    if (plan.ok() && pool_) (*plan)->BindThreadPool(pool_.get());
    return plan;
  }

  struct Pass {
    Status status;
    int64_t elapsed_ns = 0;
    size_t outputs = 0;
    size_t batches = 0;
    uint64_t sequence_digest = 0;
    double p50_us = 0.0;
    double p90_us = 0.0;
  };

  /// Drains `plan` from the first pull to end of stream. Per result it
  /// records the time from its triggering tuple's hand-off to the return
  /// of the NextBatch that delivered it. `rows` (untimed runs only) sees
  /// every delivered tuple.
  Pass Drain(engine::Operator& plan, Tracer* tracer = nullptr,
             const Rows* rows = nullptr) {
    Pass pass;
    const size_t batch_size = engine::DeterministicBatchSize(plan);
    engine::TupleBatch batch;
    latencies_.clear();
    const int64_t start = NowNs();
    for (;;) {
      const uint32_t span = tracer ? tracer->Begin(SpanName::kRootPull) : 0;
      const Status status = plan.NextBatch(batch_size, batch);
      const int64_t now = NowNs();
      if (tracer) tracer->End(span);
      if (!status.ok()) {
        pass.status = status;
        break;
      }
      if (batch.empty()) break;
      ++pass.batches;
      pass.outputs += batch.size();
      for (const engine::Tuple& t : batch.rows()) {
        if (t.sequence() >= n_) {
          pass.status = Status::Internal("output carries an unknown sequence");
          break;
        }
        latencies_.push_back(now - handoff_ns_[t.sequence()]);
        pass.sequence_digest = pass.sequence_digest * 1000003u + t.sequence();
      }
      if (!pass.status.ok()) break;
      if (rows != nullptr) {
        for (const engine::Tuple& t : batch.rows()) (*rows)(t);
      }
    }
    pass.elapsed_ns = NowNs() - start;
    pass.p50_us = Quantile(latencies_, 0.5) * 1e-3;
    pass.p90_us = Quantile(latencies_, 0.9) * 1e-3;
    return pass;
  }

 private:
  const WorkloadSpec& spec_;
  const Args& args_;
  const size_t n_;
  Inputs inputs_;
  Reference ref_;
  std::vector<int64_t> handoff_ns_;
  std::vector<int64_t> latencies_;
  std::unique_ptr<ThreadPool> pool_;
};

/// Result line accumulator.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Fail(const std::string& why) {
    correct = false;
    std::fprintf(stderr, "aqlbench: %s\n", why.c_str());
  }
  void Print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
      const double v = std::isfinite(metrics[i].second.first)
                           ? metrics[i].second.first
                           : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].first.c_str(), v,
                  metrics[i].second.second.c_str());
    }
    std::printf("}}\n");
  }
};

/// Journal tallies of one plan run.
struct Journaled {
  size_t escalations = 0;
  size_t relaxations = 0;
  size_t breaker_trips = 0;
  size_t rechoices = 0;
};

Journaled ReadJournal(const obs::EventJournal& journal) {
  Journaled j;
  for (const obs::EventRecord& e : journal.Events()) {
    switch (e.type) {
      case obs::EventType::kRungEscalation:
        ++j.escalations;
        break;
      case obs::EventType::kRungRelaxation:
        ++j.relaxations;
        break;
      case obs::EventType::kBreakerTrip:
        ++j.breaker_trips;
        break;
      case obs::EventType::kCostRechoice:
        ++j.rechoices;
        break;
      default:
        break;
    }
  }
  return j;
}

// Enough for every late revision of the largest governed stream.
constexpr size_t kJournalCapacity = 1 << 17;

/// What the verified drain saw.
struct Verified {
  Verdict verdict;
  Journaled journal;
  size_t pass_outputs = 0;
  uint64_t sequence_digest = 0;
  /// Pulls the governor refused (admission control or open breaker).
  size_t refused_pulls = 0;
  /// Delivered mean intervals' inputs, for the kernel replays.
  std::vector<std::pair<dist::RandomVar, accuracy::AccuracyInfo>> annotated;
};

/// The verified drain every run starts with: every delivered tuple is
/// checked against the reference, and — on the governed workload — the
/// scripted governor must escalate at least two rungs, relax back and
/// never refuse. Keeps up to `keep_annotated` delivered annotations for
/// the kernel replays and counts failures into `report`.
Result<Verified> VerifiedDrain(Bench& bench, Report& report,
                               size_t keep_annotated) {
  const WorkloadSpec& spec = bench.spec();
  obs::EventJournal journal(kJournalCapacity);
  AUSDB_ASSIGN_OR_RETURN(engine::OperatorPtr plan,
                         bench.Plan(spec.sql, spec.governed, &journal));
  Verified v;
  Verifier verifier(spec, bench.inputs(), bench.reference(), plan->schema());
  AUSDB_ASSIGN_OR_RETURN(const size_t agg, plan->schema().IndexOf("a"));
  const Rows rows = [&](const engine::Tuple& t) {
    verifier.Observe(t);
    if (v.annotated.size() < keep_annotated && agg < t.accuracy().size() &&
        t.accuracy()[agg].has_value()) {
      Result<dist::RandomVar> rv = t.value(agg).random_var();
      if (rv.ok()) v.annotated.emplace_back(*rv, *t.accuracy()[agg]);
    }
  };
  const Bench::Pass pass = bench.Drain(*plan, nullptr, &rows);
  v.verdict = verifier.Finish();
  v.journal = ReadJournal(journal);
  v.pass_outputs = pass.outputs;
  v.sequence_digest = pass.sequence_digest;
  report.attempted += bench.n();
  if (!pass.status.ok()) {
    v.refused_pulls = pass.status.code() == StatusCode::kOverloaded ||
                      pass.status.code() == StatusCode::kUnavailable;
    report.failed += bench.n();
    report.Fail("verification drain failed: " + pass.status.ToString());
    return v;
  }
  if (v.verdict.mismatches > 0) {
    report.failed += v.verdict.mismatches;
    report.Fail(std::to_string(v.verdict.mismatches) +
                " outputs fail verification; first: " +
                v.verdict.first_mismatch);
  }
  if (journal.dropped() > 0) report.Fail("event journal overflowed");
  if (spec.governed) {
    const Journaled& j = v.journal;
    if (j.escalations < 2 || j.relaxations != j.escalations ||
        j.breaker_trips > 0) {
      report.failed += 1 + j.breaker_trips;
      report.Fail("governor script did not climb two rungs and relax "
                  "without refusing (escalations " +
                  std::to_string(j.escalations) + ", relaxations " +
                  std::to_string(j.relaxations) + ", breaker trips " +
                  std::to_string(j.breaker_trips) + ")");
    }
  }
  return v;
}

/// Counts a timed pass's failures: a failed pull loses the whole pass,
/// and a pass that delivers other tuples than the verified one fails.
void Account(const Bench& bench, const Bench::Pass& pass,
             const Verified& verified, Report& report) {
  report.attempted += bench.n();
  if (!pass.status.ok()) {
    report.failed += bench.n();
    report.Fail("drain failed: " + pass.status.ToString());
  } else if (pass.outputs != verified.pass_outputs ||
             pass.sequence_digest != verified.sequence_digest) {
    const size_t diff = pass.outputs > verified.pass_outputs
                            ? pass.outputs - verified.pass_outputs
                            : verified.pass_outputs - pass.outputs;
    report.failed += std::max<size_t>(1, diff);
    report.Fail("a timed drain delivered different tuples than the "
                "verified one");
  }
}

/// Sets the run up `reps` times, then runs the verified drain.
Result<Verified> Prepare(Bench& bench, size_t reps, size_t keep_annotated,
                         Report& report, std::vector<double>& setup_s,
                         std::vector<double>& plan_us) {
  AUSDB_RETURN_NOT_OK(bench.SetUp(reps, setup_s, plan_us));
  return VerifiedDrain(bench, report, keep_annotated);
}

constexpr size_t kMinTimedPasses = 3;

int RunEndToEnd(Bench& bench, const Args& args) {
  Report report;
  std::vector<double> setup_s, plan_us;
  Result<Verified> verified =
      Prepare(bench, args.smoke ? 2 : 7, 0, report, setup_s, plan_us);
  if (!verified.ok()) {
    std::fprintf(stderr, "aqlbench: %s\n",
                 verified.status().ToString().c_str());
    return 1;
  }
  const WorkloadSpec& spec = bench.spec();
  std::vector<double> p50, p90;
  int64_t drain_ns = 0;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  while (p50.size() < kMinTimedPasses || NowNs() < deadline) {
    obs::EventJournal journal(kJournalCapacity);
    Result<engine::OperatorPtr> plan =
        bench.Plan(spec.sql, spec.governed, &journal);
    if (!plan.ok()) {
      std::fprintf(stderr, "aqlbench: %s\n", plan.status().ToString().c_str());
      return 1;
    }
    const Bench::Pass pass = bench.Drain(**plan);
    Account(bench, pass, *verified, report);
    if (!pass.status.ok()) break;
    drain_ns += pass.elapsed_ns;
    p50.push_back(pass.p50_us);
    p90.push_back(pass.p90_us);
  }

  const Verdict& verdict = verified->verdict;
  std::printf("%s seed %llu: %zu inputs, %zu outputs, %zu timed drains\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              bench.n(), verdict.outputs, p50.size());
  if (args.smoke) {
    std::printf("smoke inputs_digest=%016llx output_digest=%016llx "
                "ci_coverage=%.17g ci_halfwidth_mean=%.17g escalations=%zu "
                "relaxations=%zu refusals=%zu\n",
                static_cast<unsigned long long>(DigestInputs(bench.inputs())),
                static_cast<unsigned long long>(verdict.digest),
                verdict.coverage(), verdict.halfwidth_mean(),
                verified->journal.escalations, verified->journal.relaxations,
                verified->refused_pulls + verified->journal.breaker_trips);
  }
  // The host's speed switches between states about a quarter apart. A
  // median over drains jumps between them when a run holds a near-even
  // mix; the aggregate rate and the mean of per-drain percentiles move
  // smoothly with the mix.
  report.Add("throughput_tps",
             drain_ns > 0 ? static_cast<double>(bench.n() * p50.size()) /
                                (static_cast<double>(drain_ns) * 1e-9)
                          : 0.0,
             "1/s");
  report.Add("latency_p50_us", Mean(p50), "us");
  report.Add("latency_p90_us", Mean(p90), "us");
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  const double attempted =
      static_cast<double>(std::max<uint64_t>(1, report.attempted));
  report.Add("ok_frac",
             1.0 - static_cast<double>(report.failed) / attempted, "ratio");
  report.Add("ci_coverage", verdict.coverage(), "ratio");
  report.Add("ci_halfwidth_mean", verdict.halfwidth_mean(), "value");
  report.Print();
  return 0;
}

// ---------------------------------------------------------------------
// Traced run.

struct SpanTotals {
  int64_t learn_ns = 0;
  int64_t handoff_ns = 0;
  int64_t pull_ns = 0;
  size_t spans = 0;
};

SpanTotals Totals(const Tracer& tracer) {
  SpanTotals t;
  for (const Span& s : tracer.spans()) {
    const int64_t d = s.end_ns - s.start_ns;
    switch (s.name) {
      case SpanName::kLearn:
        t.learn_ns += d;
        break;
      case SpanName::kSourceHandoff:
        t.handoff_ns += d;
        break;
      case SpanName::kRootPull:
        t.pull_ns += d;
        break;
      case SpanName::kPlanQuery:
        break;
    }
  }
  t.spans = tracer.spans().size();
  return t;
}

/// Median ns per call of `calls` invocations of `fn`, over timed rounds
/// until `budget_ns` is spent (at least 3 rounds).
double ReplayNsPerCall(size_t calls, int64_t budget_ns,
                       const std::function<bool(size_t)>& fn, bool& ok) {
  if (calls == 0) return 0.0;
  std::vector<double> per_call;
  const int64_t deadline = NowNs() + budget_ns;
  while (per_call.size() < 3 || NowNs() < deadline) {
    const int64_t start = NowNs();
    for (size_t i = 0; i < calls; ++i) ok = fn(i) && ok;
    per_call.push_back(static_cast<double>(NowNs() - start) /
                       static_cast<double>(calls));
  }
  return Median(per_call);
}

// Kernel replays time at most this many calls per round.
constexpr size_t kReplayCalls = 20000;

int RunTraced(Bench& bench, const Args& args) {
  Report report;
  const WorkloadSpec& spec = bench.spec();
  const double n = static_cast<double>(bench.n());
  std::vector<double> setup_s, plan_us;
  Result<Verified> verified =
      Prepare(bench, 3, kReplayCalls, report, setup_s, plan_us);
  if (!verified.ok()) {
    std::fprintf(stderr, "aqlbench: %s\n",
                 verified.status().ToString().c_str());
    return 1;
  }
  const Verdict& verdict = verified->verdict;
  const int64_t budget = static_cast<int64_t>(args.seconds * 1e9);
  bool ok = true;

  // Paired untraced / traced drains of the full statement.
  Tracer tracer;
  std::vector<double> plain_tps, traced_tps, learn, source_self, pull_self,
      spans;
  Bench::Pass last;
  int64_t deadline = NowNs() + budget * 35 / 100;
  for (size_t round = 0; traced_tps.size() < 2 || NowNs() < deadline;
       ++round) {
    // Alternate which side of the pair runs first.
    for (size_t i = 0; i < 2 && ok; ++i) {
      const bool traced = (i + round) % 2 == 1;
      obs::EventJournal journal(kJournalCapacity);
      // The tracer keeps the last traced drain's spans for the trace file.
      if (traced) tracer.Clear();
      Tracer* t = traced ? &tracer : nullptr;
      Result<engine::OperatorPtr> plan =
          bench.Plan(spec.sql, spec.governed, &journal, t);
      if (!plan.ok()) {
        std::fprintf(stderr, "aqlbench: %s\n",
                     plan.status().ToString().c_str());
        return 1;
      }
      const Bench::Pass pass = bench.Drain(**plan, t);
      Account(bench, pass, *verified, report);
      ok = pass.status.ok();
      const double tps =
          n / (static_cast<double>(pass.elapsed_ns) * 1e-9);
      if (!traced) {
        plain_tps.push_back(tps);
        continue;
      }
      traced_tps.push_back(tps);
      const SpanTotals s = Totals(tracer);
      learn.push_back(static_cast<double>(s.learn_ns) / n);
      source_self.push_back(static_cast<double>(s.handoff_ns - s.learn_ns) / n);
      pull_self.push_back(static_cast<double>(s.pull_ns - s.handoff_ns) / n);
      spans.push_back(static_cast<double>(s.spans));
      last = pass;
    }
    if (!ok) break;
  }
  if (!args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/" + spec.name + ".spans.tsv";
    if (!tracer.WriteTsv(path)) report.Fail("cannot write " + path);
  }

  // Prefix chain: drain each prefix in turn, round-robin, alternating
  // the direction so no stage always runs right after a given other.
  const size_t stages = spec.prefixes.size();
  std::vector<std::vector<double>> drain_ns(stages);
  std::vector<size_t> tuples_out(stages, 0);
  const auto plan_prefix = [&](const Prefix& prefix,
                               obs::EventJournal& journal) {
    Result<engine::OperatorPtr> plan =
        bench.Plan(prefix.sql, prefix.governed, &journal);
    if (!plan.ok()) {
      std::fprintf(stderr, "aqlbench: prefix %s: %s\n", prefix.sql.c_str(),
                   plan.status().ToString().c_str());
    }
    return plan;
  };
  deadline = NowNs() + budget * 45 / 100;
  for (size_t round = 0; ok && (round < 3 || NowNs() < deadline); ++round) {
    for (size_t j = 0; j < stages && ok; ++j) {
      const size_t k = round % 2 ? stages - 1 - j : j;
      obs::EventJournal journal(kJournalCapacity);
      Result<engine::OperatorPtr> plan = plan_prefix(spec.prefixes[k], journal);
      if (!plan.ok()) return 1;
      const Bench::Pass pass = bench.Drain(**plan);
      ok = pass.status.ok();
      if (!ok) report.Fail("prefix drain failed: " + pass.status.ToString());
      drain_ns[k].push_back(static_cast<double>(pass.elapsed_ns));
      tuples_out[k] = pass.outputs;
    }
  }

  // The gate prefix delivers the source tuples with their rung stamps.
  std::vector<size_t> rung_tuples(LadderRungs(), 0);
  for (const Prefix& prefix : spec.prefixes) {
    if (prefix.stage != "gate" || !ok) continue;
    obs::EventJournal journal(kJournalCapacity);
    Result<engine::OperatorPtr> plan = plan_prefix(prefix, journal);
    if (!plan.ok()) return 1;
    const Rows count_rungs = [&](const engine::Tuple& t) {
      if (t.precision_rung() < rung_tuples.size()) {
        ++rung_tuples[t.precision_rung()];
      }
    };
    ok = bench.Drain(**plan, nullptr, &count_rungs).status.ok();
  }

  // Kernel replays on the inputs this workload feeds each kernel.
  const Inputs& in = bench.inputs();
  const int64_t replay_budget = budget * 20 / 100 / 4;
  size_t uncertain = 0;
  for (Column c : spec.columns) {
    uncertain += c == Column::kX || c == Column::kV;
  }
  const size_t learn_calls = std::min(kReplayCalls, bench.n());
  const double learn_ns = ReplayNsPerCall(
      learn_calls, replay_budget,
      [&](size_t i) {
        return dist::LearnGaussian(std::span<const double>(
                                       in.x.data() + i * kReadings, kReadings))
            .ok();
      },
      ok);
  std::vector<const std::pair<dist::RandomVar, accuracy::AccuracyInfo>*>
      analytical, bootstrap;
  for (const auto& a : verified->annotated) {
    (a.second.method == accuracy::AccuracyMethod::kBootstrap ? bootstrap
                                                              : analytical)
        .push_back(&a);
  }
  const double analytical_ns = ReplayNsPerCall(
      analytical.size(), replay_budget,
      [&](size_t i) {
        const auto& [rv, info] = *analytical[i];
        return accuracy::AnalyticalAccuracy(*rv.distribution(),
                                            info.sample_size, spec.confidence)
            .ok();
      },
      ok);
  Rng rng(args.seed);
  const double bootstrap_ns = ReplayNsPerCall(
      bootstrap.size(), replay_budget,
      [&](size_t i) {
        const auto& [rv, info] = *bootstrap[i];
        return bootstrap::BootstrapAccuracyFromDistribution(
                   *rv.distribution(), info.sample_size,
                   kBootstrapResamples, spec.confidence, rng)
            .ok();
      },
      ok);
  const std::vector<hypothesis::SampleStatistics>& v_stats =
      bench.reference().v_stats;
  const double mtest_ns = ReplayNsPerCall(
      std::min(kReplayCalls, v_stats.size()), replay_budget,
      [&](size_t i) {
        const hypothesis::SampleStatistics& s = v_stats[i];
        return hypothesis::CoupledTests(
                   [&s, &spec](hypothesis::TestOp op, double alpha) {
                     return hypothesis::MeanTest(s, op, spec.mtest_c, alpha);
                   },
                   hypothesis::TestOp::kGreater, spec.mtest_alpha,
                   spec.mtest_alpha)
            .ok();
      },
      ok);
  if (!ok) report.Fail("a kernel replay or drain failed");

  std::printf("%s seed %llu traced: %zu inputs, %zu outputs\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              bench.n(), verdict.outputs);

  // A stage's self time is the median, over rounds, of its prefix's
  // drain minus the drain of the prefix below it in the same round —
  // adjacent drains, so slow drift of the machine cancels. The stages
  // telescope: their sum is the full statement's drain time.
  std::map<std::string, double> self_ns;
  std::map<std::string, double> out;
  double drain_sum = 0.0;
  for (size_t k = 0; k < stages; ++k) {
    std::vector<double> diffs;
    const size_t rounds =
        k ? std::min(drain_ns[k].size(), drain_ns[k - 1].size())
          : drain_ns[k].size();
    for (size_t r = 0; r < rounds; ++r) {
      diffs.push_back(drain_ns[k][r] - (k ? drain_ns[k - 1][r] : 0.0));
    }
    const double self = Median(diffs) / n;
    self_ns[spec.prefixes[k].stage] = self;
    out[spec.prefixes[k].stage] = static_cast<double>(tuples_out[k]);
    drain_sum += self;
    std::printf("  stage %-12s self %10.1f ns/in  out %zu   [%s]\n",
                spec.prefixes[k].stage.c_str(),
                self_ns[spec.prefixes[k].stage], tuples_out[k],
                spec.prefixes[k].sql.c_str());
  }
  const auto stage = [&](const std::map<std::string, double>& m,
                         const char* name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };

  report.Add("dist.learn_ns_per_tuple", Median(learn), "ns");
  report.Add("dist.learn_replay_ns_per_call", learn_ns, "ns");
  report.Add("dist.learn_calls", n * static_cast<double>(uncertain), "count");
  report.Add("stream.source_self_ns_per_tuple", Median(source_self), "ns");
  report.Add("engine.pull_self_ns_per_in", Median(pull_self), "ns");
  report.Add("engine.drain_ns_per_in", drain_sum, "ns");
  for (const char* name : {"source", "gate", "filter", "reorder", "window",
                           "time_window", "annotator"}) {
    report.Add(std::string("engine.") + name + ".self_ns_per_in",
               stage(self_ns, name), "ns");
    report.Add(std::string("engine.") + name + ".tuples_out", stage(out, name),
               "count");
  }
  report.Add("engine.filter.selectivity",
             spec.grouped ? stage(out, "filter") / n : 1.0, "ratio");
  report.Add("engine.time_window.revision_frac",
             verdict.outputs ? static_cast<double>(verdict.revisions) /
                                   static_cast<double>(verdict.outputs)
                             : 0.0,
             "ratio");
  report.Add("engine.window.max_key_share", verdict.max_key_share, "ratio");
  report.Add("engine.root_batches", static_cast<double>(last.batches),
             "count");
  report.Add("engine.batch_rows",
             last.batches ? static_cast<double>(last.outputs) /
                                static_cast<double>(last.batches)
                          : 0.0,
             "rows");
  report.Add("bootstrap.calls", static_cast<double>(verdict.bootstrap),
             "count");
  report.Add("bootstrap.ns_per_call", bootstrap_ns, "ns");
  report.Add("bootstrap.estimate_outside_frac",
             verdict.bootstrap ? static_cast<double>(
                                     verdict.bootstrap_estimate_outside) /
                                     static_cast<double>(verdict.bootstrap)
                               : 0.0,
             "ratio");
  report.Add("bootstrap.values_per_call",
             bootstrap.empty() ? 0.0
                               : static_cast<double>(kBootstrapResamples *
                                                     kReadings),
             "count");
  report.Add("accuracy.analytical_calls",
             static_cast<double>(verdict.analytical), "count");
  report.Add("accuracy.analytical_ns_per_call", analytical_ns, "ns");
  report.Add("hypothesis.mtest_calls", static_cast<double>(v_stats.size()),
             "count");
  report.Add("hypothesis.mtest_ns_per_call", mtest_ns, "ns");
  for (size_t r = 0; r < rung_tuples.size(); ++r) {
    report.Add("govern.rung_epochs.r" + std::to_string(r),
               static_cast<double>(rung_tuples[r]) / kEpochInterval, "epochs");
  }
  report.Add("govern.escalations",
             static_cast<double>(verified->journal.escalations), "count");
  report.Add("govern.relaxations",
             static_cast<double>(verified->journal.relaxations), "count");
  report.Add("govern.refusals",
             static_cast<double>(verified->refused_pulls +
                                 verified->journal.breaker_trips),
             "count");
  report.Add("cost.rechoices", static_cast<double>(verified->journal.rechoices),
             "count");
  report.Add("query.plan_us", Median(plan_us), "us");
  std::vector<double> overhead;
  for (size_t i = 0; i < std::min(plain_tps.size(), traced_tps.size()); ++i) {
    overhead.push_back(1.0 - traced_tps[i] / plain_tps[i]);
  }
  report.Add("trace.overhead_frac", Median(overhead), "ratio");
  report.Add("trace.spans_per_drain", Median(spans), "count");
  report.Print();
  return 0;
}

}  // namespace
}  // namespace aqlbench

int main(int argc, char** argv) {
  aqlbench::Args args;
  if (!aqlbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: aqlbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--smoke] [--trace-dir <dir>]\n");
    return 2;
  }
  const aqlbench::WorkloadSpec* spec = aqlbench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "aqlbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  aqlbench::Bench bench(*spec, args);
  return args.trace ? aqlbench::RunTraced(bench, args)
                    : aqlbench::RunEndToEnd(bench, args);
}
