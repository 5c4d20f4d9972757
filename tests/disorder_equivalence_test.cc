// Disorder-equivalence harness: a seeded DisorderInjector replays the
// exact same disorder against pipeline variants (prefetch depths, thread
// counts), and the post-revision output must fold to the in-order run
// byte for byte. Plus the reorder-aware crash-point sweep: for every
// crash instant — including ones with tuples resident in the
// ReorderBuffer — the recovered pipeline's output is bit-identical.
// Bootstrap annotation above the revising windows folds the same way:
// its intervals are a pure function of the annotated value.

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/fault_injector.h"
#include "src/common/logging.h"
#include "src/dist/gaussian.h"
#include "src/dist/histogram.h"
#include "src/dist/learner.h"
#include "src/engine/accuracy_annotator.h"
#include "src/engine/executor.h"
#include "src/engine/recovery_manager.h"
#include "src/engine/reorder_buffer.h"
#include "src/engine/scan.h"
#include "src/engine/time_window_aggregate.h"
#include "src/serde/checkpoint.h"
#include "src/serde/json_writer.h"
#include "src/stream/async_prefetch_source.h"
#include "src/stream/disorder_injector.h"
#include "src/stream/replayable_source.h"
#include "src/workload/family_distribution.h"

namespace ausdb {
namespace {

namespace fs = std::filesystem;

using engine::Collect;
using engine::FieldType;
using engine::OperatorPtr;
using engine::ReorderBuffer;
using engine::ReorderBufferOptions;
using engine::Schema;
using engine::TimeWindowAggregate;
using engine::TimeWindowOptions;
using engine::Tuple;
using engine::VectorScan;

// Fresh scratch directory per test case (removed on destruction). The
// crash-point sweeps write, fsync and rename a checkpoint at every crash
// point, and on a disk each sync takes milliseconds, so the directory
// lives on tmpfs (/dev/shm) where the host has one. The write, fsync,
// rename and directory-fsync calls are the same on either file system.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    std::error_code ec;
    const fs::path root = fs::is_directory("/dev/shm", ec)
                              ? fs::path("/dev/shm")
                              : fs::temp_directory_path();
    path_ = (root /
             ("ausdb_disorder_" + tag + "_" + std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Schema TsSchema() {
  Schema s;
  EXPECT_TRUE(s.AddField({"ts", FieldType::kDouble}).ok());
  EXPECT_TRUE(s.AddField({"x", FieldType::kUncertain}).ok());
  return s;
}

// Event-ordered stream ts = 0..count-1 with distinct per-tuple values.
std::vector<Tuple> OrderedStream(size_t count) {
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < count; ++i) {
    Tuple t({expr::Value(static_cast<double>(i)),
             expr::Value(dist::RandomVar(
                 std::make_shared<dist::GaussianDist>(3.0 * i + 1.0, 1.0),
                 10))});
    t.set_sequence(i);
    tuples.push_back(std::move(t));
  }
  return tuples;
}

// The JSON of an output's aggregate value, followed by its accuracy
// annotation when it carries one.
std::string ValueAndAccuracyJson(const Tuple& t) {
  std::string json = serde::ToJson(t.value(0));
  if (!t.accuracy().empty() && t.accuracy()[0].has_value()) {
    json += " _accuracy " + serde::ToJson(*t.accuracy()[0]);
  }
  return json;
}

// Folds a revision-mode output stream by window end, keeping the last
// value (and `_accuracy`) JSON per end — the downstream consumer
// contract.
std::map<double, std::string> FoldByWindowEnd(
    const std::vector<Tuple>& outputs) {
  std::map<double, std::string> fold;
  for (const Tuple& t : outputs) {
    fold[*t.value(1).double_value()] = ValueAndAccuracyJson(t);
  }
  return fold;
}

// A bootstrap annotator above `plan` (the Gaussian sufficient-statistic
// path; histogram fields take the printed algorithm).
OperatorPtr BootstrapAnnotated(OperatorPtr plan) {
  engine::AccuracyAnnotatorOptions ao;
  ao.method = accuracy::AccuracyMethod::kBootstrap;
  ao.bootstrap_resamples = 20;
  ao.seed = 0xB0075ull;
  return std::make_unique<engine::AccuracyAnnotator>(std::move(plan), ao);
}

TimeWindowOptions RevisionOptions() {
  TimeWindowOptions two;
  two.duration = 6.0;
  two.require_ordered = false;
  two.emit_revisions = true;
  two.allowed_lateness = 20.0;
  return two;
}

// The full event-time pipeline under test: seeded disorder -> optional
// async prefetch -> bounded-lateness reorder -> revising time window ->
// optional bootstrap annotator.
Result<std::vector<Tuple>> RunDisordered(size_t count,
                                         const stream::DisorderSpec& spec,
                                         size_t queue_depth,
                                         uint64_t* shed_late = nullptr,
                                         bool annotate = false) {
  OperatorPtr plan = std::make_unique<VectorScan>(TsSchema(),
                                                  OrderedStream(count));
  plan = std::make_unique<stream::DisorderInjector>(std::move(plan), spec);
  if (queue_depth > 0) {
    stream::AsyncPrefetchOptions popts;
    popts.queue_depth = queue_depth;
    plan = std::make_unique<stream::AsyncPrefetchSource>(std::move(plan),
                                                         popts);
  }
  ReorderBufferOptions ro;
  // Strictly above the event-time displacement the shuffle pool can
  // cause (max_displacement positions at step 1).
  ro.lateness_bound = static_cast<double>(spec.max_displacement + 1);
  AUSDB_ASSIGN_OR_RETURN(
      std::unique_ptr<ReorderBuffer> reorder,
      ReorderBuffer::Make(std::move(plan), "ts", ro));
  plan = std::move(reorder);
  AUSDB_ASSIGN_OR_RETURN(
      std::unique_ptr<TimeWindowAggregate> agg,
      TimeWindowAggregate::Make(std::move(plan), "ts", "x", "a",
                                RevisionOptions()));
  TimeWindowAggregate* agg_raw = agg.get();
  OperatorPtr root = std::move(agg);
  if (annotate) root = BootstrapAnnotated(std::move(root));
  AUSDB_ASSIGN_OR_RETURN(std::vector<Tuple> out, Collect(*root));
  if (shed_late != nullptr) *shed_late = agg_raw->shed_late();
  return out;
}

// In-bound shuffle plus beyond-bound late injections, across prefetch queue depths {1, 2, 64}: every variant's fold equals
// the in-order run's fold byte for byte.
void ExpectFoldMatchesInOrderAcrossQueueDepths(bool annotate) {
  constexpr size_t kCount = 96;

  auto golden_agg = TimeWindowAggregate::Make(
      std::make_unique<VectorScan>(TsSchema(), OrderedStream(kCount)),
      "ts", "x", "a", RevisionOptions());
  ASSERT_TRUE(golden_agg.ok()) << golden_agg.status().ToString();
  OperatorPtr golden_root = std::move(*golden_agg);
  if (annotate) golden_root = BootstrapAnnotated(std::move(golden_root));
  auto golden = Collect(*golden_root);
  ASSERT_TRUE(golden.ok());
  const auto golden_fold = FoldByWindowEnd(*golden);
  ASSERT_EQ(golden_fold.size(), kCount);

  stream::DisorderSpec spec;
  spec.max_displacement = 4;
  spec.shuffle_probability = 0.8;
  spec.late_every_k = 11;   // held beyond the reorder horizon...
  spec.late_delay = 13;     // ...but inside the 20-step lateness horizon
  spec.seed = 0xd15c0;

  for (size_t depth : {size_t{0}, size_t{1}, size_t{2}, size_t{64}}) {
    uint64_t shed = 0;
    auto out = RunDisordered(kCount, spec, depth, &shed, annotate);
    ASSERT_TRUE(out.ok()) << "depth " << depth << ": "
                          << out.status().ToString();
    EXPECT_EQ(shed, 0u) << "depth " << depth;
    const auto fold = FoldByWindowEnd(*out);
    ASSERT_EQ(fold.size(), golden_fold.size()) << "depth " << depth;
    for (const auto& [end, json] : golden_fold) {
      auto it = fold.find(end);
      ASSERT_NE(it, fold.end())
          << "depth " << depth << ": window end " << end << " missing";
      ASSERT_EQ(it->second, json)
          << "depth " << depth << ": window end " << end << " diverged";
    }
  }
}

TEST(DisorderEquivalenceTest, FoldMatchesInOrderAcrossQueueDepths) {
  ExpectFoldMatchesInOrderAcrossQueueDepths(/*annotate=*/false);
}

// The same with a bootstrap annotator above the revising time window,
// `_accuracy` in the fold: a window end's final interval is the one
// in-order delivery gives it, however many revisions were annotated
// before it.
TEST(DisorderEquivalenceTest, BootstrapAccuracyFoldMatchesInOrder) {
  ExpectFoldMatchesInOrderAcrossQueueDepths(/*annotate=*/true);
}

// The printed-algorithm path (a histogram field): the same value
// annotated as tuple 1 and as tuple 50 of a stream gets byte-identical
// per-bin, mean and variance intervals.
TEST(KeyedBootstrapStreamTest, HistogramIntervalsIgnoreStreamPosition) {
  Schema schema;
  ASSERT_TRUE(schema.AddField({"x", FieldType::kUncertain}).ok());
  const auto histogram = [](double shift) {
    auto h = dist::HistogramDist::Make({0.0 + shift, 1.0 + shift,
                                        2.0 + shift, 4.0 + shift},
                                       {0.25, 0.5, 0.25});
    AUSDB_CHECK(h.ok()) << h.status().ToString();
    return Tuple({expr::Value(dist::RandomVar(
        std::make_shared<dist::HistogramDist>(*h), 15))});
  };
  std::vector<Tuple> tuples = {histogram(0.0)};
  for (size_t i = 1; i < 49; ++i) {
    tuples.push_back(histogram(static_cast<double>(i)));
  }
  tuples.push_back(histogram(0.0));
  ASSERT_EQ(tuples.size(), 50u);

  for (const bool batched : {false, true}) {
    OperatorPtr plan = BootstrapAnnotated(
        std::make_unique<VectorScan>(schema, tuples));
    std::vector<Tuple> out;
    auto ran = engine::Run(*plan, {.batched = batched}, &out);
    ASSERT_TRUE(ran.ok()) << ran.status().ToString();
    ASSERT_EQ(out.size(), 50u);
    const auto& first = out.front().accuracy()[0];
    const auto& last = out.back().accuracy()[0];
    ASSERT_TRUE(first.has_value() && last.has_value());
    ASSERT_EQ(first->bin_cis.size(), 3u);
    for (size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(serde::ToJson(first->bin_cis[k]),
                serde::ToJson(last->bin_cis[k]))
          << "bin " << k;
    }
    EXPECT_EQ(serde::ToJson(*first->mean_ci), serde::ToJson(*last->mean_ci));
    EXPECT_EQ(serde::ToJson(*first->variance_ci),
              serde::ToJson(*last->variance_ci));
  }
}

// The keyed stream hashes each field's distribution kind, so the
// intervals of an empirical and a parametric field sampled from their
// distributions (raw sample < 2n) pin the kinds' ordinals as well.
TEST(KeyedBootstrapStreamTest, EmpiricalAndParametricIntervalBitsArePinned) {
  Schema schema;
  ASSERT_TRUE(schema.AddField({"e", FieldType::kUncertain}).ok());
  ASSERT_TRUE(schema.AddField({"p", FieldType::kUncertain}).ok());
  const std::vector<double> obs = {1.5, 2.0, 3.25, 4.0, 4.5, 5.75, 6.0, 7.5};
  auto empirical = dist::LearnEmpirical(obs);
  ASSERT_TRUE(empirical.ok()) << empirical.status().ToString();
  const dist::RandomVar e(*empirical);
  ASSERT_LT(e.raw_sample()->size(), 2 * e.sample_size());
  const dist::RandomVar p(
      std::make_shared<workload::FamilyDist>(workload::Family::kGamma), 12);
  OperatorPtr plan = BootstrapAnnotated(std::make_unique<VectorScan>(
      schema, std::vector<Tuple>{Tuple({expr::Value(e), expr::Value(p)})}));
  auto out = Collect(*plan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  const auto& acc = out->front().accuracy();
  ASSERT_TRUE(acc[0].has_value() && acc[1].has_value());
  const auto expect_bits = [](const accuracy::ConfidenceInterval& ci,
                              uint64_t lo, uint64_t hi) {
    EXPECT_EQ(std::bit_cast<uint64_t>(ci.lo), lo);
    EXPECT_EQ(std::bit_cast<uint64_t>(ci.hi), hi);
  };
  expect_bits(*acc[0]->mean_ci, 0x4009a33333333333ULL,
              0x4016233333333333ULL);
  expect_bits(*acc[0]->variance_ci, 0x4000938af8af8af9ULL,
              0x401a08ea0ea0ea0fULL);
  expect_bits(*acc[1]->mean_ci, 0x4005b784c841f6b9ULL,
              0x401297dac23e1e79ULL);
  expect_bits(*acc[1]->variance_ci, 0x400698897b40580cULL,
              0x402b096357e304ddULL);
}

// The same seeded disorder delivered twice produces byte-identical raw
// output streams (not just folds): the harness itself is deterministic.
TEST(DisorderEquivalenceTest, SeededDisorderIsReplayable) {
  stream::DisorderSpec spec;
  spec.max_displacement = 3;
  spec.seed = 7;
  auto a = RunDisordered(48, spec, /*queue_depth=*/0);
  auto b = RunDisordered(48, spec, /*queue_depth=*/2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  const Schema out_schema = [] {
    Schema s;
    EXPECT_TRUE(s.AddField({"a", FieldType::kUncertain}).ok());
    EXPECT_TRUE(s.AddField({"window_end", FieldType::kDouble}).ok());
    EXPECT_TRUE(s.AddField({"revision", FieldType::kBool}).ok());
    return s;
  }();
  for (size_t i = 0; i < a->size(); ++i) {
    ASSERT_EQ(serde::ToJson((*a)[i], out_schema),
              serde::ToJson((*b)[i], out_schema))
        << "output " << i;
  }
}

// A plan drained, Reset and drained again delivers the same intervals:
// no bootstrap stream is left advanced by the first run.
TEST(KeyedBootstrapStreamTest, ResetReplaysTheSameIntervals) {
  OperatorPtr plan = BootstrapAnnotated(
      std::make_unique<VectorScan>(TsSchema(), OrderedStream(8)));
  auto first = Collect(*plan);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(plan->Reset().ok());
  auto second = Collect(*plan);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(first->size(), second->size());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ(serde::ToJson((*first)[i], TsSchema()),
              serde::ToJson((*second)[i], TsSchema()))
        << "output " << i;
  }
}

// ---------------------------------------------------------------------
// Crash-point sweep over the reorder pipeline

struct SweepConfig {
  size_t count = 48;
  size_t checkpoint_every = 5;
};

// Bit-exact fingerprint of a revision-mode output tuple.
std::string Fingerprint(const Tuple& t) {
  serde::CheckpointWriter w;
  auto rv = t.value(0).random_var();
  AUSDB_CHECK(rv.ok());
  w.Double(rv->Mean());
  w.Double(rv->Variance());
  w.Uint(rv->sample_size());
  w.Double(*t.value(1).double_value());
  w.Uint(*t.value(2).bool_value() ? 1 : 0);
  w.Uint(t.sequence());
  return std::move(w).Finish();
}

// One simulated process lifetime over the event-time pipeline
//   ReplayableEventTimeSource (baked disorder) -> ReorderBuffer ->
//   TimeWindowAggregate (revision mode),
// with BOTH event-time operators registered for recovery. When the
// lifetime ends (crash or completion), `buffered_at_exit` receives the
// reorder buffer's population at that instant.
Status RunLifetime(const SweepConfig& cfg, const std::string& dir,
                   CrashPointInjector* inj,
                   std::vector<std::string>* delivered,
                   size_t* buffered_at_exit = nullptr) {
  stream::EventTimeSourceOptions sopts;
  sopts.count = cfg.count;
  sopts.max_displacement = 3;
  AUSDB_ASSIGN_OR_RETURN(auto raw_source,
                         stream::ReplayableEventTimeSource::Make(sopts));
  engine::ReplayableSource* source = raw_source.get();

  ReorderBufferOptions ro;
  ro.lateness_bound = 4.0;  // strictly covers displacement 3 at step 1
  AUSDB_ASSIGN_OR_RETURN(
      auto reorder_owned,
      ReorderBuffer::Make(std::move(raw_source), "ts", ro));
  ReorderBuffer* reorder = reorder_owned.get();

  TimeWindowOptions two;
  two.duration = 6.0;
  two.require_ordered = false;
  two.emit_revisions = true;
  two.allowed_lateness = 8.0;
  AUSDB_ASSIGN_OR_RETURN(
      auto agg,
      TimeWindowAggregate::Make(std::move(reorder_owned), "ts", "value",
                                "a", two));
  TimeWindowAggregate* root = agg.get();

  engine::RecoveryManagerOptions ropts;
  ropts.crash_points = inj;
  engine::RecoveryManager manager(dir, ropts);
  AUSDB_RETURN_NOT_OK(manager.RegisterSource("source", source));
  AUSDB_RETURN_NOT_OK(manager.RegisterOperator("reorder", reorder));
  AUSDB_RETURN_NOT_OK(manager.RegisterOperator("twagg", root));

  auto run = [&]() -> Status {
    AUSDB_ASSIGN_OR_RETURN(auto recovered, manager.Restore());
    const uint64_t checkpointed =
        recovered.has_value() ? recovered->outputs_delivered : 0;
    EXPECT_LE(checkpointed, delivered->size());
    size_t overlap = delivered->size() - checkpointed;
    uint64_t emitted = checkpointed;

    for (;;) {
      AUSDB_RETURN_NOT_OK(inj->CrashIf("pre-pull"));
      AUSDB_ASSIGN_OR_RETURN(std::optional<Tuple> t, root->Next());
      if (!t.has_value()) break;
      const std::string fp = Fingerprint(*t);
      if (overlap > 0) {
        EXPECT_EQ(fp, (*delivered)[delivered->size() - overlap]);
        --overlap;
        ++emitted;
        continue;
      }
      AUSDB_RETURN_NOT_OK(inj->CrashIf("pre-deliver"));
      delivered->push_back(fp);
      ++emitted;
      AUSDB_RETURN_NOT_OK(inj->CrashIf("post-deliver"));
      if (emitted % cfg.checkpoint_every == 0) {
        AUSDB_RETURN_NOT_OK(manager.Checkpoint(delivered->size()).status());
      }
    }
    return Status::OK();
  };
  const Status st = run();
  if (buffered_at_exit != nullptr) {
    *buffered_at_exit = reorder->buffered_count();
  }
  return st;
}

std::vector<std::string> RunToCompletion(const SweepConfig& cfg,
                                         const std::string& dir,
                                         CrashPointInjector* inj,
                                         bool* crashed_with_buffered =
                                             nullptr) {
  std::vector<std::string> delivered;
  for (size_t lifetime = 0;; ++lifetime) {
    EXPECT_LT(lifetime, 3u) << "pipeline failed to complete after crash";
    if (lifetime >= 3) break;
    size_t buffered = 0;
    const Status st = RunLifetime(cfg, dir, inj, &delivered, &buffered);
    if (st.ok()) break;
    if (crashed_with_buffered != nullptr && buffered > 0) {
      *crashed_with_buffered = true;
    }
    EXPECT_TRUE(inj->fired()) << st.ToString();
    EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  }
  return delivered;
}

TEST(ReorderCrashSweepTest, EveryCrashPointRecoversBitIdentically) {
  SweepConfig cfg;

  ScratchDir golden_dir("golden");
  CrashPointInjector counter(CrashPointInjector::kNever);
  const std::vector<std::string> golden =
      RunToCompletion(cfg, golden_dir.path(), &counter);
  ASSERT_FALSE(golden.empty());
  const size_t total_sites = counter.sites_visited();
  ASSERT_GT(total_sites, golden.size() * 2)
      << "sweep must cover pulls, deliveries and checkpoint writes";

  // The event-time guarantee of the golden run itself: ends are emitted
  // watermark-monotonically, so the fold has one entry per input.
  bool crashed_with_buffered = false;
  for (size_t crash_at = 1; crash_at <= total_sites; ++crash_at) {
    ScratchDir dir("at_" + std::to_string(crash_at));
    CrashPointInjector inj(crash_at);
    const std::vector<std::string> delivered =
        RunToCompletion(cfg, dir.path(), &inj, &crashed_with_buffered);
    ASSERT_TRUE(inj.fired())
        << "crash point " << crash_at << " was never reached";
    ASSERT_EQ(delivered.size(), golden.size())
        << "crash at site " << crash_at << " ('" << inj.fired_site()
        << "')";
    for (size_t i = 0; i < golden.size(); ++i) {
      ASSERT_EQ(delivered[i], golden[i])
          << "output " << i << " diverged after crash at site "
          << crash_at << " ('" << inj.fired_site() << "')";
    }
  }
  // The sweep is only meaningful if some crash interrupted the pipeline
  // while the reorder buffer actually held tuples.
  EXPECT_TRUE(crashed_with_buffered)
      << "no crash point hit a non-empty reorder buffer; the sweep "
         "never exercised checkpoint v4's new surface";
}

}  // namespace
}  // namespace ausdb
