// The observability layer's hard requirement: instrumentation must not
// change delivered output. Every pipeline here runs once with metrics
// off (the golden) and once per instrumented configuration — wrapper
// operators, prefetch queue metrics at depths {1, 2, 64}, thread pools
// of {1, 4} workers — and the serialized bytes must match exactly.
// Alongside bit-identity, the tests assert the metrics themselves are
// right (counts equal to delivered tuples), so "write-only" never decays
// into "writes nothing".

#include <bit>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/thread_pool.h"
#include "src/engine/executor.h"
#include "src/engine/pipeline_profiler.h"
#include "src/engine/scan.h"
#include "src/engine/window_aggregate.h"
#include "src/io/observation_loader.h"
#include "src/obs/event_journal.h"
#include "src/obs/exposition.h"
#include "src/obs/metrics.h"
#include "src/query/parser.h"
#include "src/query/planner.h"
#include "src/serde/json_writer.h"
#include "src/stats/random_variates.h"
#include "src/stream/async_prefetch_source.h"
#include "src/stream/supervised_source.h"

namespace ausdb {
namespace {

constexpr size_t kDepths[] = {1, 2, 64};
constexpr size_t kThreadCounts[] = {1, 4};

std::string SensorCsv() {
  std::ostringstream csv;
  csv << "road_id,delay\n";
  Rng rng(417);
  for (int i = 0; i < 4; ++i) {
    csv << "19," << 40.0 + 40.0 * rng.NextDouble() << "\n";
  }
  for (int i = 0; i < 40; ++i) {
    csv << "20," << 40.0 + 40.0 * rng.NextDouble() << "\n";
  }
  return csv.str();
}

std::string SerializeRows(const std::vector<engine::Tuple>& rows,
                          const engine::Schema& schema) {
  std::ostringstream out;
  for (const auto& t : rows) {
    out << serde::ToJson(t, schema) << "\n";
    out << "seq=" << t.sequence() << "\n";
  }
  return out.str();
}

std::string RunQueryBytes(const std::string& sql,
                          engine::OperatorPtr scan) {
  auto plan = query::PlanQuery(sql, std::move(scan));
  EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
  if (!plan.ok()) return "<plan error>";
  auto rows = engine::Collect(**plan);
  EXPECT_TRUE(rows.ok()) << sql << ": " << rows.status().ToString();
  if (!rows.ok()) return "<exec error>";
  return SerializeRows(*rows, (*plan)->schema());
}

/// The mirrored counter `name` of the operator labelled `op`; 0 when the
/// series is absent.
uint64_t MirroredCount(const obs::MetricsSnapshot& snap,
                       const std::string& name, const std::string& op) {
  for (const auto& c : snap.counters) {
    if (c.key.name != name) continue;
    for (const auto& l : c.key.labels) {
      if (l.key == "operator" && l.value == op) return c.value;
    }
  }
  return 0;
}

class InstrumentationEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto table = io::ParseCsv(SensorCsv());
    ASSERT_TRUE(table.ok());
    io::ObservationLoadOptions opts;
    opts.key_column = "road_id";
    opts.value_column = "delay";
    opts.learn_as = io::LearnAs::kEmpirical;
    auto loaded = io::LoadObservations(*table, opts);
    ASSERT_TRUE(loaded.ok());
    data_ = std::move(*loaded);
  }

  engine::OperatorPtr Scan() const {
    return std::make_unique<engine::VectorScan>(data_.schema,
                                                data_.tuples);
  }

  io::LoadedObservations data_;
};

TEST_F(InstrumentationEquivalenceTest, WrappedOperatorPreservesBytes) {
  const std::string sql =
      "SELECT road_id, PROB(delay > 50) AS p FROM t ORDER BY p DESC";
  const std::string golden = RunQueryBytes(sql, Scan());
  ASSERT_FALSE(golden.empty());

  obs::MetricRegistry registry;
  engine::PipelineProfile profile(&registry);
  const std::string instrumented = RunQueryBytes(
      sql, engine::Profile(Scan(), "scan", &profile,
                           obs::SteadyClock::Instance()));
  EXPECT_EQ(instrumented, golden);

  // The wrapper must have recorded exactly the delivered stream: every
  // input tuple, one terminal end-of-stream pull, no errors.
  const obs::MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  uint64_t tuples = 0, calls = 0, errors = 0;
  for (const auto& c : snap.counters) {
    if (c.key.name == "ausdb_engine_tuples_total") tuples = c.value;
    if (c.key.name == "ausdb_engine_next_calls_total") calls = c.value;
    if (c.key.name == "ausdb_engine_next_errors_total") errors = c.value;
  }
  EXPECT_EQ(tuples, data_.tuples.size());
  EXPECT_EQ(calls, data_.tuples.size() + 1);
  EXPECT_EQ(errors, 0u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].key.name,
            "ausdb_engine_next_latency_seconds");
  // Latency is sampled (counters are exact): one timed pull per
  // kLatencySamplePeriod calls, first call always timed.
  const uint64_t period = engine::ProfiledOperator::kLatencySamplePeriod;
  EXPECT_EQ(snap.histograms[0].count, (calls + period - 1) / period);
}

TEST_F(InstrumentationEquivalenceTest, NullRegistryReturnsChildUnchanged) {
  engine::OperatorPtr child = Scan();
  engine::Operator* raw = child.get();
  engine::OperatorPtr same =
      engine::Profile(std::move(child), "scan", nullptr);
  EXPECT_EQ(same.get(), raw);
}

TEST_F(InstrumentationEquivalenceTest,
       PrefetchMetricsPreserveBytesAtEveryDepth) {
  const std::string sql =
      "SELECT * FROM t WHERE delay > 50 "
      "WITH ACCURACY BOOTSTRAP CONFIDENCE 0.9";
  const std::string golden = RunQueryBytes(sql, Scan());
  ASSERT_FALSE(golden.empty());

  for (size_t depth : kDepths) {
    // Metrics off.
    stream::AsyncPrefetchOptions off;
    off.queue_depth = depth;
    const std::string plain =
        RunQueryBytes(sql, stream::MakeAsyncPrefetch(Scan(), off));
    EXPECT_EQ(plain, golden) << "depth " << depth;

    // Metrics on: queue gauge + wait counters + mirrored wrapper, same
    // bytes.
    obs::MetricRegistry registry;
    engine::PipelineProfile profile(&registry);
    stream::AsyncPrefetchOptions on;
    on.queue_depth = depth;
    on.metrics = &registry;
    on.metrics_label = "sensor_feed";
    const std::string instrumented = RunQueryBytes(
        sql, engine::Profile(stream::MakeAsyncPrefetch(Scan(), on),
                             "prefetch", &profile,
                             obs::SteadyClock::Instance()));
    EXPECT_EQ(instrumented, golden) << "depth " << depth;

    const obs::MetricsSnapshot snap = registry.Snapshot();
    uint64_t produced = 0, delivered = 0;
    for (const auto& c : snap.counters) {
      if (c.key.name == "ausdb_stream_prefetch_produced_total") {
        produced = c.value;
      }
      if (c.key.name == "ausdb_stream_prefetch_delivered_total") {
        delivered = c.value;
      }
    }
    EXPECT_EQ(produced, data_.tuples.size()) << "depth " << depth;
    EXPECT_EQ(delivered, data_.tuples.size()) << "depth " << depth;
  }
}

TEST_F(InstrumentationEquivalenceTest,
       SupervisedScanMetricsPreserveBytesAndMirrorCounters) {
  const std::string sql =
      "SELECT road_id FROM t WHERE PTEST(delay > 50, 0.5, 0.05)";
  const std::string golden = RunQueryBytes(sql, Scan());
  ASSERT_FALSE(golden.empty());

  obs::MetricRegistry registry;
  stream::SupervisedScanOptions opts;
  opts.metrics = &registry;
  opts.metrics_label = "sensors";
  auto supervised =
      std::make_unique<stream::SupervisedScan>(Scan(), std::move(opts));
  const stream::SupervisedScan* raw = supervised.get();
  // The plan owns the scan, so it stays alive until the counters below
  // have been read through `raw`.
  auto plan = query::PlanQuery(sql, std::move(supervised));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto rows = engine::Collect(**plan);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(SerializeRows(*rows, (*plan)->schema()), golden);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  uint64_t emitted = 0;
  for (const auto& c : snap.counters) {
    if (c.key.name == "ausdb_stream_supervision_emitted_total") {
      emitted = c.value;
    }
  }
  EXPECT_EQ(emitted, raw->counters().emitted);
  EXPECT_EQ(emitted, data_.tuples.size());
}

// ---------------------------------------------------------------------
// EXPLAIN ANALYZE determinism: the profiled pipeline's delivered output
// is byte-identical to the unprofiled run, and the profiler counters
// and event-journal JSON are byte-identical across thread counts
// {1, 4} x prefetch depths {1, 2, 64} x metrics on/off.

TEST_F(InstrumentationEquivalenceTest,
       ProfilerCountersAndJournalBitIdenticalAcrossConfigs) {
  const std::string sql =
      "SELECT * FROM t WHERE delay > 50 WITH ACCURACY 0.05 CONFIDENCE 0.9";
  auto parsed = query::Parse(sql);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  // Golden: unprofiled, unjournaled, metrics off, plain Collect.
  auto plain = query::BuildPlan(*parsed, Scan());
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  auto reference = engine::Collect(**plain);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string golden = SerializeRows(*reference, (*plain)->schema());
  ASSERT_FALSE(golden.empty());

  std::string golden_counters, golden_journal, golden_report;
  for (size_t threads : kThreadCounts) {
    for (size_t depth : kDepths) {
      for (bool metrics_on : {false, true}) {
        const std::string cfg = std::to_string(threads) + " threads, depth " +
                                std::to_string(depth) +
                                (metrics_on ? ", metrics on" : ", metrics off");
        obs::MetricRegistry registry;
        obs::EventJournal journal(64);
        engine::PipelineProfile profile(metrics_on ? &registry : nullptr);

        query::PlannerOptions popts;
        popts.profiler.profile = &profile;
        popts.journal = &journal;
        if (metrics_on) popts.annotator.metrics = &registry;

        stream::AsyncPrefetchOptions pre;
        pre.queue_depth = depth;
        if (metrics_on) pre.metrics = &registry;

        auto plan = query::BuildPlan(
            *parsed, stream::MakeAsyncPrefetch(Scan(), pre), popts);
        ASSERT_TRUE(plan.ok()) << cfg << ": " << plan.status().ToString();
        // No operator takes work from a pool inside Next(): the idle
        // pool of `threads` workers runs alongside the scalar drain.
        ThreadPool pool(threads);
        auto rows = engine::Collect(**plan);
        ASSERT_TRUE(rows.ok()) << cfg << ": " << rows.status().ToString();

        // Delivered output: byte-identical to the unprofiled run.
        EXPECT_EQ(SerializeRows(*rows, (*plan)->schema()), golden) << cfg;

        // Profiler counters, report and journal: byte-identical across
        // every configuration (pull-count determinism, no wall clock).
        if (golden_counters.empty()) {
          golden_counters = profile.CountersJson();
          golden_journal = journal.ToJson();
          golden_report = profile.ReportString();
          ASSERT_NE(golden_counters.find("\"name\":\"annotator\""),
                    std::string::npos)
              << golden_counters;
          ASSERT_GT(journal.recorded(), 0u)
              << "cost model must journal its plan-time choice";
        } else {
          EXPECT_EQ(profile.CountersJson(), golden_counters) << cfg;
          EXPECT_EQ(journal.ToJson(), golden_journal) << cfg;
          EXPECT_EQ(profile.ReportString(), golden_report) << cfg;
        }

        // No clock was injected: the non-deterministic annex records no
        // samples in any configuration.
        for (const auto& op : profile.operators()) {
          EXPECT_EQ(op.latency_samples, 0u) << cfg << " " << op.name;
        }

        // Metrics on: the accuracy ledger counted every annotated field
        // and the mirror matched every profile slot, without perturbing
        // any of the bytes above.
        if (metrics_on) {
          const obs::MetricsSnapshot snap = registry.Snapshot();
          uint64_t annotated = 0;
          for (const auto& c : snap.counters) {
            if (c.key.name == "ausdb_accuracy_annotated_fields_total") {
              annotated = c.value;
            }
          }
          EXPECT_GT(annotated, 0u) << cfg;
          for (const auto& op : profile.operators()) {
            const std::string at = cfg + " " + op.name;
            EXPECT_EQ(MirroredCount(snap, "ausdb_engine_tuples_total",
                                    op.name),
                      op.tuples)
                << at;
            EXPECT_EQ(MirroredCount(snap, "ausdb_engine_next_calls_total",
                                    op.name),
                      op.next_calls + op.batch_calls)
                << at;
            EXPECT_EQ(MirroredCount(snap, "ausdb_engine_next_errors_total",
                                    op.name),
                      op.errors)
                << at;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// The grouped window pipeline under a batched Run, instrumented vs not:
// both runs bit-identical to the tuple-at-a-time golden.

engine::Schema KeyedSchema() {
  engine::Schema s;
  EXPECT_TRUE(s.AddField({"k", engine::FieldType::kString}).ok());
  EXPECT_TRUE(s.AddField({"x", engine::FieldType::kUncertain}).ok());
  return s;
}

std::vector<engine::Tuple> KeyedInput(size_t n) {
  std::vector<engine::Tuple> tuples;
  tuples.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const std::string key = "key" + std::to_string((i * 7) % 23);
    const double mean =
        (i % 2 == 0 ? 1e6 : 1e-2) * (1.0 + static_cast<double>(i % 13));
    const double var = 1.0 + static_cast<double>(i % 5);
    tuples.push_back(engine::Tuple(
        {expr::Value(key),
         expr::Value(dist::RandomVar(
             std::make_shared<dist::GaussianDist>(mean, var), 10 + i % 50))}));
  }
  return tuples;
}

/// Serializes window output exactly: key text plus IEEE-754 bit patterns
/// of every double that could drift.
std::string WindowBytes(const std::vector<engine::Tuple>& rows) {
  std::ostringstream out;
  for (const auto& t : rows) {
    const dist::RandomVar rv = *t.value(1).random_var();
    out << *t.value(0).string_value() << " "
        << std::bit_cast<uint64_t>(rv.Mean()) << " "
        << std::bit_cast<uint64_t>(rv.Variance()) << " "
        << rv.sample_size() << " " << t.sequence() << "\n";
  }
  return out.str();
}

TEST(InstrumentationThreadSweepTest, ShardedWindowBitIdenticalAtAllCounts) {
  const std::vector<engine::Tuple> input = KeyedInput(1500);
  engine::WindowAggregateOptions wopts;
  wopts.window_size = 8;
  wopts.fn = engine::WindowAggFn::kAvg;

  auto make_plan = [&](engine::PipelineProfile* profile)
      -> engine::OperatorPtr {
    const obs::Clock* clock = obs::SteadyClock::Instance();
    auto scan =
        std::make_unique<engine::VectorScan>(KeyedSchema(), input);
    auto agg = engine::WindowAggregate::Make(
        engine::Profile(std::move(scan), "scan", profile, clock), "x",
        "agg", wopts, "k");
    EXPECT_TRUE(agg.ok()) << agg.status().ToString();
    return engine::Profile(std::move(*agg), "window", profile, clock);
  };

  // Golden: tuple at a time, no metrics.
  auto plain = make_plan(nullptr);
  auto reference = engine::Collect(*plain);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string golden = WindowBytes(*reference);
  ASSERT_FALSE(golden.empty());

  const engine::RunOptions batched{.batched = true};
  auto uninstrumented = make_plan(nullptr);
  std::vector<engine::Tuple> rows_off;
  auto ran = engine::Run(*uninstrumented, batched, &rows_off);
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_EQ(WindowBytes(rows_off), golden);

  obs::MetricRegistry registry;
  engine::PipelineProfile profile(&registry);
  auto instrumented = make_plan(&profile);
  std::vector<engine::Tuple> rows_on;
  ran = engine::Run(*instrumented, batched, &rows_on);
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_EQ(WindowBytes(rows_on), golden) << "metrics on";

  // Both wrapper layers saw the full stream.
  uint64_t scan_tuples = 0, window_tuples = 0;
  for (const auto& c : registry.Snapshot().counters) {
    if (c.key.name != "ausdb_engine_tuples_total") continue;
    for (const auto& l : c.key.labels) {
      if (l.value == "scan") scan_tuples = c.value;
      if (l.value == "window") window_tuples = c.value;
    }
  }
  EXPECT_EQ(scan_tuples, input.size());
  EXPECT_EQ(window_tuples, reference->size());
}

}  // namespace
}  // namespace ausdb
