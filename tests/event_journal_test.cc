// The obs::EventJournal flight recorder: ring semantics, the
// byte-deterministic JSON exposition, and the journaling wired into
// every decision-making component — governor rung moves and breaker
// trips (with the per-rung epoch-occupancy counters of the accuracy
// ledger), cost-model re-choices, late-tuple window revisions, and
// recovery checkpoint/restore.

#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/dist/gaussian.h"
#include "src/engine/executor.h"
#include "src/engine/recovery_manager.h"
#include "src/engine/scan.h"
#include "src/engine/time_window_aggregate.h"
#include "src/govern/cost_model.h"
#include "src/govern/governor.h"
#include "src/obs/event_journal.h"
#include "src/obs/metrics.h"
#include "src/stream/replayable_source.h"

namespace ausdb {
namespace {

using obs::EventJournal;
using obs::EventRecord;
using obs::EventType;

// ---------------------------------------------------------------------
// Ring semantics

TEST(EventJournalTest, AppendAssignsMonotonicSequences) {
  EventJournal journal(8);
  journal.Append(EventType::kRungEscalation, 3, "governor", "rung 0 -> 1");
  journal.Append(EventType::kCostRechoice, 1, "cost_model", "analytical/merge1");
  const std::vector<EventRecord> events = journal.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].epoch, 3u);
  EXPECT_EQ(events[0].type, EventType::kRungEscalation);
  EXPECT_EQ(events[0].scope, "governor");
  EXPECT_EQ(events[0].detail, "rung 0 -> 1");
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(journal.recorded(), 2u);
  EXPECT_EQ(journal.dropped(), 0u);
}

TEST(EventJournalTest, WrapsOverwritingOldestAndCountsDrops) {
  EventJournal journal(3);
  for (uint64_t i = 0; i < 5; ++i) {
    journal.Append(EventType::kCheckpoint, i, "recovery",
                   std::to_string(i) + " outputs delivered");
  }
  EXPECT_EQ(journal.recorded(), 5u);
  EXPECT_EQ(journal.dropped(), 2u);
  const std::vector<EventRecord> events = journal.Events();
  ASSERT_EQ(events.size(), 3u);
  // Oldest retained first: seq 2, 3, 4 — 0 and 1 were overwritten.
  EXPECT_EQ(events[0].seq, 2u);
  EXPECT_EQ(events[1].seq, 3u);
  EXPECT_EQ(events[2].seq, 4u);
  EXPECT_EQ(events[0].epoch, 2u);
  EXPECT_EQ(events[2].detail, "4 outputs delivered");
}

TEST(EventJournalTest, ZeroCapacityClampsToOne) {
  EventJournal journal(0);
  EXPECT_EQ(journal.capacity(), 1u);
  journal.Append(EventType::kRestore, 0, "recovery", "a");
  journal.Append(EventType::kRestore, 1, "recovery", "b");
  const std::vector<EventRecord> events = journal.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detail, "b");
  EXPECT_EQ(journal.dropped(), 1u);
}

TEST(EventJournalTest, EventTypeNamesAreStable) {
  // These strings are the JSON wire format — renaming one is a
  // breaking change and must trip this test.
  EXPECT_STREQ(obs::EventTypeName(EventType::kRungEscalation),
               "rung_escalation");
  EXPECT_STREQ(obs::EventTypeName(EventType::kRungRelaxation),
               "rung_relaxation");
  EXPECT_STREQ(obs::EventTypeName(EventType::kBreakerTrip), "breaker_trip");
  EXPECT_STREQ(obs::EventTypeName(EventType::kBreakerReclose),
               "breaker_reclose");
  EXPECT_STREQ(obs::EventTypeName(EventType::kCostRechoice),
               "cost_rechoice");
  EXPECT_STREQ(obs::EventTypeName(EventType::kLateRevision),
               "late_revision");
  EXPECT_STREQ(obs::EventTypeName(EventType::kCheckpoint), "checkpoint");
  EXPECT_STREQ(obs::EventTypeName(EventType::kRestore), "restore");
}

TEST(EventJournalTest, ToJsonGolden) {
  EventJournal journal(2);
  journal.Append(EventType::kRungEscalation, 3, "governor", "rung 0 -> 1");
  journal.Append(EventType::kBreakerTrip, 9, "governor",
                 "after 3 refusal epochs at rung 1");
  journal.Append(EventType::kCostRechoice, 2, "cost_model",
                 "bootstrap(r=200)/merge1");
  EXPECT_EQ(
      journal.ToJson(),
      "{\"capacity\":2,\"recorded\":3,\"dropped\":1,\"events\":["
      "{\"seq\":1,\"epoch\":9,\"type\":\"breaker_trip\","
      "\"scope\":\"governor\",\"detail\":\"after 3 refusal epochs at "
      "rung 1\"},"
      "{\"seq\":2,\"epoch\":2,\"type\":\"cost_rechoice\","
      "\"scope\":\"cost_model\",\"detail\":\"bootstrap(r=200)/merge1\"}"
      "]}");
}

TEST(EventJournalTest, ToJsonEscapesDetailBytes) {
  EventJournal journal(4);
  journal.Append(EventType::kLateRevision, 0, "window.\"q\"",
                 "a\\b\nc");
  EXPECT_EQ(journal.ToJson(),
            "{\"capacity\":4,\"recorded\":1,\"dropped\":0,\"events\":["
            "{\"seq\":0,\"epoch\":0,\"type\":\"late_revision\","
            "\"scope\":\"window.\\\"q\\\"\",\"detail\":\"a\\\\b\\nc\"}"
            "]}");
}

TEST(EventJournalTest, EmptyJournalJson) {
  EventJournal journal(16);
  EXPECT_EQ(journal.ToJson(),
            "{\"capacity\":16,\"recorded\":0,\"dropped\":0,\"events\":[]}");
}

// ---------------------------------------------------------------------
// Governor journaling and the per-rung occupancy ledger

govern::SignalSnapshot QueueSnapshot(double fill, uint64_t epoch = 0) {
  govern::SignalSnapshot snap;
  snap.epoch = epoch;
  snap.queue_capacity = 1000;
  snap.queue_depth = static_cast<size_t>(fill * 1000);
  return snap;
}

govern::GovernorOptions FastOptions() {
  govern::GovernorOptions options;
  options.ladder.dwell_epochs = 2;
  options.breaker_trip_epochs = 3;
  options.breaker_cooldown_epochs = 4;
  return options;
}

TEST(GovernorJournalTest, JournalsEscalationTripRecloseRelaxation) {
  EventJournal journal(64);
  govern::GovernorOptions options = FastOptions();
  options.ladder.accuracy_floor = 1.0;  // rung 0 only: trips quickly
  options.journal = &journal;
  govern::OverloadGovernor governor(options);
  uint64_t epoch = 0;
  while (!governor.decision().breaker_open) {
    governor.Observe(QueueSnapshot(1.0, epoch++));
    ASSERT_LT(epoch, 100u);
  }
  // Cooldown elapses under calm snapshots, then the breaker recloses
  // and the rung relaxes back toward zero (already at 0 here).
  while (governor.decision().breaker_open) {
    governor.Observe(QueueSnapshot(0.0, epoch++));
    ASSERT_LT(epoch, 100u);
  }

  const std::vector<EventRecord> events = journal.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, EventType::kBreakerTrip);
  EXPECT_EQ(events[0].scope, "governor");
  EXPECT_EQ(events[0].detail, "after 3 refusal epochs at rung 0");
  EXPECT_EQ(events[1].type, EventType::kBreakerReclose);
  EXPECT_EQ(events[1].detail, "half-open re-admit at rung 0");
}

TEST(GovernorJournalTest, JournalsRungMovesWithEpochs) {
  EventJournal journal(64);
  govern::GovernorOptions options = FastOptions();
  options.journal = &journal;
  govern::OverloadGovernor governor(options);
  // Two hot epochs escalate 0 -> 1 (dwell = 2), two calm ones relax.
  governor.Observe(QueueSnapshot(0.95, 0));
  governor.Observe(QueueSnapshot(0.95, 1));
  ASSERT_EQ(governor.decision().rung, 1u);
  governor.Observe(QueueSnapshot(0.1, 2));
  governor.Observe(QueueSnapshot(0.1, 3));
  ASSERT_EQ(governor.decision().rung, 0u);

  const std::vector<EventRecord> events = journal.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, EventType::kRungEscalation);
  EXPECT_EQ(events[0].epoch, 1u);
  EXPECT_EQ(events[0].detail, "rung 0 -> 1");
  EXPECT_EQ(events[1].type, EventType::kRungRelaxation);
  EXPECT_EQ(events[1].epoch, 3u);
  EXPECT_EQ(events[1].detail, "rung 1 -> 0");
}

TEST(GovernorJournalTest, RungOccupancyLedgerSumsToEpochs) {
  obs::MetricRegistry registry;
  govern::GovernorOptions options = FastOptions();
  options.metrics = &registry;
  options.metrics_label = "ledger";
  govern::OverloadGovernor governor(options);

  // 4 hot epochs climb two rungs, then 6 calm ones descend back.
  uint64_t epoch = 0;
  for (; epoch < 4; ++epoch) governor.Observe(QueueSnapshot(0.95, epoch));
  ASSERT_EQ(governor.decision().rung, 2u);
  for (; epoch < 10; ++epoch) governor.Observe(QueueSnapshot(0.1, epoch));
  ASSERT_EQ(governor.decision().rung, 0u);

  // Every epoch is charged to exactly one rung — the one in force when
  // the epoch began.
  const govern::GovernorStats& stats = governor.stats();
  ASSERT_EQ(stats.rung_epochs.size(), options.ladder.rungs.size());
  uint64_t sum = 0;
  for (uint64_t occupancy : stats.rung_epochs) sum += occupancy;
  EXPECT_EQ(sum, stats.epochs);
  EXPECT_EQ(stats.epochs, 10u);
  // Occupancy trail: rungs 0..2 were visited, deeper rungs never.
  EXPECT_GT(stats.rung_epochs[0], 0u);
  EXPECT_GT(stats.rung_epochs[1], 0u);
  EXPECT_GT(stats.rung_epochs[2], 0u);
  for (size_t r = 3; r < stats.rung_epochs.size(); ++r) {
    EXPECT_EQ(stats.rung_epochs[r], 0u) << "rung " << r;
  }

  // The registry mirror matches the stats ledger rung for rung.
  for (size_t r = 0; r < stats.rung_epochs.size(); ++r) {
    obs::Labels labels = {{"plan", "ledger"},
                          {"rung", std::to_string(r)}};
    EXPECT_EQ(
        registry.GetCounter("ausdb_govern_rung_epochs_total", labels)
            ->Value(),
        stats.rung_epochs[r])
        << "rung " << r;
  }
}

TEST(GovernorJournalTest, NullJournalIsSilentlyDisabled) {
  govern::OverloadGovernor governor(FastOptions());
  for (uint64_t e = 0; e < 10; ++e) {
    governor.Observe(QueueSnapshot(0.95, e));
  }
  EXPECT_GT(governor.stats().escalations, 0u);  // decisions still made
}

// ---------------------------------------------------------------------
// Cost-model re-choice journaling

TEST(CostModelJournalTest, JournalsInitialChoiceAndRetargets) {
  EventJournal journal(16);
  govern::ChooserOptions options;
  options.journal = &journal;
  // A histogram workload makes merge factors a real trade: coarser
  // bins are cheaper but add resolution slack to the half-width.
  options.prior.histogram_bins = 100;
  govern::MethodChooser chooser(options);

  // Construction journals the initial (cheapest-candidate) choice —
  // with no target, the coarsest merge wins on cost.
  ASSERT_EQ(journal.Events().size(), 1u);
  EXPECT_EQ(journal.Events()[0].type, EventType::kCostRechoice);
  EXPECT_EQ(journal.Events()[0].scope, "cost_model");
  EXPECT_EQ(journal.Events()[0].detail, chooser.current().ToString());

  // A target tight enough to rule the coarsest merge out forces a
  // different spec: one more journal entry.
  govern::AccuracyTarget target;
  target.epsilon = 0.25;
  target.confidence = 0.9;
  ASSERT_TRUE(chooser.SetTarget(target).ok());
  const std::vector<EventRecord> events = journal.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].detail, chooser.current().ToString());
  EXPECT_NE(events[1].detail, events[0].detail);

  // Re-setting the same target re-chooses the same spec: changes-only,
  // so the journal must not grow.
  ASSERT_TRUE(chooser.SetTarget(target).ok());
  EXPECT_EQ(journal.Events().size(), 2u);
}

TEST(CostModelJournalTest, JournalEntriesMirrorDecisionLog) {
  EventJournal journal(32);
  govern::ChooserOptions options;
  options.journal = &journal;
  options.epoch_interval = 8;
  options.prior.histogram_bins = 100;
  govern::MethodChooser chooser(options);
  govern::AccuracyTarget target;
  target.epsilon = 0.25;
  target.confidence = 0.9;
  ASSERT_TRUE(chooser.SetTarget(target).ok());

  // Drive recalibration epochs through a much tighter workload (low
  // dispersion): every merge factor becomes feasible, so the chooser
  // re-chooses the cheap coarse merge it had to give up at plan time.
  for (int i = 0; i < 64; ++i) {
    govern::WindowObservation obs;
    obs.cardinality = 50;
    obs.dispersion = 0.1;
    obs.histogram_bins = 100;
    chooser.Observe(obs);
  }

  // Journal entries and the chooser's own decision log agree 1:1 in
  // epoch and rendered spec.
  const std::vector<EventRecord> events = journal.Events();
  const auto& decisions = chooser.decisions();
  ASSERT_EQ(events.size(), decisions.size());
  ASSERT_GE(decisions.size(), 3u) << "expected a workload-driven rechoice";
  for (size_t i = 0; i < decisions.size(); ++i) {
    EXPECT_EQ(events[i].epoch, decisions[i].epoch);
    EXPECT_EQ(events[i].detail, decisions[i].spec.ToString());
    EXPECT_EQ(events[i].type, EventType::kCostRechoice);
  }
}

// ---------------------------------------------------------------------
// Late-revision journaling

engine::Schema TsSchema() {
  engine::Schema s;
  EXPECT_TRUE(s.AddField({"ts", engine::FieldType::kDouble}).ok());
  EXPECT_TRUE(s.AddField({"x", engine::FieldType::kUncertain}).ok());
  return s;
}

engine::Tuple TsTuple(double ts, double mean, uint64_t seq) {
  engine::Tuple t({expr::Value(ts),
                   expr::Value(dist::RandomVar(
                       std::make_shared<dist::GaussianDist>(mean, 1.0), 10))});
  t.set_sequence(seq);
  return t;
}

TEST(LateRevisionJournalTest, JournalsRevisionsNotInOrderArrivals) {
  EventJournal journal(16);
  engine::TimeWindowOptions rev;
  rev.duration = 2.0;
  rev.require_ordered = false;
  rev.emit_revisions = true;
  rev.allowed_lateness = 100.0;
  rev.journal = &journal;
  // ts=1 arrives after windows covering it have been emitted: revision.
  std::vector<engine::Tuple> tuples = {TsTuple(0, 0, 0), TsTuple(10, 100, 1),
                                       TsTuple(1, 10, 2)};
  auto agg = engine::TimeWindowAggregate::Make(
      std::make_unique<engine::VectorScan>(TsSchema(), std::move(tuples)),
      "ts", "x", "a", rev);
  ASSERT_TRUE(agg.ok());
  auto out = engine::Collect(**agg);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  const std::vector<EventRecord> events = journal.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, EventType::kLateRevision);
  EXPECT_EQ(events[0].scope, "time_window");
  EXPECT_EQ(events[0].detail.substr(0, 17), "late tuple at t=1");
  EXPECT_NE(events[0].detail.find("revised"), std::string::npos);
}

// ---------------------------------------------------------------------
// Recovery checkpoint / restore journaling

namespace fs = std::filesystem;

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("ausdb_journal_" + tag + "_" + std::to_string(::getpid())))
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

TEST(RecoveryJournalTest, JournalsCheckpointAndRestore) {
  ScratchDir dir("ckpt");
  EventJournal journal(16);

  stream::KeyedGaussianSourceOptions sopts;
  sopts.count = 16;
  auto source = stream::ReplayableKeyedGaussianSource::Make(sopts);
  ASSERT_TRUE(source.ok());

  engine::RecoveryManagerOptions ropts;
  ropts.journal = &journal;
  engine::RecoveryManager manager(dir.path(), ropts);
  ASSERT_TRUE(manager.RegisterSource("source", source->get()).ok());

  auto gen = manager.Checkpoint(/*outputs_delivered=*/2);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();

  {
    const std::vector<EventRecord> events = journal.Events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].type, EventType::kCheckpoint);
    EXPECT_EQ(events[0].scope, "recovery");
    EXPECT_EQ(events[0].epoch, *gen);
    EXPECT_EQ(events[0].detail, "2 outputs delivered");
  }

  // A second manager over the same directory restores the generation
  // and journals it.
  auto source2 = stream::ReplayableKeyedGaussianSource::Make(sopts);
  ASSERT_TRUE(source2.ok());
  engine::RecoveryManager manager2(dir.path(), ropts);
  ASSERT_TRUE(manager2.RegisterSource("source", source2->get()).ok());
  auto recovered = manager2.Restore();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_TRUE(recovered->has_value());

  const std::vector<EventRecord> events = journal.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].type, EventType::kRestore);
  EXPECT_EQ(events[1].scope, "recovery");
  EXPECT_EQ(events[1].epoch, (*recovered)->generation);
  EXPECT_EQ(events[1].detail, "resumed after 2 delivered outputs");
}

}  // namespace
}  // namespace ausdb
