// End-to-end crash recovery: the durable checkpoint file format and
// generation store, RecoveryManager whole-pipeline snapshots with source
// replay, and the exhaustive crash-point sweep — for EVERY place the
// process can die, the resumed pipeline's output must be bit-identical
// to an uninterrupted run.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/crc32c.h"
#include "src/common/fault_injector.h"
#include "src/common/logging.h"
#include "src/engine/filter.h"
#include "src/engine/project.h"
#include "src/engine/recovery_manager.h"
#include "src/engine/scan.h"
#include "src/engine/window_aggregate.h"
#include "src/obs/exposition.h"
#include "src/obs/metrics.h"
#include "src/serde/checkpoint.h"
#include "src/serde/checkpoint_file.h"
#include "src/stream/async_prefetch_source.h"
#include "src/stream/replayable_source.h"

namespace ausdb {
namespace engine {
namespace {

namespace fs = std::filesystem;

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
             ("ausdb_recovery_" + tag + "_" +
              std::to_string(::getpid())))
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

// ---------------------------------------------------------------------
// CRC32C kernel

TEST(Crc32cTest, MatchesRfc3720CheckValue) {
  // The standard CRC32C check value (RFC 3720 appendix B.4).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
}

TEST(Crc32cTest, ExtendComposes) {
  const std::string data = "accuracy-aware uncertain stream databases";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32cExtend(kCrc32cInit, data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, Crc32c(data)) << "split at " << split;
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::string data(73, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 37 + 11);
  }
  const uint32_t clean = Crc32c(data);
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = data;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      EXPECT_NE(Crc32c(flipped), clean)
          << "flip at byte " << byte << " bit " << bit;
    }
  }
}

// ---------------------------------------------------------------------
// Checkpoint file envelope

TEST(CheckpointFileTest, RoundTrips) {
  const std::string payload = "wagg.v3 0 0 8 12 tokens \x01\x02\xff";
  auto decoded = serde::DecodeCheckpointFile(
      serde::EncodeCheckpointFile(payload));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, payload);
}

TEST(CheckpointFileTest, RoundTripsEmptyPayload) {
  auto decoded = serde::DecodeCheckpointFile(serde::EncodeCheckpointFile(""));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, "");
}

TEST(CheckpointFileTest, RejectsBadMagicVersionLengthAndTrailing) {
  const std::string file = serde::EncodeCheckpointFile("payload bytes");

  std::string bad_magic = file;
  bad_magic[0] = 'X';
  EXPECT_TRUE(serde::DecodeCheckpointFile(bad_magic).status().IsCorruption());

  std::string bad_version = file;
  bad_version[8] = static_cast<char>(99);
  EXPECT_TRUE(
      serde::DecodeCheckpointFile(bad_version).status().IsCorruption());

  // A length field pointing far past the file must be rejected before
  // anything is allocated from it.
  std::string huge_length = file;
  huge_length[18] = static_cast<char>(0x7f);
  EXPECT_TRUE(
      serde::DecodeCheckpointFile(huge_length).status().IsCorruption());

  EXPECT_TRUE(
      serde::DecodeCheckpointFile(file + "x").status().IsCorruption());
  EXPECT_TRUE(serde::DecodeCheckpointFile("").status().IsCorruption());
}

TEST(CheckpointFileTest, DetectsEveryTruncationAndEveryBitFlip) {
  const std::string file = serde::EncodeCheckpointFile(
      "spwagg.v1 1 0 5 17 3 2:k0 some window state tokens");
  // Every proper prefix must fail to decode...
  for (size_t len = 0; len < file.size(); ++len) {
    auto r = serde::DecodeCheckpointFile(file.substr(0, len));
    EXPECT_TRUE(r.status().IsCorruption()) << "truncated to " << len;
  }
  // ...and every single-bit flip must be caught (by field validation or
  // by the CRC, which covers header and payload alike).
  for (size_t byte = 0; byte < file.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = file;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      auto r = serde::DecodeCheckpointFile(flipped);
      EXPECT_FALSE(r.ok()) << "flip at byte " << byte << " bit " << bit;
    }
  }
}

// ---------------------------------------------------------------------
// Atomic write + generation store

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(AtomicWriteFileTest, WritesAndOverwrites) {
  ScratchDir dir("atomic");
  const std::string path = dir.path() + "/file.bin";
  ASSERT_TRUE(serde::AtomicWriteFile(path, "first").ok());
  EXPECT_EQ(Slurp(path), "first");
  ASSERT_TRUE(serde::AtomicWriteFile(path, "second, longer").ok());
  EXPECT_EQ(Slurp(path), "second, longer");
}

TEST(AtomicWriteFileTest, CrashSitesLeaveTargetUntouched) {
  ScratchDir dir("atomic_crash");
  const std::string path = dir.path() + "/file.bin";
  ASSERT_TRUE(serde::AtomicWriteFile(path, "intact").ok());

  // Crash sites 1..3 (before-write, mid-write, pre-rename) must leave
  // the published file untouched; site 4 (post-rename) has completed.
  for (size_t crash_at = 1; crash_at <= 4; ++crash_at) {
    CrashPointInjector inj(crash_at);
    const Status st =
        serde::AtomicWriteFile(path, "replacement bytes", &inj);
    ASSERT_TRUE(inj.fired()) << "crash_at " << crash_at;
    EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
    if (crash_at < 4) {
      EXPECT_EQ(Slurp(path), "intact") << "crash_at " << crash_at;
    } else {
      EXPECT_EQ(Slurp(path), "replacement bytes");
    }
  }
  CrashPointInjector never(CrashPointInjector::kNever);
  ASSERT_TRUE(serde::AtomicWriteFile(path, "final", &never).ok());
  EXPECT_EQ(never.sites_visited(), 4u);
}

TEST(CheckpointStorageTest, RotatesAndReadsNewest) {
  ScratchDir dir("rotate");
  serde::CheckpointStorageOptions opts;
  opts.keep_generations = 3;
  serde::CheckpointStorage store(dir.path(), "test", opts);

  EXPECT_TRUE(store.ReadNewestIntact().status().IsNotFound());
  for (int g = 1; g <= 5; ++g) {
    auto wrote = store.Write("payload " + std::to_string(g));
    ASSERT_TRUE(wrote.ok()) << wrote.status().ToString();
    EXPECT_EQ(*wrote, static_cast<uint64_t>(g));
  }
  EXPECT_EQ(store.ListGenerations(), (std::vector<uint64_t>{3, 4, 5}));
  auto newest = store.ReadNewestIntact();
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(newest->generation, 5u);
  EXPECT_EQ(newest->payload, "payload 5");
}

TEST(CheckpointStorageTest, FallsBackGenerationByGeneration) {
  ScratchDir dir("fallback");
  serde::CheckpointStorage store(dir.path(), "test");
  ASSERT_TRUE(store.Write("gen one").ok());
  ASSERT_TRUE(store.Write("gen two").ok());
  ASSERT_TRUE(store.Write("gen three").ok());

  // Corrupt the newest (bit flip) and truncate the middle one: recovery
  // must land on generation 1.
  {
    std::string bytes = Slurp(store.GenerationPath(3));
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
    std::ofstream(store.GenerationPath(3), std::ios::binary) << bytes;
    std::string mid = Slurp(store.GenerationPath(2));
    std::ofstream(store.GenerationPath(2), std::ios::binary)
        << mid.substr(0, mid.size() / 3);
  }
  auto newest = store.ReadNewestIntact();
  ASSERT_TRUE(newest.ok()) << newest.status().ToString();
  EXPECT_EQ(newest->generation, 1u);
  EXPECT_EQ(newest->payload, "gen one");

  // With every generation damaged, recovery reports NotFound (fresh
  // start) rather than resuming from corrupt state.
  std::ofstream(store.GenerationPath(1), std::ios::binary) << "garbage";
  EXPECT_TRUE(store.ReadNewestIntact().status().IsNotFound());
}

// ---------------------------------------------------------------------
// Replayable sources

TEST(ReplayableSourceTest, SeekReproducesExactStream) {
  stream::KeyedGaussianSourceOptions opts;
  opts.count = 40;
  opts.points_per_item = 3;
  auto make = stream::ReplayableKeyedGaussianSource::Make(opts);
  ASSERT_TRUE(make.ok());
  auto& source = **make;

  // Golden pass.
  std::vector<engine::Tuple> golden;
  for (;;) {
    auto t = source.Next();
    ASSERT_TRUE(t.ok());
    if (!t->has_value()) break;
    golden.push_back(std::move(**t));
  }
  ASSERT_EQ(golden.size(), 40u);
  EXPECT_EQ(source.position(), 40u);

  // Seeking to any position replays the identical suffix, bit for bit.
  for (uint64_t pos : {0u, 1u, 7u, 39u, 40u}) {
    ASSERT_TRUE(source.SeekTo(pos).ok());
    EXPECT_EQ(source.position(), pos);
    for (uint64_t i = pos; i < golden.size(); ++i) {
      auto t = source.Next();
      ASSERT_TRUE(t.ok() && t->has_value());
      EXPECT_EQ((*t)->sequence(), golden[i].sequence());
      EXPECT_EQ(*(*t)->value(0).string_value(),
                *golden[i].value(0).string_value());
      auto a = (*t)->value(1).random_var();
      auto b = golden[i].value(1).random_var();
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a->Mean(), b->Mean()) << "position " << i;
      EXPECT_EQ(a->Variance(), b->Variance()) << "position " << i;
      EXPECT_EQ(a->sample_size(), b->sample_size());
    }
  }
  EXPECT_TRUE(source.SeekTo(41).IsInvalidArgument());
}

TEST(ReplayableSourceTest, CsvSourceSeeksByRow) {
  ScratchDir dir("csv");
  const std::string path = dir.path() + "/data.csv";
  std::ofstream(path) << "key,reading\nk0,1.5\nk1,2.5\nk0,3.5\n";

  engine::Schema schema;
  ASSERT_TRUE(schema.AddField({"key", FieldType::kString}).ok());
  ASSERT_TRUE(schema.AddField({"reading", FieldType::kDouble}).ok());
  auto make = stream::CsvReplayableSource::Make(path, schema);
  ASSERT_TRUE(make.ok()) << make.status().ToString();
  auto& source = **make;
  EXPECT_EQ(source.row_count(), 3u);

  ASSERT_TRUE(source.SeekTo(2).ok());
  auto t = source.Next();
  ASSERT_TRUE(t.ok() && t->has_value());
  EXPECT_EQ(*(*t)->value(0).string_value(), "k0");
  EXPECT_EQ(*(*t)->value(1).double_value(), 3.5);
  EXPECT_EQ((*t)->sequence(), 2u);
  auto end = source.Next();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
  EXPECT_TRUE(source.SeekTo(4).IsInvalidArgument());
}

// ---------------------------------------------------------------------
// The crash-point sweep
//
// Pipeline under test: replayable keyed Gaussian source
//   -> grouped WindowAggregate           (stateful)
//   -> Filter key != "k1"                (stateless)
//   -> Project (key, avg)                (stateless)
// The consumer (this test) survives crashes — like a downstream system
// would — and keeps its `delivered` log; on resume it discards the
// re-emitted overlap after asserting it is bit-identical.

struct SweepConfig {
  size_t count = 120;
  size_t window = 5;
  size_t checkpoint_every = 16;  // delivered outputs between checkpoints

  /// Wrap the source in AsyncPrefetchReplayableSource: the crash sweep
  /// then kills the pipeline with tuples resident in the prefetch ring,
  /// and recovery must replay the discarded residue bit-identically.
  bool prefetch = false;
  size_t queue_depth = 8;

  /// Instrumentation under test: when set, the RecoveryManager records
  /// checkpoint/restore metrics, and the consumer accounts
  /// every discarded re-emitted output via NoteReplayedOutput(). The
  /// delivered log must be byte-identical either way.
  obs::MetricRegistry* metrics = nullptr;
  /// When non-null, accumulates the overlap the consumer discarded — the
  /// test-side ground truth the replayed-outputs counter must equal.
  size_t* replayed_acc = nullptr;
};

// Bit-exact fingerprint of an output tuple (hex doubles, not decimal).
std::string Fingerprint(const Tuple& t) {
  serde::CheckpointWriter w;
  w.Bytes(*t.value(0).string_value());
  auto rv = t.value(1).random_var();
  AUSDB_CHECK(rv.ok());
  w.Double(rv->Mean());
  w.Double(rv->Variance());
  w.Uint(rv->sample_size());
  w.Uint(t.sequence());
  w.Double(t.membership_prob());
  w.Uint(t.membership_df_n());
  return std::move(w).Finish();
}

// One simulated process lifetime: build the pipeline, recover from the
// newest intact checkpoint, and run until end-of-stream or the injected
// crash. Returns OK when the stream completed. With cfg.prefetch the
// replayable source is wrapped in a prefetching source and the WRAPPER
// is registered for recovery; `backlog_at_exit` (when non-null)
// receives how many tuples the producer had read ahead of the consumer
// when the lifetime ended — the ring residue a crash abandons.
Status RunLifetime(const SweepConfig& cfg, const std::string& dir,
                   CrashPointInjector* inj,
                   std::vector<std::string>* delivered,
                   size_t* backlog_at_exit = nullptr) {
  stream::KeyedGaussianSourceOptions sopts;
  sopts.count = cfg.count;
  sopts.points_per_item = 3;
  AUSDB_ASSIGN_OR_RETURN(auto raw_source,
                         stream::ReplayableKeyedGaussianSource::Make(sopts));
  std::unique_ptr<ReplayableSource> source_owned = std::move(raw_source);
  stream::AsyncPrefetchReplayableSource* prefetcher = nullptr;
  if (cfg.prefetch) {
    stream::AsyncPrefetchOptions popts;
    popts.queue_depth = cfg.queue_depth;
    auto wrapped = std::make_unique<stream::AsyncPrefetchReplayableSource>(
        std::move(source_owned), popts);
    prefetcher = wrapped.get();
    source_owned = std::move(wrapped);
  }
  ReplayableSource* source = source_owned.get();

  WindowAggregateOptions wopts;
  wopts.window_size = cfg.window;
  AUSDB_ASSIGN_OR_RETURN(
      auto wagg_owned,
      WindowAggregate::Make(std::move(source_owned), "value", "avg", wopts,
                            "key"));
  WindowAggregate* wagg = wagg_owned.get();

  auto filter = std::make_unique<Filter>(
      std::move(wagg_owned),
      expr::Cmp(expr::CmpOp::kNe, expr::Col("key"),
                expr::Lit(std::string("k1"))));
  std::vector<ProjectionItem> items;
  items.push_back({"key", expr::Col("key")});
  items.push_back({"avg", expr::Col("avg")});
  AUSDB_ASSIGN_OR_RETURN(auto root,
                         Project::Make(std::move(filter), std::move(items)));

  RecoveryManagerOptions ropts;
  ropts.keep_generations = 3;
  ropts.crash_points = inj;
  ropts.metrics = cfg.metrics;
  RecoveryManager manager(dir, ropts);
  AUSDB_RETURN_NOT_OK(manager.RegisterSource("source", source));
  AUSDB_RETURN_NOT_OK(manager.RegisterOperator("wagg", wagg));

  // The pull loop runs in a lambda so the prefetcher's ring backlog can
  // be observed after a simulated crash, before the pipeline (and its
  // producer thread) is torn down.
  auto run = [&]() -> Status {
    AUSDB_ASSIGN_OR_RETURN(auto recovered, manager.Restore());
    const uint64_t checkpointed =
        recovered.has_value() ? recovered->outputs_delivered : 0;
    // The consumer can only be AHEAD of the checkpoint, never behind it
    // (checkpoints are taken after delivery).
    EXPECT_LE(checkpointed, delivered->size());
    size_t overlap = delivered->size() - checkpointed;
    uint64_t emitted = checkpointed;

    for (;;) {
      AUSDB_RETURN_NOT_OK(inj->CrashIf("pre-pull"));
      AUSDB_ASSIGN_OR_RETURN(std::optional<Tuple> t, root->Next());
      if (!t.has_value()) break;
      const std::string fp = Fingerprint(*t);
      if (overlap > 0) {
        // Re-emitted output: must be bit-identical to what was already
        // delivered before the crash (exactly-once via dedupe-by-count).
        EXPECT_EQ(fp, (*delivered)[delivered->size() - overlap]);
        --overlap;
        ++emitted;
        manager.NoteReplayedOutput();
        if (cfg.replayed_acc != nullptr) ++*cfg.replayed_acc;
        continue;
      }
      AUSDB_RETURN_NOT_OK(inj->CrashIf("pre-deliver"));
      delivered->push_back(fp);
      ++emitted;
      AUSDB_RETURN_NOT_OK(inj->CrashIf("post-deliver"));
      if (emitted % cfg.checkpoint_every == 0) {
        AUSDB_RETURN_NOT_OK(
            manager.Checkpoint(delivered->size()).status());
      }
    }
    return Status::OK();
  };
  const Status st = run();
  if (backlog_at_exit != nullptr) {
    *backlog_at_exit = 0;
    if (prefetcher != nullptr) {
      const stream::PrefetchStats stats = prefetcher->stats();
      *backlog_at_exit = stats.produced - stats.delivered;
    }
  }
  return st;
}

// Runs the stream to completion through as many crash/restart cycles as
// the injector causes. Returns the delivered log.
std::vector<std::string> RunToCompletion(const SweepConfig& cfg,
                                         const std::string& dir,
                                         CrashPointInjector* inj,
                                         bool* crashed_with_backlog =
                                             nullptr) {
  std::vector<std::string> delivered;
  for (size_t lifetime = 0;; ++lifetime) {
    // One injected crash can interrupt at most one lifetime; the rerun
    // after it must complete.
    EXPECT_LT(lifetime, 3u) << "pipeline failed to complete after crash";
    if (lifetime >= 3) break;
    size_t backlog = 0;
    const Status st = RunLifetime(cfg, dir, inj, &delivered, &backlog);
    if (st.ok()) break;
    if (crashed_with_backlog != nullptr && backlog > 0) {
      *crashed_with_backlog = true;
    }
    // The only acceptable failure is the injected crash.
    EXPECT_TRUE(inj->fired()) << st.ToString();
    EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  }
  return delivered;
}

TEST(CrashPointSweepTest, EveryCrashPointRecoversBitIdentically) {
  SweepConfig cfg;

  // Golden uninterrupted run; also counts the crash sites.
  ScratchDir golden_dir("sweep_golden");
  CrashPointInjector counter(CrashPointInjector::kNever);
  const std::vector<std::string> golden =
      RunToCompletion(cfg, golden_dir.path(), &counter);
  ASSERT_FALSE(golden.empty());
  const size_t total_sites = counter.sites_visited();
  ASSERT_GT(total_sites, golden.size() * 2)
      << "sweep must cover pulls, deliveries and checkpoint writes";

  // Expected output arithmetic: 4 keys x count/4 inputs each, window w
  // emits from the w-th tuple per key; filter drops key k1.
  const size_t per_key = cfg.count / 4;
  const size_t expected = 3 * (per_key - cfg.window + 1);
  ASSERT_EQ(golden.size(), expected);

  // The sweep: crash at every site, recover, and require exact-tuple
  // accounting — the delivered log equals the golden run bit for bit,
  // every tuple exactly once.
  for (size_t crash_at = 1; crash_at <= total_sites; ++crash_at) {
    ScratchDir dir("sweep_" + std::to_string(crash_at));
    CrashPointInjector inj(crash_at);
    const std::vector<std::string> delivered =
        RunToCompletion(cfg, dir.path(), &inj);
    ASSERT_TRUE(inj.fired()) << "crash point " << crash_at
                             << " was never reached";
    ASSERT_EQ(delivered.size(), golden.size())
        << "crash at site " << crash_at << " ('" << inj.fired_site()
        << "')";
    for (size_t i = 0; i < golden.size(); ++i) {
      ASSERT_EQ(delivered[i], golden[i])
          << "output " << i << " diverged after crash at site "
          << crash_at << " ('" << inj.fired_site() << "')";
    }
  }
}

// The same exhaustive sweep with async prefetching enabled: the process
// dies with tuples resident in the prefetch ring, recovery re-seeks the
// wrapper to the consumer-visible position, and the resumed pipeline's
// delivered log must STILL equal the synchronous golden run bit for
// bit — prefetching must be invisible to the recovery contract.
TEST(CrashPointSweepTest, PrefetchedPipelineRecoversBitIdentically) {
  SweepConfig sync_cfg;
  SweepConfig cfg;
  cfg.prefetch = true;
  cfg.queue_depth = 8;

  // Golden run: SYNCHRONOUS and uninterrupted — the prefetched sweep is
  // held to the synchronous pipeline's exact output, not merely to its
  // own uninterrupted run.
  ScratchDir golden_dir("pfsweep_golden");
  CrashPointInjector golden_counter(CrashPointInjector::kNever);
  const std::vector<std::string> golden =
      RunToCompletion(sync_cfg, golden_dir.path(), &golden_counter);
  ASSERT_FALSE(golden.empty());

  // Uninterrupted prefetched run: bit-identical to sync, same number of
  // crash sites (sites are consumer-side, so prefetching adds none).
  ScratchDir pf_dir("pfsweep_uncrashed");
  CrashPointInjector counter(CrashPointInjector::kNever);
  const std::vector<std::string> uncrashed =
      RunToCompletion(cfg, pf_dir.path(), &counter);
  ASSERT_EQ(uncrashed, golden);
  const size_t total_sites = counter.sites_visited();
  ASSERT_EQ(total_sites, golden_counter.sites_visited());

  bool crashed_with_backlog = false;
  for (size_t crash_at = 1; crash_at <= total_sites; ++crash_at) {
    ScratchDir dir("pfsweep_" + std::to_string(crash_at));
    CrashPointInjector inj(crash_at);
    const std::vector<std::string> delivered =
        RunToCompletion(cfg, dir.path(), &inj, &crashed_with_backlog);
    ASSERT_TRUE(inj.fired()) << "crash point " << crash_at
                             << " was never reached";
    ASSERT_EQ(delivered.size(), golden.size())
        << "crash at site " << crash_at << " ('" << inj.fired_site()
        << "')";
    for (size_t i = 0; i < golden.size(); ++i) {
      ASSERT_EQ(delivered[i], golden[i])
          << "output " << i << " diverged after crash at site "
          << crash_at << " ('" << inj.fired_site() << "')";
    }
  }
  // The point of the sweep: at least some crashes must have caught the
  // ring partially full, i.e. killed tuples the producer had read ahead.
  EXPECT_TRUE(crashed_with_backlog)
      << "no crash ever saw a non-empty prefetch ring; the sweep did "
         "not exercise crash-during-prefetch";
}

// Restore() must fall back to an older intact generation when the
// newest checkpoint file is damaged after the fact (e.g. disk
// corruption, not just a torn write).
TEST(RecoveryManagerTest, FallsBackWhenNewestCheckpointCorrupted) {
  SweepConfig cfg;
  ScratchDir dir("mgr_fallback");

  // Run to completion with periodic checkpoints (no crashes).
  CrashPointInjector never(CrashPointInjector::kNever);
  std::vector<std::string> full;
  ASSERT_TRUE(RunLifetime(cfg, dir.path(), &never, &full).ok());
  ASSERT_FALSE(full.empty());

  serde::CheckpointStorage store(dir.path(), "pipeline");
  std::vector<uint64_t> gens = store.ListGenerations();
  ASSERT_GE(gens.size(), 2u);

  // Flip one byte in the newest generation file.
  const std::string newest = store.GenerationPath(gens.back());
  std::string bytes = Slurp(newest);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  std::ofstream(newest, std::ios::binary) << bytes;

  // A fresh lifetime must recover from the previous generation and
  // still deliver the exact remaining outputs.
  std::vector<std::string> resumed(full);
  // Pretend the consumer saw everything up to the OLDER checkpoint: keep
  // only that prefix, and let the rerun redeliver the rest.
  auto older = store.ReadGeneration(gens[gens.size() - 2]);
  ASSERT_TRUE(older.ok()) << older.status().ToString();
  serde::CheckpointReader r(*older);
  ASSERT_TRUE(r.ExpectToken("manifest.v1").ok());
  auto delivered_at_older = r.NextUint();
  ASSERT_TRUE(delivered_at_older.ok());
  resumed.resize(*delivered_at_older);

  ASSERT_TRUE(RunLifetime(cfg, dir.path(), &never, &resumed).ok());
  ASSERT_EQ(resumed.size(), full.size());
  for (size_t i = 0; i < full.size(); ++i) {
    ASSERT_EQ(resumed[i], full[i]) << "output " << i;
  }
}

// A registered operator that cannot checkpoint fails the whole
// checkpoint loudly, and no generation is written for it.
TEST(RecoveryManagerTest, RejectsUncheckpointableOperator) {
  ScratchDir dir("mgr_uncheckpointable");
  RecoveryManager mgr(dir.path());
  VectorScan scan(Schema{}, {});
  ASSERT_TRUE(mgr.RegisterOperator("scan", &scan).ok());
  auto generation = mgr.Checkpoint(0);
  EXPECT_TRUE(generation.status().IsNotImplemented())
      << generation.status().ToString();
  EXPECT_TRUE(mgr.storage().ListGenerations().empty());
}

// ---------------------------------------------------------------------
// Recovery observability: the same crash/recover cycle with metrics
// enabled must (a) deliver byte-identical output and (b) report
// a snapshot whose counters exactly match what the test itself observed
// — non-zero checkpoint bytes and durations, generation counts, and a
// replayed-outputs total equal to the overlap the consumer discarded.

TEST(RecoveryMetricsTest, SnapshotMatchesObservedRecovery) {
  SweepConfig golden_cfg;
  ScratchDir golden_dir("metrics_golden");
  CrashPointInjector golden_inj(CrashPointInjector::kNever);
  const std::vector<std::string> golden =
      RunToCompletion(golden_cfg, golden_dir.path(), &golden_inj);
  ASSERT_FALSE(golden.empty());
  const size_t total_sites = golden_inj.sites_visited();

  // Crash late in the run (deep into the site list) so there are
  // checkpoints on disk and a real overlap to replay.
  obs::MetricRegistry registry;
  size_t replayed = 0;
  SweepConfig cfg;
  cfg.metrics = &registry;
  cfg.replayed_acc = &replayed;

  ScratchDir dir("metrics_crash");
  CrashPointInjector inj(total_sites * 3 / 4);
  const std::vector<std::string> delivered =
      RunToCompletion(cfg, dir.path(), &inj);
  ASSERT_TRUE(inj.fired());
  ASSERT_EQ(delivered, golden) << "instrumentation changed the output";
  ASSERT_GT(replayed, 0u) << "crash site produced no overlap; the "
                             "metrics assertions below would be vacuous";

  const obs::MetricsSnapshot snap = registry.Snapshot();
  uint64_t ckpt_bytes = 0, ckpt_gens = 0, restores = 0,
           replayed_metric = 0;
  for (const auto& c : snap.counters) {
    if (c.key.name == "ausdb_checkpoint_written_bytes_total") {
      ckpt_bytes = c.value;
    }
    if (c.key.name == "ausdb_checkpoint_generations_total") {
      ckpt_gens = c.value;
    }
    if (c.key.name == "ausdb_recovery_restores_total") restores = c.value;
    if (c.key.name == "ausdb_recovery_replayed_outputs_total") {
      replayed_metric = c.value;
    }
  }
  EXPECT_GT(ckpt_bytes, 0u);
  EXPECT_GT(ckpt_gens, 0u);
  EXPECT_GE(restores, 1u);
  EXPECT_EQ(replayed_metric, replayed)
      << "replayed-output counter diverged from the consumer's own "
         "dedupe accounting";

  uint64_t write_count = 0, ckpt_count = 0, restore_count = 0;
  double write_sum = 0.0;
  for (const auto& h : snap.histograms) {
    if (h.key.name == "ausdb_checkpoint_write_seconds") {
      write_count = h.count;
      write_sum = h.sum;
    }
    if (h.key.name == "ausdb_recovery_checkpoint_seconds") {
      ckpt_count = h.count;
    }
    if (h.key.name == "ausdb_recovery_restore_seconds") {
      restore_count = h.count;
    }
  }
  EXPECT_EQ(write_count, ckpt_gens)
      << "every durable write must record one duration";
  EXPECT_GT(write_sum, 0.0) << "fsync+rename cannot take zero time";
  EXPECT_EQ(ckpt_count, ckpt_gens);
  EXPECT_GE(restore_count, 1u) << "every Restore() records one duration";

  // The gauge reflects the delivery count of the LAST checkpoint or
  // restore; both are bounded by the full delivered log.
  bool saw_gauge = false;
  for (const auto& g : snap.gauges) {
    if (g.key.name == "ausdb_recovery_outputs_delivered") {
      saw_gauge = true;
      EXPECT_GT(g.value, 0);
      EXPECT_LE(g.value, static_cast<int64_t>(delivered.size()));
    }
  }
  EXPECT_TRUE(saw_gauge);

  // The snapshot must expose cleanly in both formats (smoke; the golden
  // strings live in obs_exposition_test).
  EXPECT_NE(obs::ToPrometheusText(snap).find(
                "ausdb_recovery_replayed_outputs_total"),
            std::string::npos);
  EXPECT_NE(obs::ToJson(snap).find("ausdb_checkpoint_write_seconds"),
            std::string::npos);
}

// A thinned instrumented crash sweep: every 7th site (plus the last)
// runs with metrics on, and the delivered log must stay bit-identical to
// the golden run — the determinism contract with observability enabled.
TEST(RecoveryMetricsTest, InstrumentedSweepStaysBitIdentical) {
  SweepConfig golden_cfg;
  ScratchDir golden_dir("isweep_golden");
  CrashPointInjector counter(CrashPointInjector::kNever);
  const std::vector<std::string> golden =
      RunToCompletion(golden_cfg, golden_dir.path(), &counter);
  ASSERT_FALSE(golden.empty());
  const size_t total_sites = counter.sites_visited();

  for (size_t crash_at = 1; crash_at <= total_sites;
       crash_at = crash_at + 7 > total_sites && crash_at < total_sites
                      ? total_sites
                      : crash_at + 7) {
    obs::MetricRegistry registry;
    SweepConfig cfg;
    cfg.metrics = &registry;

    ScratchDir dir("isweep_" + std::to_string(crash_at));
    CrashPointInjector inj(crash_at);
    const std::vector<std::string> delivered =
        RunToCompletion(cfg, dir.path(), &inj);
    ASSERT_TRUE(inj.fired()) << "site " << crash_at;
    ASSERT_EQ(delivered.size(), golden.size())
        << "crash at site " << crash_at << " ('" << inj.fired_site()
        << "') with metrics on";
    for (size_t i = 0; i < golden.size(); ++i) {
      ASSERT_EQ(delivered[i], golden[i])
          << "output " << i << " diverged at site " << crash_at;
    }
  }
}

}  // namespace
}  // namespace engine
}  // namespace ausdb
