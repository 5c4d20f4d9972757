// Crash-recovery cost: (a) durable checkpoint latency (manifest encode
// + temp write + fsync + rename + directory fsync) and restore latency
// as the checkpointed state grows with window size, and
// (b) steady-state throughput overhead of periodic checkpointing at
// several intervals.
//
// The acceptance bar for (b) is <= 5% overhead at a 10k-tuple
// checkpoint interval: durability must be affordable at the cadence a
// production stream would actually use. The pairing discipline mirrors
// bench_fault_recovery: baseline and checkpointed runs execute
// back-to-back inside each rep so machine drift hits both sides, and
// the smallest ratio across reps is reported.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench/figure_common.h"
#include "src/common/logging.h"
#include "src/engine/executor.h"
#include "src/engine/recovery_manager.h"
#include "src/engine/window_aggregate.h"
#include "src/stream/replayable_source.h"

using namespace ausdb;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

fs::path ScratchDir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("ausdb_bench_recovery_" + std::to_string(getpid())) / tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

struct Pipeline {
  engine::OperatorPtr root;
  stream::ReplayableKeyedGaussianSource* source = nullptr;
  engine::Operator* agg = nullptr;
};

Pipeline MakePipeline(size_t count, size_t window) {
  stream::KeyedGaussianSourceOptions sopts;
  sopts.count = count;
  sopts.points_per_item = 3;
  auto src = stream::ReplayableKeyedGaussianSource::Make(sopts);
  AUSDB_CHECK(src.ok()) << src.status().ToString();
  Pipeline p;
  p.source = src->get();
  engine::WindowAggregateOptions opts;
  opts.window_size = window;
  auto agg = engine::WindowAggregate::Make(std::move(*src), "value", "avg",
                                           opts, "key");
  AUSDB_CHECK(agg.ok()) << agg.status().ToString();
  p.agg = agg->get();
  p.root = std::move(*agg);
  return p;
}

engine::RecoveryManager Register(const fs::path& dir, Pipeline& p) {
  engine::RecoveryManager mgr(dir.string());
  AUSDB_CHECK_OK(mgr.RegisterSource("source", p.source));
  AUSDB_CHECK_OK(mgr.RegisterOperator("agg", p.agg));
  return mgr;
}

// -------------------------------------------------------------------
// (a) checkpoint + restore latency vs state size.

void LatencyRow(size_t window) {
  // Enough input that every partition's window is full at snapshot
  // time: the checkpoint carries its steady-state maximum.
  const size_t count = 4 * window + 4096;
  const fs::path dir = ScratchDir("lat_w" + std::to_string(window));

  Pipeline p = MakePipeline(count, window);
  engine::RecoveryManager mgr = Register(dir, p);
  auto drained = engine::Run(*p.root);
  AUSDB_CHECK(drained.ok()) << drained.status().ToString();

  double best_write = 1e9;
  uint64_t bytes = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    auto gen = mgr.Checkpoint(*drained);
    const double secs = SecondsSince(start);
    AUSDB_CHECK(gen.ok()) << gen.status().ToString();
    best_write = std::min(best_write, secs);
    auto stored = mgr.storage().ReadGeneration(*gen);
    AUSDB_CHECK(stored.ok()) << stored.status().ToString();
    bytes = stored->size();
  }

  double best_restore = 1e9;
  for (int rep = 0; rep < 5; ++rep) {
    Pipeline fresh = MakePipeline(count, window);
    engine::RecoveryManager rmgr = Register(dir, fresh);
    const auto start = Clock::now();
    auto recovered = rmgr.Restore();
    const double secs = SecondsSince(start);
    AUSDB_CHECK(recovered.ok()) << recovered.status().ToString();
    AUSDB_CHECK(recovered->has_value());
    best_restore = std::min(best_restore, secs);
  }

  bench::PrintRow({std::to_string(window),
                   bench::FmtInt(double(bytes) / 1024.0),
                   bench::Fmt(best_write * 1e3, 3),
                   bench::Fmt(best_restore * 1e3, 3)},
                  12);
}

// -------------------------------------------------------------------
// (b) steady-state overhead of periodic checkpointing.

double MeasureRate(Pipeline& p, engine::RecoveryManager* mgr,
                   uint64_t every) {
  const auto start = Clock::now();
  uint64_t delivered = 0;
  for (;;) {
    auto t = p.root->Next();
    AUSDB_CHECK(t.ok()) << t.status().ToString();
    if (!t->has_value()) break;
    ++delivered;
    if (mgr != nullptr && delivered % every == 0) {
      auto gen = mgr->Checkpoint(delivered);
      AUSDB_CHECK(gen.ok()) << gen.status().ToString();
    }
  }
  return double(delivered) / SecondsSince(start);
}

void OverheadTable() {
  constexpr size_t kCount = 120000;
  constexpr size_t kWindow = 1024;
  const std::vector<uint64_t> intervals = {1000, 10000, 100000};

  double base_best = 0.0;
  std::vector<double> ckpt_best(intervals.size(), 0.0);
  std::vector<double> min_ratio(intervals.size(), 1e9);
  std::vector<uint64_t> snapshots(intervals.size(), 0);

  for (int rep = 0; rep < 3; ++rep) {
    Pipeline bare = MakePipeline(kCount, kWindow);
    const double base = MeasureRate(bare, nullptr, 0);
    base_best = std::max(base_best, base);

    for (size_t i = 0; i < intervals.size(); ++i) {
      const fs::path dir =
          ScratchDir("ovh_" + std::to_string(intervals[i]));
      Pipeline p = MakePipeline(kCount, kWindow);
      engine::RecoveryManager mgr = Register(dir, p);
      const double rate = MeasureRate(p, &mgr, intervals[i]);
      ckpt_best[i] = std::max(ckpt_best[i], rate);
      min_ratio[i] = std::min(min_ratio[i], base / rate);
      snapshots[i] = mgr.storage().ListGenerations().empty()
                         ? 0
                         : mgr.storage().ListGenerations().back();
    }
  }

  bench::PrintRow({"interval", "outputs/s", "vs bare", "snapshots"}, 14);
  bench::PrintRow({"none", bench::FmtInt(base_best), "1.000", "0"}, 14);
  for (size_t i = 0; i < intervals.size(); ++i) {
    bench::PrintRow({std::to_string(intervals[i]),
                     bench::FmtInt(ckpt_best[i]),
                     bench::Fmt(min_ratio[i], 3),
                     std::to_string(snapshots[i])},
                    14);
  }
  const double at_10k = min_ratio[1];
  std::printf("checkpoint overhead at 10k interval: %.2f%% (bar: 5%%)\n",
              (at_10k - 1.0) * 100.0);
}

}  // namespace

int main() {
  bench::Banner("Recovery",
                "durable checkpoint latency and steady-state overhead");

  std::printf("\ncheckpoint write (encode+fsync+rename) and restore "
              "latency, best of 5:\n");
  bench::PrintRow({"window", "KiB", "write ms", "restore ms"}, 12);
  for (size_t window : {128, 1024, 8192}) LatencyRow(window);

  std::printf("\nsteady-state overhead of periodic checkpoints "
              "(window %d, paired runs):\n", 1024);
  OverheadTable();

  fs::remove_all(fs::temp_directory_path() /
                 ("ausdb_bench_recovery_" + std::to_string(getpid())));
  return 0;
}
