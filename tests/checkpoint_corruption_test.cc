// Fuzz-style corruption sweep over operator checkpoints: truncate a
// valid blob at every byte offset and flip every byte, at both layers.
//
// At the checkpoint *file* layer the guarantee is strict: every
// corruption decodes to kCorruption — never a crash, never a silent
// success (the CRC32C envelope catches what field validation does not).
// At the raw token layer (below the envelope, so no checksum) the
// guarantee is weaker by design — a flipped hex digit yields a
// different but well-formed double — so the sweep there asserts decode
// never crashes and never misreads structure, which is what the
// ASan/UBSan CI jobs turn into hard failures.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/dist/gaussian.h"
#include "src/engine/executor.h"
#include "src/engine/scan.h"
#include "src/engine/window_aggregate.h"
#include "src/serde/checkpoint.h"
#include "src/serde/checkpoint_file.h"

namespace ausdb {
namespace engine {
namespace {

using dist::RandomVar;

Schema KeyedSchema() {
  Schema s;
  EXPECT_TRUE(s.AddField({"key", FieldType::kString}).ok());
  EXPECT_TRUE(s.AddField({"x", FieldType::kUncertain}).ok());
  return s;
}

Tuple KeyedTuple(const std::string& key, double mean) {
  return Tuple({expr::Value(key),
                expr::Value(RandomVar(
                    std::make_shared<dist::GaussianDist>(mean, 1.0), 8))});
}

std::vector<Tuple> KeyedTuples(size_t n) {
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < n; ++i) {
    tuples.push_back(
        KeyedTuple(std::string("k") + std::to_string(i % 3), 10.0 + double(i)));
  }
  return tuples;
}

// A checkpointed ungrouped WindowAggregate mid-stream.
std::string WaggBlob() {
  Schema s;
  EXPECT_TRUE(s.AddField({"x", FieldType::kUncertain}).ok());
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < 9; ++i) {
    tuples.push_back(Tuple({expr::Value(RandomVar(
        std::make_shared<dist::GaussianDist>(5.0 + double(i), 1.0), 8))}));
  }
  auto scan = std::make_unique<VectorScan>(std::move(s), std::move(tuples));
  WindowAggregateOptions opts;
  opts.window_size = 4;
  auto agg = WindowAggregate::Make(std::move(scan), "x", "avg", opts);
  EXPECT_TRUE(agg.ok());
  auto out = Collect(**agg);
  EXPECT_TRUE(out.ok());
  auto blob = (*agg)->SaveCheckpoint();
  EXPECT_TRUE(blob.ok());
  return *blob;
}

// A checkpointed grouped WindowAggregate, after `pulled` outputs (every
// output when unset).
std::string GroupedBlob(size_t inputs, std::optional<size_t> pulled) {
  auto scan =
      std::make_unique<VectorScan>(KeyedSchema(), KeyedTuples(inputs));
  WindowAggregateOptions opts;
  opts.window_size = 3;
  auto agg = WindowAggregate::Make(std::move(scan), "x", "avg", opts, "key");
  EXPECT_TRUE(agg.ok());
  auto out = pulled.has_value() ? engine::Run(**agg, {.limit = *pulled})
                                : engine::Run(**agg);
  EXPECT_TRUE(out.ok());
  auto blob = (*agg)->SaveCheckpoint();
  EXPECT_TRUE(blob.ok());
  return *blob;
}

// Fresh identically configured operators to restore into.
Status RestoreWagg(std::string_view blob) {
  Schema s;
  EXPECT_TRUE(s.AddField({"x", FieldType::kUncertain}).ok());
  auto scan = std::make_unique<VectorScan>(std::move(s),
                                           std::vector<Tuple>{});
  WindowAggregateOptions opts;
  opts.window_size = 4;
  auto agg = WindowAggregate::Make(std::move(scan), "x", "avg", opts);
  EXPECT_TRUE(agg.ok());
  return (*agg)->RestoreCheckpoint(blob);
}

Status RestoreGrouped(std::string_view blob) {
  auto scan = std::make_unique<VectorScan>(KeyedSchema(),
                                           std::vector<Tuple>{});
  WindowAggregateOptions opts;
  opts.window_size = 3;
  auto agg = WindowAggregate::Make(std::move(scan), "x", "avg", opts, "key");
  EXPECT_TRUE(agg.ok());
  return (*agg)->RestoreCheckpoint(blob);
}

using RestoreFn = Status (*)(std::string_view);

struct Subject {
  const char* name;
  std::string blob;
  RestoreFn restore;
};

std::vector<Subject> Subjects() {
  return {{"ungrouped", WaggBlob(), &RestoreWagg},
          {"grouped", GroupedBlob(15, std::nullopt), &RestoreGrouped},
          {"grouped mid-stream", GroupedBlob(20, 2), &RestoreGrouped}};
}

// ---------------------------------------------------------------------
// File layer: every corruption is DETECTED (kCorruption, always).

TEST(CheckpointCorruptionTest, FileLayerDetectsEveryTruncation) {
  for (const Subject& s : Subjects()) {
    ASSERT_TRUE(s.restore(s.blob).ok()) << s.name;  // sanity: blob valid
    const std::string file = serde::EncodeCheckpointFile(s.blob);
    for (size_t len = 0; len < file.size(); ++len) {
      auto r = serde::DecodeCheckpointFile(file.substr(0, len));
      ASSERT_FALSE(r.ok()) << s.name << " truncated to " << len;
      ASSERT_TRUE(r.status().IsCorruption())
          << s.name << " truncated to " << len << ": "
          << r.status().ToString();
    }
  }
}

TEST(CheckpointCorruptionTest, FileLayerDetectsEveryByteFlip) {
  for (const Subject& s : Subjects()) {
    const std::string file = serde::EncodeCheckpointFile(s.blob);
    for (size_t byte = 0; byte < file.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = file;
        flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
        auto r = serde::DecodeCheckpointFile(flipped);
        ASSERT_FALSE(r.ok())
            << s.name << " flip at byte " << byte << " bit " << bit
            << " decoded successfully";
        ASSERT_TRUE(r.status().IsCorruption())
            << s.name << ": " << r.status().ToString();
      }
    }
  }
}

// ---------------------------------------------------------------------
// Token layer (no checksum below the envelope): corruption must never
// crash or hang the decoder. Truncations always fail cleanly; byte
// flips may legitimately decode (a flipped hex digit is another valid
// double — that is exactly why the file envelope exists).

TEST(CheckpointCorruptionTest, TokenLayerSurvivesEveryTruncation) {
  for (const Subject& s : Subjects()) {
    for (size_t len = 0; len < s.blob.size(); ++len) {
      // Most truncations fail structurally; a cut inside the final
      // integer token can still parse (shorter valid digits), which the
      // envelope's CRC exists to catch. Here: must not crash or
      // over-read.
      (void)s.restore(std::string_view(s.blob).substr(0, len));
    }
    // Cutting the blob in half always severs required structure.
    const Status st =
        s.restore(std::string_view(s.blob).substr(0, s.blob.size() / 2));
    ASSERT_FALSE(st.ok()) << s.name << " restored from half a blob";
  }
}

TEST(CheckpointCorruptionTest, TokenLayerSurvivesEveryByteFlip) {
  for (const Subject& s : Subjects()) {
    for (size_t byte = 0; byte < s.blob.size(); ++byte) {
      std::string flipped = s.blob;
      flipped[byte] = static_cast<char>(flipped[byte] ^ 0x15);
      // Must not crash (ASan/UBSan enforce), must not allocate from a
      // damaged count (NextCount bounds them); the Status outcome is
      // whatever the damage produced.
      (void)s.restore(flipped);
    }
  }
}

// A damaged count field must be rejected before it drives an
// allocation: craft wagg.v7 blobs declaring 2^40 partitions, and 2^40
// entries in one partition.
serde::CheckpointWriter GroupedHeader() {
  serde::CheckpointWriter w;
  w.Token("wagg.v7");
  w.Uint(0);  // kind = sliding
  w.Uint(0);  // fn = avg
  w.Uint(3);  // window size
  w.Uint(1);  // grouped
  w.Uint(0);  // input consumed
  return w;
}

TEST(CheckpointCorruptionTest, HugeDeclaredCountsRejectedUpFront) {
  serde::CheckpointWriter w = GroupedHeader();
  w.Uint(uint64_t{1} << 40);  // partition count: absurd
  const Status st = RestoreGrouped(std::move(w).Finish());
  ASSERT_TRUE(st.IsCorruption()) << st.ToString();

  serde::CheckpointWriter w2 = GroupedHeader();
  w2.Uint(1);  // one partition
  w2.Bytes("k0");
  for (int i = 0; i < 4; ++i) w2.Double(0.0);  // sums and compensations
  w2.Uint(uint64_t{1} << 40);                  // entry count: absurd
  const Status st2 = RestoreGrouped(std::move(w2).Finish());
  ASSERT_TRUE(st2.IsCorruption()) << st2.ToString();
}

}  // namespace
}  // namespace engine
}  // namespace ausdb
