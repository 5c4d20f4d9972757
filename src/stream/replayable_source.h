#ifndef AUSDB_STREAM_REPLAYABLE_SOURCE_H_
#define AUSDB_STREAM_REPLAYABLE_SOURCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/engine/replayable.h"

namespace ausdb {
namespace stream {

/// Options of ReplayableKeyedGaussianSource.
struct KeyedGaussianSourceOptions {
  /// Partition keys cycled round-robin; must be non-empty.
  std::vector<std::string> keys = {"k0", "k1", "k2", "k3"};

  /// Tuples produced in total. Must be > 0 (recovery needs a bounded
  /// golden run to compare against).
  size_t count = 1000;

  /// Raw data points drawn per tuple to learn its Gaussian from.
  size_t points_per_item = 4;

  /// Mean of key i is `mu + i * mu_step`; sigma is shared.
  double mu = 100.0;
  double mu_step = 10.0;
  double sigma = 5.0;

  uint64_t seed = 42;
};

/// \brief Replayable synthetic stream (key:string, value:uncertain):
/// the Section V-C learned-Gaussian stream, keyed for partitioned
/// windows and seekable for crash recovery.
///
/// All randomness comes from one seeded Rng consumed on a fixed
/// schedule (points_per_item normal draws per tuple), so SeekTo(p) can
/// reproduce the exact stream by re-seeding and re-drawing the first p
/// tuples' variates. The draws are replayed through the same sampling
/// path rather than skipped arithmetically: the polar-method Gaussian
/// sampler caches a second variate inside the Rng, so only an identical
/// call sequence reaches an identical state.
class ReplayableKeyedGaussianSource final : public engine::ReplayableSource {
 public:
  static Result<std::unique_ptr<ReplayableKeyedGaussianSource>> Make(
      KeyedGaussianSourceOptions options = {});

  const engine::Schema& schema() const override { return schema_; }
  Result<std::optional<engine::Tuple>> Next() override;
  Status Reset() override;

  uint64_t position() const override { return produced_; }
  Status SeekTo(uint64_t position) override;

 private:
  explicit ReplayableKeyedGaussianSource(KeyedGaussianSourceOptions options);

  engine::Schema schema_;
  KeyedGaussianSourceOptions options_;
  Rng rng_;
  uint64_t produced_ = 0;
  std::vector<double> buffer_;
};

/// Options of ReplayableEventTimeSource.
struct EventTimeSourceOptions {
  /// Tuples produced in total; must be > 0.
  size_t count = 1000;

  /// Event time of tuple i (in original order) is
  /// `start_time + i * time_step`; time_step must be finite and > 0.
  double start_time = 0.0;
  double time_step = 1.0;

  /// Bounded disorder baked into the delivery order: the event-ordered
  /// stream is cut into blocks of `max_displacement + 1` tuples and each
  /// block is shuffled with the seeded Rng, so no tuple is displaced by
  /// more than max_displacement positions. 0 = delivered in event order.
  size_t max_displacement = 0;

  /// Raw data points drawn per tuple to learn its Gaussian from (>= 2).
  size_t points_per_item = 4;
  double mu = 100.0;
  double sigma = 5.0;

  uint64_t seed = 42;
};

/// \brief Replayable timestamped stream (ts:double, value:uncertain)
/// with deterministic bounded disorder, for event-time tests and the
/// reorder-buffer crash sweep.
///
/// The whole stream — values AND delivery order — is materialized at
/// Make() from the seed, so position() is the delivery index and SeekTo
/// is O(1). Each tuple's sequence() is its ORIGINAL event-order index
/// (timestamps are monotone in sequence, not in delivery order), which
/// is what the ReorderBuffer keys its release ordering on.
class ReplayableEventTimeSource final : public engine::ReplayableSource {
 public:
  static Result<std::unique_ptr<ReplayableEventTimeSource>> Make(
      EventTimeSourceOptions options = {});

  const engine::Schema& schema() const override { return schema_; }
  Result<std::optional<engine::Tuple>> Next() override;
  Status Reset() override;

  uint64_t position() const override { return pos_; }
  Status SeekTo(uint64_t position) override;

 private:
  ReplayableEventTimeSource(engine::Schema schema,
                            std::vector<engine::Tuple> tuples);

  engine::Schema schema_;
  std::vector<engine::Tuple> tuples_;
  uint64_t pos_ = 0;
};

/// \brief Replayable scan over a CSV file: each schema field (kString or
/// kDouble) names a CSV column. The table is parsed strictly up front,
/// so position() is simply the row index and SeekTo is O(1).
class CsvReplayableSource final : public engine::ReplayableSource {
 public:
  /// `schema` fields must name columns of the file's header and be
  /// kString or kDouble.
  static Result<std::unique_ptr<CsvReplayableSource>> Make(
      const std::string& path, engine::Schema schema);

  const engine::Schema& schema() const override { return schema_; }
  Result<std::optional<engine::Tuple>> Next() override;
  Status Reset() override;

  uint64_t position() const override { return pos_; }
  Status SeekTo(uint64_t position) override;

  /// Rows in the file (the stream's length).
  uint64_t row_count() const { return rows_.size(); }

 private:
  CsvReplayableSource(engine::Schema schema,
                      std::vector<engine::Tuple> rows);

  engine::Schema schema_;
  std::vector<engine::Tuple> rows_;
  uint64_t pos_ = 0;
};

}  // namespace stream
}  // namespace ausdb

#endif  // AUSDB_STREAM_REPLAYABLE_SOURCE_H_
