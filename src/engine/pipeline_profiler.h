#ifndef AUSDB_ENGINE_PIPELINE_PROFILER_H_
#define AUSDB_ENGINE_PIPELINE_PROFILER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/engine/operator.h"
#include "src/obs/clock.h"
#include "src/obs/metrics.h"

namespace ausdb {
namespace engine {

/// \brief Per-operator counters accumulated by a Profile() wrapper.
///
/// The first block is the determinism contract of EXPLAIN ANALYZE:
/// every field is advanced only by pull events (calls, emitted tuples,
/// failed pulls) — pure functions of the delivered tuple sequence, so
/// two runs of the same pipeline produce identical counters across
/// thread counts, prefetch depths, batch sizes of *this* operator's
/// consumer, and metrics on/off.
///
/// The latency fields are the clearly-separated non-deterministic
/// annex: wall-clock samples on the injected obs::Clock, taken once
/// every ProfiledOperator::kLatencySamplePeriod pulls. They never appear
/// in CountersJson()/ReportString(); LatencyAnnexString() renders them
/// behind an explicit "non-deterministic" banner.
struct OperatorProfile {
  std::string name;
  uint64_t next_calls = 0;   ///< scalar pull attempts
  uint64_t batch_calls = 0;  ///< batch pull attempts
  uint64_t tuples = 0;       ///< tuples emitted (batch rows included)
  uint64_t errors = 0;       ///< failed pulls (non-OK status)

  // --- non-deterministic annex (sampled wall clock) ---
  uint64_t latency_samples = 0;
  uint64_t sampled_nanos = 0;
};

/// \brief The accumulator shared by every Profile() wrapper of one
/// pipeline: one slot per wrapped operator, registered bottom-up as the
/// planner builds the chain, so slot i's input is slot i-1's output and
/// per-stage selectivity is tuples[i] / tuples[i-1].
///
/// A profile built over a MetricRegistry also mirrors every slot into
/// the process-wide series, labelled `{operator=<slot name>}`:
///  - `ausdb_engine_tuples_total` — tuples emitted,
///  - `ausdb_engine_next_calls_total` — pull attempts, scalar and batch
///    together,
///  - `ausdb_engine_next_errors_total` — failed pulls,
///  - `ausdb_engine_next_latency_seconds` — the sampled pull latency,
///    recorded only when the wrapper has a clock.
/// The mirror is write-only like the slots: nothing on the data path
/// reads a metric back, so mirroring cannot change delivered output.
///
/// Not thread-safe by design: the Volcano pull loop drives the whole
/// operator chain from the single consumer thread (intra-operator
/// parallelism lives *below* the operator API), so plain counters
/// suffice and the profiled hot path stays a handful of increments.
class PipelineProfile {
 public:
  /// `mirror`, when non-null, must outlive the profile.
  explicit PipelineProfile(obs::MetricRegistry* mirror = nullptr)
      : mirror_(mirror) {}

  /// Registers one operator slot; returns its index. Call in
  /// bottom-up (leaf to root) pipeline order.
  size_t AddOperator(std::string name);

  /// Accounts one pull of slot `index`: a scalar or batch attempt that
  /// failed (`ok` false) or emitted `tuples`, timed when
  /// `sampled_nanos` is set.
  void RecordPull(size_t index, bool batch, bool ok, uint64_t tuples,
                  std::optional<uint64_t> sampled_nanos);

  const std::vector<OperatorProfile>& operators() const { return slots_; }

  /// \brief Byte-deterministic JSON of the deterministic counters only:
  ///   {"operators":[{"name":"source","next_calls":N,"batch_calls":N,
  ///    "tuples":N,"errors":N},...]}
  /// The EXPLAIN ANALYZE determinism harness compares this string
  /// across thread counts, prefetch depths, and metrics settings.
  std::string CountersJson() const;

  /// Deterministic one-line-per-operator report, root first, with
  /// per-stage selectivity (tuples out / tuples in from the slot
  /// below). Numbers render via obs::FormatMetricValue.
  std::string ReportString() const;

  /// The non-deterministic annex: sampled Next() latency per operator.
  /// Kept out of every deterministic rendering above.
  std::string LatencyAnnexString() const;

 private:
  /// One slot's registry series; all null when the profile has no
  /// mirror.
  struct MirrorSeries {
    obs::Counter* tuples = nullptr;
    obs::Counter* calls = nullptr;
    obs::Counter* errors = nullptr;
    obs::Histogram* latency = nullptr;
  };

  obs::MetricRegistry* const mirror_;
  std::vector<OperatorProfile> slots_;
  std::vector<MirrorSeries> series_;
};

/// \brief The one observability wrapper: forwards the child's outcome
/// bit-for-bit (tuples, errors, end-of-stream, checkpoints) while
/// accounting each pull in its PipelineProfile slot — and, through the
/// profile's mirror, in the MetricRegistry.
///
/// Checkpoint/Reset/Close forward transparently, so a wrapped stateful
/// operator still checkpoints. The wrapper is not a ReplayableSource;
/// wrap above sources, not in place of them, when recovery is in play.
class ProfiledOperator final : public Operator {
 public:
  /// One pull in every this many is timed (the first always is); the
  /// counters stay exact. Two clock reads per pull cost ~15-20% on a hot
  /// pipeline; sampling keeps the wrapper inside the 5% overhead budget
  /// that bench_profile_overhead enforces.
  static constexpr uint32_t kLatencySamplePeriod = 16;

  /// `profile` must outlive the operator; `slot` is the index returned
  /// by PipelineProfile::AddOperator. A null `clock` disables latency
  /// sampling entirely (counters still accumulate).
  ProfiledOperator(OperatorPtr child, PipelineProfile* profile, size_t slot,
                   const obs::Clock* clock = nullptr);

  const Schema& schema() const override { return child_->schema(); }
  Result<std::optional<Tuple>> Next() override;
  /// Forwards the child's native batch path; one batch_call per pull,
  /// `tuples` advances by the batch size.
  Status NextBatch(size_t max_n, TupleBatch& out) override;
  Status Reset() override { return child_->Reset(); }
  Status Close() override { return child_->Close(); }
  Result<std::string> SaveCheckpoint() const override {
    return child_->SaveCheckpoint();
  }
  Status RestoreCheckpoint(std::string_view blob) override {
    return child_->RestoreCheckpoint(blob);
  }

 private:
  /// True when this pull is one of the sampled ones.
  bool SampleThisPull() {
    return clock_ != nullptr && call_index_++ % kLatencySamplePeriod == 0;
  }

  OperatorPtr child_;
  PipelineProfile* profile_;
  const size_t slot_;
  const obs::Clock* clock_;
  uint64_t call_index_ = 0;
};

/// Registers `op_name` in `profile` and wraps `child` when `profile` is
/// non-null; returns the child untouched (zero overhead, identical
/// object) when profiling is off.
OperatorPtr Profile(OperatorPtr child, const std::string& op_name,
                    PipelineProfile* profile,
                    const obs::Clock* clock = nullptr);

}  // namespace engine
}  // namespace ausdb

#endif  // AUSDB_ENGINE_PIPELINE_PROFILER_H_
