#ifndef AUSDB_STREAM_SUPERVISED_SOURCE_H_
#define AUSDB_STREAM_SUPERVISED_SOURCE_H_

#include <deque>
#include <functional>
#include <optional>

#include "src/common/fault_injector.h"
#include "src/common/retry.h"
#include "src/engine/operator.h"
#include "src/obs/metrics.h"

namespace ausdb {
namespace stream {

/// A tuple diverted from the stream, with the Status explaining why.
struct QuarantinedTuple {
  engine::Tuple tuple;
  Status status;
};

/// \brief Substitute for an invalid tuple: given the offending tuple and
/// its validation failure, return a repaired tuple to emit instead
/// (counted as `degraded`), or nullopt to fall through to quarantine.
using DegradationPolicy = std::function<std::optional<engine::Tuple>(
    const engine::Tuple&, const Status&)>;

/// \brief Canned degradation: every invalid uncertain field is replaced
/// by a wide Gaussian prior N(mean, variance) carrying a small de facto
/// sample size, so downstream accuracy intervals widen honestly instead
/// of the tuple disappearing — trading accuracy for availability, which
/// the paper's intervals make visible to the query.
DegradationPolicy MakeWideGaussianDegradation(double mean, double variance,
                                              size_t sample_size);

/// \brief Per-tuple validity check; OK admits the tuple. Rejects
/// non-finite distribution parameters and zero-sample uncertain fields.
Status ValidateTupleDistributions(const engine::Tuple& tuple,
                                  const engine::Schema& schema);

/// How a SupervisedScan waits out a backoff delay. Tests pass a recorder;
/// production connectors pass a real sleep. Null = don't wait (the delay
/// is still computed and accounted in counters().backoff_seconds).
using SleepFn = std::function<void(double seconds)>;

/// Reconnect callback for restartable feeds (reopen the socket, reread
/// the file handle). A non-OK return aborts the retry sequence.
using RestartFn = std::function<Status()>;

/// Options of SupervisedScan.
struct SupervisedScanOptions {
  RetryPolicy retry;

  /// Invoked (at most once per retry sequence) after
  /// `restart_after_attempts` attempts failed, for feeds that need an
  /// explicit reconnect rather than a bare re-pull.
  RestartFn restart;
  size_t restart_after_attempts = 2;

  /// Bound of the dead-letter buffer; when full, the oldest entry is
  /// evicted (counters().quarantined still counts every diversion).
  size_t quarantine_capacity = 1024;

  /// When set, invalid tuples are offered to this policy before
  /// quarantine.
  DegradationPolicy degradation;

  SleepFn sleep;

  /// Seed of the Rng that draws backoff jitter.
  uint64_t jitter_seed = 0x5eedULL;

  /// When non-null, supervision counters are mirrored into
  /// `ausdb_stream_supervision_*` metrics labeled
  /// `{source=metrics_label}`. Strictly write-only: the scan never reads
  /// a metric back, so output is identical with metrics on or off. The
  /// registry must outlive the scan.
  obs::MetricRegistry* metrics = nullptr;
  std::string metrics_label = "supervised_scan";
};

/// Observability counters of a SupervisedScan. The accounting invariant —
/// checked by the soak tests — is
///   emitted + degraded + quarantined == tuples produced by the child.
struct SupervisionCounters {
  size_t emitted = 0;      ///< valid tuples passed through
  size_t degraded = 0;     ///< invalid tuples substituted and emitted
  size_t quarantined = 0;  ///< invalid tuples diverted to the dead letter
  size_t retries = 0;      ///< individual retried Next() attempts
  size_t restarts = 0;     ///< restart callback invocations
  size_t gave_up = 0;      ///< retry budgets exhausted (error propagated)
  double backoff_seconds = 0.0;  ///< total scheduled backoff delay
};

/// \brief Fault-tolerance supervisor wrapping any operator (typically a
/// source): transient Next() failures are retried with exponential
/// backoff, fatal ones propagate unchanged; tuples failing a validity
/// check are quarantined or degraded instead of killing the pipeline.
///
/// This is the recovery layer the seed lacked: failure_injection_test
/// verifies that a mid-stream Status tears down an unsupervised pipeline,
/// and SupervisedScan is the operator that decides which of those
/// failures the pipeline survives.
class SupervisedScan final : public engine::Operator {
 public:
  explicit SupervisedScan(engine::OperatorPtr child,
                          SupervisedScanOptions options = {});

  const engine::Schema& schema() const override { return child_->schema(); }
  Result<std::optional<engine::Tuple>> Next() override;
  Status Reset() override;
  Status Close() override { return child_->Close(); }

  const SupervisionCounters& counters() const { return counters_; }
  const std::deque<QuarantinedTuple>& quarantine() const {
    return quarantine_;
  }

 private:
  /// Pulls from the child, retrying transient failures per the policy.
  Result<std::optional<engine::Tuple>> PullWithRetry();
  void Quarantine(engine::Tuple tuple, Status status);

  engine::OperatorPtr child_;
  SupervisedScanOptions options_;
  SupervisionCounters counters_;
  std::deque<QuarantinedTuple> quarantine_;
  Rng jitter_rng_;

  /// Registry-owned mirrors of SupervisionCounters; all null when
  /// options_.metrics is null.
  obs::Counter* m_emitted_ = nullptr;
  obs::Counter* m_degraded_ = nullptr;
  obs::Counter* m_quarantined_ = nullptr;
  obs::Counter* m_retries_ = nullptr;
  obs::Counter* m_restarts_ = nullptr;
  obs::Counter* m_gave_up_ = nullptr;
  obs::Histogram* m_backoff_ = nullptr;
};

}  // namespace stream
}  // namespace ausdb

#endif  // AUSDB_STREAM_SUPERVISED_SOURCE_H_
