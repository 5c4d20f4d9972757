#include "src/stream/supervised_source.h"

#include <cmath>
#include <utility>

#include "src/common/logging.h"
#include "src/dist/gaussian.h"

namespace ausdb {
namespace stream {

namespace {

/// Validity of one uncertain field; OK for deterministic values.
Status ValidateValue(const expr::Value& v, const std::string& field_name) {
  if (!v.is_random_var()) return Status::OK();
  AUSDB_ASSIGN_OR_RETURN(dist::RandomVar rv, v.random_var());
  const double mean = rv.Mean();
  const double variance = rv.Variance();
  if (!std::isfinite(mean) || !std::isfinite(variance) || variance < 0.0) {
    return Status::InvalidArgument(
        "field '" + field_name + "': non-finite distribution parameters (" +
        rv.ToString() + ")");
  }
  if (rv.sample_size() == 0) {
    return Status::InsufficientData("field '" + field_name +
                                    "': zero-sample distribution");
  }
  return Status::OK();
}

}  // namespace

Status ValidateTupleDistributions(const engine::Tuple& tuple,
                                  const engine::Schema& schema) {
  for (size_t i = 0; i < tuple.num_values(); ++i) {
    const std::string& name =
        i < schema.names().size() ? schema.names()[i] : std::to_string(i);
    AUSDB_RETURN_NOT_OK(ValidateValue(tuple.value(i), name));
  }
  return Status::OK();
}

DegradationPolicy MakeWideGaussianDegradation(double mean, double variance,
                                              size_t sample_size) {
  return [mean, variance, sample_size](
             const engine::Tuple& bad,
             const Status&) -> std::optional<engine::Tuple> {
    engine::Tuple repaired = bad;
    for (size_t i = 0; i < repaired.num_values(); ++i) {
      if (ValidateValue(repaired.value(i), "").ok()) continue;
      repaired.values()[i] = expr::Value(dist::RandomVar(
          std::make_shared<dist::GaussianDist>(mean, variance),
          sample_size));
    }
    return repaired;
  };
}

SupervisedScan::SupervisedScan(engine::OperatorPtr child,
                               SupervisedScanOptions options)
    : child_(std::move(child)),
      options_(std::move(options)),
      jitter_rng_(options_.jitter_seed) {
  if (options_.metrics != nullptr) {
    obs::MetricRegistry* reg = options_.metrics;
    const std::vector<obs::Label> labels = {
        {"source", options_.metrics_label}};
    m_emitted_ =
        reg->GetCounter("ausdb_stream_supervision_emitted_total", labels,
                        "Valid tuples passed through the supervisor.");
    m_degraded_ =
        reg->GetCounter("ausdb_stream_supervision_degraded_total", labels,
                        "Invalid tuples repaired by the degradation policy.");
    m_quarantined_ = reg->GetCounter(
        "ausdb_stream_supervision_quarantined_total", labels,
        "Invalid tuples diverted to the dead-letter buffer.");
    m_retries_ =
        reg->GetCounter("ausdb_stream_supervision_retries_total", labels,
                        "Retried child Next() attempts.");
    m_restarts_ =
        reg->GetCounter("ausdb_stream_supervision_restarts_total", labels,
                        "Restart-callback invocations.");
    m_gave_up_ =
        reg->GetCounter("ausdb_stream_supervision_gave_up_total", labels,
                        "Retry budgets exhausted (error propagated).");
    m_backoff_ = reg->GetHistogram(
        "ausdb_stream_supervision_backoff_seconds", labels,
        obs::DefaultLatencySecondsBoundaries(),
        "Scheduled retry backoff delays, in seconds (sum = total backoff).");
  }
}

Result<std::optional<engine::Tuple>> SupervisedScan::PullWithRetry() {
  size_t attempts = 0;
  double elapsed = 0.0;  // scheduled backoff this retry sequence
  bool restarted = false;
  for (;;) {
    Result<std::optional<engine::Tuple>> r = child_->Next();
    if (r.ok()) return r;
    ++attempts;
    if (!options_.retry.ShouldRetry(r.status(), attempts, elapsed)) {
      if (ClassifyStatus(r.status()) == FailureClass::kTransient) {
        ++counters_.gave_up;
        if (m_gave_up_) m_gave_up_->Increment();
        AUSDB_LOG(WARN) << "supervised scan gave up after " << attempts
                        << " attempts: " << r.status().ToString();
        // When the time budget (not the attempt cap) is what stopped the
        // retrying, report that: the caller should know the dependency
        // was still down after the whole wall-clock budget, and what the
        // last underlying error was.
        if (attempts < options_.retry.max_attempts &&
            options_.retry.DeadlineExhausted(elapsed)) {
          return Status::DeadlineExceeded(
              "retry deadline of " +
              std::to_string(options_.retry.max_elapsed_seconds) +
              "s exhausted after " + std::to_string(attempts) +
              " attempts; last error: " + r.status().ToString());
        }
      }
      return r.status();
    }
    if (!restarted && options_.restart &&
        attempts >= options_.restart_after_attempts) {
      AUSDB_RETURN_NOT_OK(options_.restart());
      restarted = true;
      ++counters_.restarts;
      if (m_restarts_) m_restarts_->Increment();
    }
    const double delay =
        options_.retry.BackoffFor(attempts - 1, jitter_rng_);
    elapsed += delay;
    counters_.backoff_seconds += delay;
    if (m_backoff_) m_backoff_->Record(delay);
    if (options_.sleep) options_.sleep(delay);
    ++counters_.retries;
    if (m_retries_) m_retries_->Increment();
  }
}

void SupervisedScan::Quarantine(engine::Tuple tuple, Status status) {
  ++counters_.quarantined;
  if (m_quarantined_) m_quarantined_->Increment();
  AUSDB_LOG(WARN) << "quarantined tuple seq=" << tuple.sequence() << ": "
                  << status.ToString();
  if (options_.quarantine_capacity == 0) return;
  if (quarantine_.size() >= options_.quarantine_capacity) {
    quarantine_.pop_front();
  }
  quarantine_.push_back({std::move(tuple), std::move(status)});
}

Result<std::optional<engine::Tuple>> SupervisedScan::Next() {
  for (;;) {
    AUSDB_ASSIGN_OR_RETURN(std::optional<engine::Tuple> t, PullWithRetry());
    if (!t.has_value()) return std::optional<engine::Tuple>(std::nullopt);

    const Status valid = ValidateTupleDistributions(*t, child_->schema());
    if (valid.ok()) {
      ++counters_.emitted;
      if (m_emitted_) m_emitted_->Increment();
      return t;
    }
    if (options_.degradation) {
      std::optional<engine::Tuple> repaired =
          options_.degradation(*t, valid);
      if (repaired.has_value()) {
        ++counters_.degraded;
        if (m_degraded_) m_degraded_->Increment();
        AUSDB_LOG(WARN) << "degraded tuple seq=" << t->sequence() << ": "
                        << valid.ToString();
        repaired->set_sequence(t->sequence());
        return std::optional<engine::Tuple>(std::move(*repaired));
      }
    }
    Quarantine(std::move(*t), valid);
  }
}

Status SupervisedScan::Reset() {
  counters_ = SupervisionCounters{};
  quarantine_.clear();
  jitter_rng_.Seed(options_.jitter_seed);
  return child_->Reset();
}

}  // namespace stream
}  // namespace ausdb
