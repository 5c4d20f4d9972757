#include "src/engine/pipeline_profiler.h"

#include <utility>

#include "src/obs/exposition.h"

namespace ausdb {
namespace engine {

size_t PipelineProfile::AddOperator(std::string name) {
  MirrorSeries series;
  if (mirror_ != nullptr) {
    const std::vector<obs::Label> labels = {{"operator", name}};
    series.tuples = mirror_->GetCounter("ausdb_engine_tuples_total", labels,
                                        "Tuples emitted by the operator.");
    series.calls =
        mirror_->GetCounter("ausdb_engine_next_calls_total", labels,
                            "Next() pulls issued to the operator.");
    series.errors =
        mirror_->GetCounter("ausdb_engine_next_errors_total", labels,
                            "Next() pulls that returned a failure Status.");
    series.latency = mirror_->GetHistogram(
        "ausdb_engine_next_latency_seconds", labels,
        obs::DefaultLatencySecondsBoundaries(),
        "Wall-clock latency of one Next() pull, in seconds.");
  }
  series_.push_back(series);
  slots_.push_back(OperatorProfile{std::move(name)});
  return slots_.size() - 1;
}

void PipelineProfile::RecordPull(size_t index, bool batch, bool ok,
                                 uint64_t tuples,
                                 std::optional<uint64_t> sampled_nanos) {
  OperatorProfile& s = slots_[index];
  ++(batch ? s.batch_calls : s.next_calls);
  if (ok) {
    s.tuples += tuples;
  } else {
    ++s.errors;
  }
  if (sampled_nanos.has_value()) {
    s.sampled_nanos += *sampled_nanos;
    ++s.latency_samples;
  }
  const MirrorSeries& m = series_[index];
  if (m.calls == nullptr) return;
  m.calls->Increment();
  if (ok) {
    m.tuples->Increment(tuples);
  } else {
    m.errors->Increment();
  }
  if (sampled_nanos.has_value()) {
    m.latency->Record(obs::NanosToSeconds(*sampled_nanos));
  }
}

std::string PipelineProfile::CountersJson() const {
  std::string out = "{\"operators\":[";
  bool first = true;
  for (const OperatorProfile& s : slots_) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":" + obs::JsonEscape(s.name) +
           ",\"next_calls\":" + std::to_string(s.next_calls) +
           ",\"batch_calls\":" + std::to_string(s.batch_calls) +
           ",\"tuples\":" + std::to_string(s.tuples) +
           ",\"errors\":" + std::to_string(s.errors) + "}";
  }
  out += "]}";
  return out;
}

std::string PipelineProfile::ReportString() const {
  std::string out;
  // Root first: slot order is bottom-up, so walk it backwards and
  // compute each stage's selectivity against the slot feeding it.
  for (size_t i = slots_.size(); i-- > 0;) {
    const OperatorProfile& s = slots_[i];
    out += s.name + ": tuples=" + std::to_string(s.tuples) +
           " next_calls=" + std::to_string(s.next_calls) +
           " batch_calls=" + std::to_string(s.batch_calls) +
           " errors=" + std::to_string(s.errors);
    if (i > 0 && slots_[i - 1].tuples > 0) {
      out += " selectivity=" +
             obs::FormatMetricValue(
                 static_cast<double>(s.tuples) /
                 static_cast<double>(slots_[i - 1].tuples));
    }
    out.push_back('\n');
  }
  return out;
}

std::string PipelineProfile::LatencyAnnexString() const {
  std::string out =
      "-- latency annex (sampled wall clock, non-deterministic) --\n";
  for (size_t i = slots_.size(); i-- > 0;) {
    const OperatorProfile& s = slots_[i];
    out += s.name + ": samples=" + std::to_string(s.latency_samples);
    if (s.latency_samples > 0) {
      out += " mean=" +
             obs::FormatMetricValue(obs::NanosToSeconds(
                 s.sampled_nanos / s.latency_samples)) +
             "s";
    }
    out.push_back('\n');
  }
  return out;
}

ProfiledOperator::ProfiledOperator(OperatorPtr child,
                                   PipelineProfile* profile, size_t slot,
                                   const obs::Clock* clock)
    : child_(std::move(child)), profile_(profile), slot_(slot),
      clock_(clock) {}

Result<std::optional<Tuple>> ProfiledOperator::Next() {
  // Next() follows the single-puller volcano contract, so the sample
  // index is a plain member.
  const bool sample = SampleThisPull();
  const uint64_t start = sample ? clock_->NowNanos() : 0;
  Result<std::optional<Tuple>> result = child_->Next();
  std::optional<uint64_t> nanos;
  if (sample) nanos = clock_->NowNanos() - start;
  const bool emitted = result.ok() && result.ValueOrDie().has_value();
  profile_->RecordPull(slot_, /*batch=*/false, result.ok(), emitted ? 1 : 0,
                       nanos);
  return result;
}

Status ProfiledOperator::NextBatch(size_t max_n, TupleBatch& out) {
  const bool sample = SampleThisPull();
  const uint64_t start = sample ? clock_->NowNanos() : 0;
  const Status status = child_->NextBatch(max_n, out);
  std::optional<uint64_t> nanos;
  if (sample) nanos = clock_->NowNanos() - start;
  profile_->RecordPull(slot_, /*batch=*/true, status.ok(), out.size(),
                       nanos);
  return status;
}

OperatorPtr Profile(OperatorPtr child, const std::string& op_name,
                    PipelineProfile* profile, const obs::Clock* clock) {
  if (profile == nullptr) return child;
  const size_t slot = profile->AddOperator(op_name);
  return std::make_unique<ProfiledOperator>(std::move(child), profile, slot,
                                            clock);
}

}  // namespace engine
}  // namespace ausdb
