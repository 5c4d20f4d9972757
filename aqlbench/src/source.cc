#include "source.h"

#include <fstream>
#include <span>

#include "src/dist/learner.h"

namespace aqlbench {

using namespace ausdb;

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kPlanQuery:
      return "query.plan";
    case SpanName::kRootPull:
      return "engine.root_pull";
    case SpanName::kSourceHandoff:
      return "stream.source_handoff";
    case SpanName::kLearn:
      return "dist.learn";
  }
  return "unknown";
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "id\tparent\tname\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i + 1 << '\t' << s.parent << '\t' << SpanNameString(s.name)
        << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

BenchSource::BenchSource(const WorkloadSpec& spec, const Inputs& inputs,
                         std::vector<int64_t>* handoff_ns, Tracer* tracer)
    : columns_(spec.columns),
      inputs_(inputs),
      schema_(MakeSchema(spec)),
      handoff_ns_(handoff_ns),
      tracer_(tracer) {}

Result<expr::Value> BenchSource::Learn(const std::vector<double>& readings,
                                       size_t i) {
  const uint32_t span = tracer_ ? tracer_->Begin(SpanName::kLearn) : 0;
  Result<dist::LearnedDistribution> learned = dist::LearnGaussian(
      std::span<const double>(readings.data() + i * kReadings, kReadings));
  if (tracer_) tracer_->End(span);
  if (!learned.ok()) return learned.status();
  return expr::Value(dist::RandomVar(*learned));
}

Result<engine::Tuple> BenchSource::Make(size_t i) {
  std::vector<expr::Value> values;
  values.reserve(columns_.size());
  for (Column c : columns_) {
    switch (c) {
      case Column::kX: {
        AUSDB_ASSIGN_OR_RETURN(expr::Value v, Learn(inputs_.x, i));
        values.push_back(std::move(v));
        break;
      }
      case Column::kV: {
        AUSDB_ASSIGN_OR_RETURN(expr::Value v, Learn(inputs_.v, i));
        values.push_back(std::move(v));
        break;
      }
      case Column::kKey:
        values.emplace_back(inputs_.key[i]);
        break;
      case Column::kTs:
        values.emplace_back(inputs_.ts[i]);
        break;
    }
  }
  engine::Tuple t(std::move(values));
  t.set_sequence(i);
  return t;
}

Result<std::optional<engine::Tuple>> BenchSource::Next() {
  if (pos_ >= inputs_.n) return std::optional<engine::Tuple>();
  const uint32_t span =
      tracer_ ? tracer_->Begin(SpanName::kSourceHandoff) : 0;
  Result<engine::Tuple> t = Make(pos_);
  (*handoff_ns_)[pos_] = NowNs();
  if (tracer_) tracer_->End(span);
  if (!t.ok()) return t.status();
  ++pos_;
  return std::optional<engine::Tuple>(std::move(*t));
}

Status BenchSource::NextBatch(size_t max_n, engine::TupleBatch& out) {
  if (max_n == 0) return Status::InvalidArgument("max_n must be >= 1");
  out.Clear();
  const size_t end = std::min(inputs_.n, pos_ + max_n);
  if (pos_ == end) return Status::OK();
  const uint32_t span =
      tracer_ ? tracer_->Begin(SpanName::kSourceHandoff) : 0;
  const size_t first = pos_;
  Status status;
  for (; pos_ < end; ++pos_) {
    Result<engine::Tuple> t = Make(pos_);
    if (!t.ok()) {
      status = t.status();
      break;
    }
    out.rows().push_back(std::move(*t));
  }
  const int64_t now = NowNs();
  for (size_t i = first; i < pos_; ++i) (*handoff_ns_)[i] = now;
  if (tracer_) tracer_->End(span);
  return status;
}

}  // namespace aqlbench
