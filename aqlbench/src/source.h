// The benchmark-owned stream source and the span recorder of traced
// runs.

#ifndef AQLBENCH_SOURCE_H_
#define AQLBENCH_SOURCE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/operator.h"
#include "workloads.h"

namespace aqlbench {

/// Monotonic nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanName : uint32_t {
  kPlanQuery,
  kRootPull,
  kSourceHandoff,
  kLearn,
};
const char* SpanNameString(SpanName name);

/// One recorded span; `parent` is the parent's index + 1, 0 for none.
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t parent = 0;
  SpanName name = SpanName::kRootPull;
};

/// \brief In-memory span recorder for one thread: spans nest by a
/// stack, so a span begun inside another records it as its parent.
class Tracer {
 public:
  uint32_t Begin(SpanName name) {
    const uint32_t id = static_cast<uint32_t>(spans_.size());
    spans_.push_back({NowNs(), 0, stack_.empty() ? 0 : stack_.back() + 1,
                      name});
    stack_.push_back(id);
    return id;
  }
  void End(uint32_t id) {
    spans_[id].end_ns = NowNs();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }
  void Clear() {
    spans_.clear();
    stack_.clear();
  }
  /// Writes one line per span: id, parent, name, start and end (ns).
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
};

/// \brief Replays pre-drawn inputs into the engine. Each tuple's
/// uncertain fields are learned (dist::LearnGaussian) at hand-off, so
/// learning runs inside the timed loop, and each tuple's arrival
/// sequence is stamped with the time it was handed over — at the end of
/// the Next() or NextBatch() call that produced it.
class BenchSource final : public ausdb::engine::Operator {
 public:
  /// `inputs` and `handoff_ns` (sized to inputs.n) must outlive the
  /// source; `tracer` may be null.
  BenchSource(const WorkloadSpec& spec, const Inputs& inputs,
              std::vector<int64_t>* handoff_ns, Tracer* tracer);

  const ausdb::engine::Schema& schema() const override { return schema_; }
  ausdb::Result<std::optional<ausdb::engine::Tuple>> Next() override;
  ausdb::Status NextBatch(size_t max_n,
                          ausdb::engine::TupleBatch& out) override;

 private:
  ausdb::Result<ausdb::expr::Value> Learn(const std::vector<double>& readings,
                                          size_t i);
  ausdb::Result<ausdb::engine::Tuple> Make(size_t i);

  const std::vector<Column> columns_;
  const Inputs& inputs_;
  ausdb::engine::Schema schema_;
  std::vector<int64_t>* handoff_ns_;
  Tracer* tracer_;
  size_t pos_ = 0;
};

}  // namespace aqlbench

#endif  // AQLBENCH_SOURCE_H_
