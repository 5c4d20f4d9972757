// Workload definitions of the AQL end-to-end benchmark: the statement
// each workload runs, the prefix chain its stage self-times are
// derived from, its seeded input generator and its planner wiring.

#ifndef AQLBENCH_WORKLOADS_H_
#define AQLBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/schema.h"
#include "src/obs/event_journal.h"
#include "src/query/planner.h"

namespace aqlbench {

/// Raw readings behind each learned Gaussian (the paper's Section V-C
/// stream learns every tuple's distribution from 20 data points).
inline constexpr size_t kReadings = 20;

/// Decision epoch of the governed plans, in gate pulls.
inline constexpr size_t kEpochInterval = 256;

/// grouped_mtest draws its group keys from Zipf(1) over this many
/// values.
inline constexpr size_t kKeys = 1024;

/// Bootstrap resamples r of the BOOTSTRAP annotator (the planner's
/// default, the paper's Example 7).
inline constexpr size_t kBootstrapResamples = 20;

/// One source column of a workload's stream.
enum class Column {
  kX,    ///< uncertain: Gaussian learned from the tuple's x readings
  kV,    ///< uncertain: Gaussian learned from the tuple's v readings
  kKey,  ///< double: group key
  kTs,   ///< double: event time
};

/// One statement of a workload's prefix chain. Each prefix extends the
/// one before it by exactly one stage, so a stage's self time is the
/// difference of two drain times.
struct Prefix {
  std::string stage;  ///< the stage this prefix adds ("source" first)
  std::string sql;
  bool governed = false;
};

struct WorkloadSpec {
  std::string name;
  std::vector<Column> columns;
  /// The timed statement (always the last prefix).
  std::string sql;
  std::vector<Prefix> prefixes;
  /// Input tuples of a measured run and of the smoke mode.
  size_t tuples = 0;
  size_t smoke_tuples = 0;
  double confidence = 0.9;
  /// Count window size; 0 for the RANGE workload.
  size_t window_rows = 0;
  bool grouped = false;
  /// RANGE window duration (late_governed).
  double range = 0.0;
  bool governed = false;
  /// Binds a worker pool to the plan before each drain.
  bool thread_pool = false;
  /// The coupled mean test of the WHERE clause (grouped_mtest):
  /// MTEST(v, '>', c, alpha, alpha).
  double mtest_c = 0.0;
  double mtest_alpha = 0.0;
};

/// The four workloads, in the order BENCHMARK.json lists them.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// Everything the source hands the engine, drawn from the seed before
/// any plan exists. Per-tuple arrays are in arrival order.
struct Inputs {
  size_t n = 0;
  std::vector<double> x;    ///< n * kReadings
  std::vector<double> v;    ///< n * kReadings (grouped_mtest)
  std::vector<double> key;  ///< n (grouped_mtest)
  std::vector<double> ts;   ///< n (late_governed)
  /// True mean of x each tuple's readings were drawn from.
  std::vector<double> x_true_mean;
};

/// Draws a workload's inputs from `seed`: the same seed gives the same
/// inputs.
Inputs Generate(const WorkloadSpec& spec, uint64_t seed, size_t n);

/// FNV-1a digest of the generated inputs.
uint64_t DigestInputs(const Inputs& in);

/// Folds the 8 bytes of `value` into the FNV-1a digest `h`.
inline void FnvFold(uint64_t& h, uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    h ^= (value >> (8 * b)) & 0xFF;
    h *= 0x100000001B3ull;
  }
}
inline constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ull;

/// The bit pattern of `d`.
uint64_t DoubleBits(double d);

/// Source schema of a workload.
ausdb::engine::Schema MakeSchema(const WorkloadSpec& spec);

/// Planner wiring of a workload's plans. `governed` installs the
/// overload governor, driven by a scripted phase list sized to a
/// stream of `tuples`; `journal` must outlive the plan.
ausdb::query::PlannerOptions MakePlannerOptions(
    bool governed, size_t tuples, ausdb::obs::EventJournal* journal);

/// Rungs of the governed plans' degradation ladder.
size_t LadderRungs();

}  // namespace aqlbench

#endif  // AQLBENCH_WORKLOADS_H_
