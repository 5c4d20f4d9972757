// Shared helpers for the per-figure reproduction harnesses.
//
// Each bench_fig* binary regenerates one panel of the paper's evaluation
// (Figures 4(a)-(d) and 5(a)-(h)) and prints the series the paper plots.
// Absolute values depend on the simulated substrate; EXPERIMENTS.md
// records the paper-vs-measured shape comparison.

#ifndef AUSDB_BENCH_FIGURE_COMMON_H_
#define AUSDB_BENCH_FIGURE_COMMON_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/engine/executor.h"
#include "src/engine/operator.h"
#include "src/stream/throughput.h"

namespace ausdb {
namespace bench {

/// Prints a header banner naming the figure.
inline void Banner(const std::string& figure, const std::string& title) {
  std::printf("=== %s: %s ===\n", figure.c_str(), title.c_str());
}

/// Prints one row of a fixed-width table.
inline void PrintRow(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

inline std::string Fmt(double v, int precision = 4) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string FmtInt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

/// Drains `plan` to completion under a ThroughputMeter and returns the
/// measured tuples/second. The one throughput-measurement idiom shared
/// by every figure harness.
inline double MeasureTuplesPerSecond(engine::Operator& plan) {
  stream::ThroughputMeter meter;
  meter.Start();
  auto count = engine::Run(plan);
  AUSDB_CHECK(count.ok()) << count.status().ToString();
  meter.Count(*count);
  meter.Stop();
  return meter.TuplesPerSecond();
}

/// \brief Accumulates benchmark results as rows of named numbers and
/// serializes the repo's `BENCH_<name>.json` trajectory format:
///
///   {"bench": "<name>",
///    "rows": [{"axis": 0.0, "metric": 123.4, ...}, ...]}
///
/// Every bench that wants its results tracked across commits builds one
/// of these alongside its printed table and calls WriteFile at exit.
/// Numbers are emitted with %.17g, so the file round-trips doubles and
/// diffs cleanly when a run is bit-identical.
class JsonResultsWriter {
 public:
  using Row = std::vector<std::pair<std::string, double>>;

  explicit JsonResultsWriter(std::string bench)
      : bench_(std::move(bench)) {}

  void AddRow(Row row) { rows_.push_back(std::move(row)); }

  std::string ToJson() const {
    std::string out = "{\n  \"bench\": \"" + bench_ + "\",\n  \"rows\": [";
    for (size_t r = 0; r < rows_.size(); ++r) {
      out += (r == 0 ? "\n" : ",\n");
      out += "    {";
      for (size_t c = 0; c < rows_[r].size(); ++c) {
        if (c != 0) out += ", ";
        char buf[96];
        std::snprintf(buf, sizeof(buf), "\"%s\": %.17g",
                      rows_[r][c].first.c_str(), rows_[r][c].second);
        out += buf;
      }
      out += "}";
    }
    out += "\n  ]\n}\n";
    return out;
  }

  /// Writes the JSON document to `path`; returns false on I/O failure.
  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string body = ToJson();
    const bool ok =
        std::fwrite(body.data(), 1, body.size(), f) == body.size();
    return (std::fclose(f) == 0) && ok;
  }

 private:
  std::string bench_;
  std::vector<Row> rows_;
};

}  // namespace bench
}  // namespace ausdb

#endif  // AUSDB_BENCH_FIGURE_COMMON_H_
