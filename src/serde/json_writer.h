#ifndef AUSDB_SERDE_JSON_WRITER_H_
#define AUSDB_SERDE_JSON_WRITER_H_

#include <string>

#include "src/accuracy/accuracy_info.h"
#include "src/dist/distribution.h"
#include "src/engine/schema.h"
#include "src/engine/tuple.h"
#include "src/expr/value.h"

namespace ausdb {
namespace serde {

/// \brief JSON rendering of engine objects — the result-export surface.
///
/// AUSDB results are richer than scalars (distributions, intervals,
/// membership probabilities, significance outcomes); downstream tools
/// consume them as JSON. The writer is lossless for histogram/Gaussian/
/// discrete/point distributions; empirical and parametric distributions
/// are summarized by kind and moments, since an empirical payload is
/// usually Monte Carlo bulk.

/// A distribution as JSON, e.g.
/// {"kind":"gaussian","mean":1.0,"variance":2.0}.
std::string ToJson(const dist::Distribution& d);

/// A confidence interval: {"lo":..,"hi":..,"confidence":..}.
std::string ToJson(const accuracy::ConfidenceInterval& ci);

/// Accuracy information with whichever intervals are present.
std::string ToJson(const accuracy::AccuracyInfo& info);

/// A value (null/bool/number/string/random variable).
std::string ToJson(const expr::Value& value);

/// A tuple as an object keyed by field name, with "_prob", "_prob_ci",
/// "_significance" and per-field "_accuracy" members when present.
std::string ToJson(const engine::Tuple& tuple,
                   const engine::Schema& schema);

}  // namespace serde
}  // namespace ausdb

#endif  // AUSDB_SERDE_JSON_WRITER_H_
