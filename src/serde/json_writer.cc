#include "src/serde/json_writer.h"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "src/dist/discrete.h"
#include "src/dist/gaussian.h"
#include "src/dist/histogram.h"
#include "src/obs/exposition.h"

namespace ausdb {
namespace serde {

namespace {

// JSON has no Infinity/NaN; render them as null. Uses the shortest
// representation that round-trips (15 digits when lossless, 17
// otherwise), so 0.9 prints as "0.9" rather than "0.9000...02".
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  for (int precision : {15, 16, 17}) {
    std::ostringstream os;
    os.precision(precision);
    os << v;
    // strtod never throws (subnormal round-trips can raise ERANGE in
    // stod on some libraries).
    const std::string s = os.str();
    if (std::strtod(s.c_str(), nullptr) == v) return s;
  }
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void AppendArray(std::ostringstream& os, const std::vector<double>& v) {
  os << "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) os << ",";
    os << Num(v[i]);
  }
  os << "]";
}

}  // namespace

std::string ToJson(const dist::Distribution& d) {
  std::ostringstream os;
  os << "{\"kind\":"
     << obs::JsonEscape(std::string(DistributionKindToString(d.kind())));
  switch (d.kind()) {
    case dist::DistributionKind::kPoint:
      os << ",\"value\":" << Num(d.Mean());
      break;
    case dist::DistributionKind::kGaussian:
      os << ",\"mean\":" << Num(d.Mean())
         << ",\"variance\":" << Num(d.Variance());
      break;
    case dist::DistributionKind::kHistogram: {
      const auto& h = static_cast<const dist::HistogramDist&>(d);
      os << ",\"edges\":";
      AppendArray(os, h.edges());
      os << ",\"probs\":";
      AppendArray(os, h.probs());
      break;
    }
    case dist::DistributionKind::kDiscrete: {
      const auto& disc = static_cast<const dist::DiscreteDist&>(d);
      os << ",\"values\":";
      AppendArray(os, disc.values());
      os << ",\"probs\":";
      AppendArray(os, disc.probs());
      break;
    }
    default:
      // Summarized kinds: moments only.
      os << ",\"mean\":" << Num(d.Mean())
         << ",\"variance\":" << Num(d.Variance());
      break;
  }
  os << "}";
  return os.str();
}

std::string ToJson(const accuracy::ConfidenceInterval& ci) {
  std::ostringstream os;
  os << "{\"lo\":" << Num(ci.lo) << ",\"hi\":" << Num(ci.hi)
     << ",\"confidence\":" << Num(ci.confidence) << "}";
  return os.str();
}

std::string ToJson(const accuracy::AccuracyInfo& info) {
  std::ostringstream os;
  os << "{\"n\":" << info.sample_size << ",\"method\":"
     << (info.method == accuracy::AccuracyMethod::kAnalytical
             ? "\"analytical\""
             : "\"bootstrap\"");
  if (info.mean_ci) os << ",\"mean_ci\":" << ToJson(*info.mean_ci);
  if (info.variance_ci) {
    os << ",\"variance_ci\":" << ToJson(*info.variance_ci);
  }
  if (!info.bin_cis.empty()) {
    os << ",\"bin_cis\":[";
    for (size_t i = 0; i < info.bin_cis.size(); ++i) {
      if (i > 0) os << ",";
      os << ToJson(info.bin_cis[i]);
    }
    os << "]";
  }
  os << "}";
  return os.str();
}

std::string ToJson(const expr::Value& value) {
  switch (value.type()) {
    case expr::ValueType::kNull:
      return "null";
    case expr::ValueType::kBool:
      return *value.bool_value() ? "true" : "false";
    case expr::ValueType::kDouble:
      return Num(*value.double_value());
    case expr::ValueType::kString:
      return obs::JsonEscape(*value.string_value());
    case expr::ValueType::kRandomVar: {
      const auto rv = *value.random_var();
      std::ostringstream os;
      os << "{\"distribution\":" << ToJson(*rv.distribution());
      if (rv.sample_size() != dist::RandomVar::kCertainSampleSize) {
        os << ",\"n\":" << rv.sample_size();
      }
      os << "}";
      return os.str();
    }
  }
  return "null";
}

std::string ToJson(const engine::Tuple& tuple,
                   const engine::Schema& schema) {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < tuple.num_values() && i < schema.num_fields();
       ++i) {
    if (i > 0) os << ",";
    os << obs::JsonEscape(schema.field(i).name) << ":"
       << ToJson(tuple.value(i));
    if (i < tuple.accuracy().size() && tuple.accuracy()[i].has_value()) {
      os << "," << obs::JsonEscape(schema.field(i).name + "_accuracy") << ":"
         << ToJson(*tuple.accuracy()[i]);
    }
  }
  if (tuple.membership_prob() != 1.0 ||
      tuple.membership_df_n() != dist::RandomVar::kCertainSampleSize) {
    os << ",\"_prob\":" << Num(tuple.membership_prob());
  }
  if (tuple.membership_ci().has_value()) {
    os << ",\"_prob_ci\":" << ToJson(*tuple.membership_ci());
  }
  if (tuple.significance().has_value()) {
    os << ",\"_significance\":"
       << obs::JsonEscape(std::string(
              hypothesis::TestOutcomeToString(*tuple.significance())));
  }
  os << "}";
  return os.str();
}

}  // namespace serde
}  // namespace ausdb
