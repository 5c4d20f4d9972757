#include "src/serde/tuple_codec.h"

#include <limits>
#include <memory>

#include "src/dist/gaussian.h"

namespace ausdb {
namespace serde {

namespace {

Status WriteValue(CheckpointWriter& w, const expr::Value& v) {
  switch (v.type()) {
    case expr::ValueType::kNull:
      w.Token("n");
      return Status::OK();
    case expr::ValueType::kBool: {
      AUSDB_ASSIGN_OR_RETURN(bool b, v.bool_value());
      w.Token("b");
      w.Uint(b ? 1 : 0);
      return Status::OK();
    }
    case expr::ValueType::kDouble: {
      AUSDB_ASSIGN_OR_RETURN(double d, v.double_value());
      w.Token("d");
      w.Double(d);
      return Status::OK();
    }
    case expr::ValueType::kString: {
      AUSDB_ASSIGN_OR_RETURN(std::string s, v.string_value());
      w.Token("s");
      w.Bytes(s);
      return Status::OK();
    }
    case expr::ValueType::kRandomVar: {
      AUSDB_ASSIGN_OR_RETURN(dist::RandomVar rv, v.random_var());
      const dist::DistributionKind kind = rv.distribution()->kind();
      if (kind == dist::DistributionKind::kPoint) {
        w.Token("rp");
        w.Double(rv.Mean());
        w.Uint(rv.sample_size());
      } else if (kind == dist::DistributionKind::kGaussian) {
        w.Token("rg");
        w.Double(rv.Mean());
        w.Double(rv.Variance());
        w.Uint(rv.sample_size());
      } else {
        return Status::NotImplemented(
            "tuple checkpoint supports point/Gaussian random vars; got " +
            rv.distribution()->ToString());
      }
      // Retained raw sample (bootstrapping keeps the observations on the
      // tuple): 0 = none, m+1 = m retained points — the +1 keeps "empty
      // vector retained" distinct from "no vector".
      const auto& raw = rv.raw_sample();
      w.Uint(raw == nullptr ? 0 : raw->size() + 1);
      if (raw != nullptr) {
        for (double x : *raw) w.Double(x);
      }
      return Status::OK();
    }
  }
  return Status::NotImplemented("unknown value type");
}

Result<expr::Value> ReadValue(CheckpointReader& r) {
  // The tag is read in place: moving it out of the Result makes GCC's
  // optimizer report the short-string compares below as reading an
  // uninitialized buffer (-Wmaybe-uninitialized, a false positive).
  Result<std::string> token = r.NextToken();
  if (!token.ok()) return token.status();
  const std::string& tag = *token;
  if (tag == "n") return expr::Value::Null();
  if (tag == "b") {
    AUSDB_ASSIGN_OR_RETURN(uint64_t b, r.NextUint());
    return expr::Value(b != 0);
  }
  if (tag == "d") {
    AUSDB_ASSIGN_OR_RETURN(double d, r.NextDouble());
    return expr::Value(d);
  }
  if (tag == "s") {
    AUSDB_ASSIGN_OR_RETURN(std::string s, r.NextBytes());
    return expr::Value(std::move(s));
  }
  if (tag == "rp" || tag == "rg") {
    dist::RandomVar rv(dist::MakePoint(0.0), 0);
    if (tag == "rp") {
      AUSDB_ASSIGN_OR_RETURN(double value, r.NextDouble());
      AUSDB_ASSIGN_OR_RETURN(uint64_t n, r.NextUint());
      rv = dist::RandomVar(dist::MakePoint(value), static_cast<size_t>(n));
    } else {
      AUSDB_ASSIGN_OR_RETURN(double mean, r.NextDouble());
      AUSDB_ASSIGN_OR_RETURN(double variance, r.NextDouble());
      AUSDB_ASSIGN_OR_RETURN(uint64_t n, r.NextUint());
      rv = dist::RandomVar(
          std::make_shared<dist::GaussianDist>(mean, variance),
          static_cast<size_t>(n));
    }
    AUSDB_ASSIGN_OR_RETURN(uint64_t raw_tag, r.NextUint());
    if (raw_tag > 0) {
      std::vector<double> raw(static_cast<size_t>(raw_tag) - 1);
      for (double& x : raw) {
        AUSDB_ASSIGN_OR_RETURN(x, r.NextDouble());
      }
      rv.set_raw_sample(
          std::make_shared<const std::vector<double>>(std::move(raw)));
    }
    return expr::Value(std::move(rv));
  }
  return Status::Corruption("unknown tuple-checkpoint value tag '" + tag +
                            "'");
}

}  // namespace

Status WriteTupleCheckpoint(CheckpointWriter& w,
                            const engine::Tuple& tuple) {
  if (tuple.membership_ci().has_value() ||
      tuple.significance().has_value()) {
    return Status::NotImplemented(
        "tuple checkpoint cannot carry accuracy/significance annotations");
  }
  for (const auto& acc : tuple.accuracy()) {
    if (acc.has_value()) {
      return Status::NotImplemented(
          "tuple checkpoint cannot carry accuracy annotations");
    }
  }
  // Rung-0 tuples keep the original "tup" record byte-for-byte, so
  // ungoverned plans' checkpoints are unchanged; a non-zero precision
  // rung (stamped by govern::GovernorGate) upgrades the record to "tu2"
  // — dropping the stamp would silently restore a degraded tuple at
  // full precision, breaking the bit-exact restore contract.
  if (tuple.precision_rung() != 0) {
    w.Token("tu2");
    w.Uint(tuple.precision_rung());
  } else {
    w.Token("tup");
  }
  w.Uint(tuple.sequence());
  w.Double(tuple.membership_prob());
  w.Uint(tuple.membership_df_n());
  w.Uint(tuple.num_values());
  for (const expr::Value& v : tuple.values()) {
    AUSDB_RETURN_NOT_OK(WriteValue(w, v));
  }
  return Status::OK();
}

Result<engine::Tuple> ReadTupleCheckpoint(CheckpointReader& r) {
  AUSDB_ASSIGN_OR_RETURN(std::string tag, r.NextToken());
  uint64_t precision_rung = 0;
  if (tag == "tu2") {
    AUSDB_ASSIGN_OR_RETURN(precision_rung, r.NextUint());
    if (precision_rung > std::numeric_limits<uint32_t>::max()) {
      return Status::Corruption("tuple checkpoint precision rung " +
                                std::to_string(precision_rung) +
                                " out of range");
    }
  } else if (tag != "tup") {
    return Status::Corruption("unknown tuple-checkpoint tag '" + tag +
                              "'");
  }
  AUSDB_ASSIGN_OR_RETURN(uint64_t sequence, r.NextUint());
  AUSDB_ASSIGN_OR_RETURN(double membership_prob, r.NextDouble());
  AUSDB_ASSIGN_OR_RETURN(uint64_t membership_df_n, r.NextUint());
  // Each value is at least a one-letter tag plus separator.
  AUSDB_ASSIGN_OR_RETURN(uint64_t count, r.NextCount(2));
  std::vector<expr::Value> values;
  values.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    AUSDB_ASSIGN_OR_RETURN(expr::Value v, ReadValue(r));
    values.push_back(std::move(v));
  }
  engine::Tuple t(std::move(values));
  t.set_sequence(sequence);
  t.set_membership_prob(membership_prob);
  t.set_membership_df_n(static_cast<size_t>(membership_df_n));
  t.set_precision_rung(static_cast<uint32_t>(precision_rung));
  return t;
}

}  // namespace serde
}  // namespace ausdb
