#include "src/dist/distribution.h"

#include <cmath>
#include <sstream>

namespace ausdb {
namespace dist {

std::string_view DistributionKindToString(DistributionKind kind) {
  switch (kind) {
    case DistributionKind::kPoint:
      return "point";
    case DistributionKind::kGaussian:
      return "gaussian";
    case DistributionKind::kHistogram:
      return "histogram";
    case DistributionKind::kDiscrete:
      return "discrete";
    case DistributionKind::kEmpirical:
      return "empirical";
    case DistributionKind::kParametric:
      return "parametric";
  }
  return "unknown";
}

double Distribution::StdDev() const { return std::sqrt(Variance()); }

std::string PointDist::ToString() const {
  std::ostringstream os;
  os << "Point(" << value_ << ")";
  return os.str();
}

DistributionPtr MakePoint(double value) {
  return std::make_shared<PointDist>(value);
}

}  // namespace dist
}  // namespace ausdb
