#include "util/percentile.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace wisdom::util {

double nearest_rank_percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const double clamped = std::min(std::max(p, 0.0), 100.0);
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(samples.size())));
  if (rank == 0) rank = 1;
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

}  // namespace wisdom::util
