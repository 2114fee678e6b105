// Nearest-rank percentile over raw samples: the one definition the load
// client and the throughput benchmark report with, and the reference
// obs::Histogram::percentile is tested against.
#pragma once

#include <vector>

namespace wisdom::util {

// The smallest sample with at least p% of the samples at or below it.
// p is clamped to [0, 100]; p = 0 gives the smallest sample. Returns 0
// when there are no samples.
double nearest_rank_percentile(std::vector<double> samples, double p);

}  // namespace wisdom::util
