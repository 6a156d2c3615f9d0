// Tiny statistics and timing helpers (benchmark harnesses, repair phases).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

namespace pred {

/// Wall-clock stopwatch in seconds.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  double elapsed_seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Mean after dropping the min and max, the aggregation used for the paper's
/// overhead numbers ("average of 10 runs, excluding the maximum and minimum",
/// Section 4.2). Falls back to the plain mean for fewer than 3 samples.
inline double trimmed_mean(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  if (samples.size() < 3) {
    return std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
  }
  std::sort(samples.begin(), samples.end());
  double sum = std::accumulate(samples.begin() + 1, samples.end() - 1, 0.0);
  return sum / static_cast<double>(samples.size() - 2);
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

/// Geometric mean; conventional for normalized-runtime summaries.
inline double geomean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double log_sum = 0.0;
  for (double s : samples) log_sum += std::log(s);
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

}  // namespace pred
