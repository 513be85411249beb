// Order statistics for the benchmark's repeated samples.
//
// quartiles() matches Python's statistics.quantiles(values, n=4) with its
// default 'exclusive' method, so the quartiles a run prints are computed
// the same way as the ones perfbench/steadiness.py computes over runs.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace perfbench {

/// {q1, median, q3} of `values` (at least one value).
[[nodiscard]] inline std::array<double, 3> quartiles(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("quartiles: no values");
  std::sort(values.begin(), values.end());
  const std::size_t len = values.size();
  if (len == 1) return {values[0], values[0], values[0]};
  std::array<double, 3> out{};
  const std::size_t m = len + 1;
  for (std::size_t i = 1; i <= 3; ++i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, len - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    out[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  return out;
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return quartiles(std::move(values))[1];
}

}  // namespace perfbench
