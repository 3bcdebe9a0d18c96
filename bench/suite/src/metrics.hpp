// Sample statistics and the result format of one benchmark run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ompcbench {

/// Nearest-rank percentile (p in (0, 100]): the smallest sample with at
/// least p% of the samples at or below it. 0 for an empty sample.
double percentile(std::vector<double> samples, double p);

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t n = 0;  ///< samples behind the value
};

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;  ///< ops: waves
  std::int64_t failed = 0;     ///< waves of launches that threw or diverged
  std::vector<Metric> metrics;  ///< the declared metrics of this mode
  std::vector<Metric> details;  ///< printed only (absolute layer times)
};

/// `workload metric value unit n=N` lines for metrics and details.
std::string text_lines(const std::string& workload, const Result& r);

/// The result line: {"correct","attempted","failed","metrics"}.
std::string result_json(const Result& r);

/// Shortest decimal form that reads back as exactly `v` (0 if not finite).
std::string json_number(double v);

}  // namespace ompcbench
