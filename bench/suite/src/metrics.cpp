#include "metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace ompcbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string text_lines(const std::string& workload, const Result& r) {
  std::string out;
  char line[256];
  for (const auto* list : {&r.metrics, &r.details}) {
    for (const Metric& m : *list) {
      std::snprintf(line, sizeof line, "%s %s %.6g %s n=%lld%s\n",
                    workload.c_str(), m.name.c_str(), m.value,
                    m.unit.c_str(), static_cast<long long>(m.n),
                    list == &r.details ? " (detail)" : "");
      out += line;
    }
  }
  return out;
}

std::string result_json(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace ompcbench
