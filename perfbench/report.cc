#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

}  // namespace

std::span<const MetricSpec> CatalogFor(bool trace) {
  if (trace) return kPerLayer;
  return kEndToEnd;
}

std::string RenderJson(const Report& report, bool trace) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : CatalogFor(trace)) {
    const auto it = report.metrics.find(spec.name);
    if (it == report.metrics.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   spec.name);
      std::abort();
    }
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::string(spec.name) + "\": {\"value\": " +
           Number(it->second) + ", \"unit\": \"" + spec.unit + "\"}";
  }
  out += "}}";
  return out;
}

double Percentile(std::vector<uint32_t>& samples, double q) {
  if (samples.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index =
      std::min(samples.size() - 1,
               static_cast<size_t>(std::max(1.0, rank)) - 1);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

}  // namespace perfbench
