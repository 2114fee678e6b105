// Prometheus text exposition for MetricsRegistry.
//
// Walks the sorted metric map under the registry mutex, so the output
// ordering is deterministic (golden-stable in tests).
#include <cinttypes>
#include <cstdio>

#include "obs/metrics.hpp"

namespace wisdom::obs {

namespace {

// Shortest round-trippable-enough form: integers print without a decimal
// point, everything else as %.6g. Deterministic for the values the
// library produces.
std::string format_double(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v > -1e15 && v < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

std::string format_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

}  // namespace

std::string MetricsRegistry::expose_prometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, entry] : metrics_) {
    if (!entry.help.empty())
      out += "# HELP " + name + " " + entry.help + "\n";
    switch (entry.kind) {
      case Kind::Counter:
        out += "# TYPE " + name + " counter\n";
        out += name + " " + format_u64(entry.counter->value()) + "\n";
        break;
      case Kind::Gauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + " " + format_double(entry.gauge->value()) + "\n";
        break;
      case Kind::Histogram: {
        const Histogram& h = *entry.histogram;
        out += "# TYPE " + name + " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          cumulative += h.bucket_value(i);
          out += name + "_bucket{le=\"" + format_double(h.bounds()[i]) +
                 "\"} " + format_u64(cumulative) + "\n";
        }
        cumulative += h.bucket_value(h.bounds().size());
        out += name + "_bucket{le=\"+Inf\"} " + format_u64(cumulative) +
               "\n";
        out += name + "_sum " + format_double(h.sum()) + "\n";
        out += name + "_count " + format_u64(h.count()) + "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace wisdom::obs
