// Bench-side tracing: spans recorded by the benchmark's own code around
// the calls it makes into the program (HTTP exchanges, suggest_batch
// calls), kept in memory and written out as JSON when the run ends.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace wisdom::bench {

// Seconds on the steady clock since the process's first call.
inline double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
      .count();
}

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;    // index of the causing span; -1 for a root
  long request = -1;  // the request the span belongs to
};

class SpanLog {
 public:
  int add(std::string name, double start_s, double end_s, int parent,
          long request) {
    spans_.push_back(Span{std::move(name), start_s, end_s, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // [{"name":..., "start_ms":..., "end_ms":..., "parent":..., "request":...}]
  std::string json() const {
    std::string out = "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"name\": \"%s\", \"start_ms\": %.4f, \"end_ms\": %.4f, "
                    "\"parent\": %d, \"request\": %ld}%s\n",
                    s.name.c_str(), s.start_s * 1e3, s.end_s * 1e3, s.parent,
                    s.request, i + 1 < spans_.size() ? "," : "");
      out += line;
    }
    return out + "]";
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace wisdom::bench
