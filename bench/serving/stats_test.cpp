// Unit tests for the benchmark's statistics (stats.hpp). Standard library
// only; exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"

using namespace wisdom::bench;

namespace {

int g_failed = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
    ++g_failed;
  }
}
#define CHECK(expr) check((expr), #expr, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void nearest_rank_percentiles() {
  std::vector<double> v = {5, 1, 4, 2, 3};  // unsorted on purpose
  CHECK(near(percentile(v, 50), 3));   // rank ceil(2.5) = 3
  CHECK(near(percentile(v, 20), 1));   // rank 1
  CHECK(near(percentile(v, 21), 2));   // rank ceil(1.05) = 2
  CHECK(near(percentile(v, 100), 5));
  CHECK(near(percentile(v, 0.001), 1));  // clamps to rank 1
  CHECK(near(percentile({}, 50), 0));
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  CHECK(near(percentile(hundred, 99), 99));
  CHECK(near(percentile(hundred, 99.5), 100));
  CHECK(near(mean({1, 2, 3, 6}), 3));
}

void supported_percentiles() {
  // p99 of 1000 samples sits at rank 990: exactly 10 beyond it.
  CHECK(supported_percentile(1000) == 99.0);
  CHECK(supported_percentile(999) == 95.0);  // rank 990 leaves 9
  CHECK(supported_percentile(10000) == 99.9);
  CHECK(supported_percentile(200) == 95.0);  // rank 190 leaves 10
  CHECK(supported_percentile(20) == 50.0);   // rank 10 leaves 10
  CHECK(supported_percentile(19) == 0.0);
  CHECK(supported_percentile(100, 1) == 99.0);
}

// Simulates the dispatcher on one clock: due times and service times in
// ms; returns each request's latency measured from its due time.
std::vector<double> simulate(const std::vector<double>& due,
                             const std::vector<double>& service,
                             int connections) {
  OpenLoopDispatcher dispatcher(connections);
  std::vector<double> done(due.size(), 0.0);
  // Each busy connection: (finish time, request). Events in time order.
  std::vector<std::pair<double, std::size_t>> busy;
  std::size_t next = 0;
  while (next < due.size() || !busy.empty()) {
    auto earliest = busy.begin();
    for (auto it = busy.begin(); it != busy.end(); ++it)
      if (it->first < earliest->first) earliest = it;
    if (next < due.size() && (busy.empty() || due[next] < earliest->first)) {
      std::size_t id = next++;
      if (dispatcher.on_due(id)) busy.push_back({due[id] + service[id], id});
      continue;
    }
    auto [t, id] = *earliest;
    busy.erase(earliest);
    done[id] = t;
    std::size_t waiting = dispatcher.on_complete();
    if (waiting != OpenLoopDispatcher::npos)
      busy.push_back({t + service[waiting], waiting});
  }
  std::vector<double> latency;
  for (std::size_t i = 0; i < due.size(); ++i) latency.push_back(done[i] - due[i]);
  return latency;
}

void due_time_accounting() {
  // One connection; the first request stalls for 10 ms. Every request
  // queued behind it is charged the stall: timed from its due time, each
  // waits until 10 + its turn, not just its own 1 ms of service.
  std::vector<double> latency =
      simulate({0, 1, 2, 3}, {10, 1, 1, 1}, 1);
  CHECK(near(latency[0], 10));
  CHECK(near(latency[1], 10));  // due 1, sent 10, done 11
  CHECK(near(latency[2], 10));  // due 2, sent 11, done 12
  CHECK(near(latency[3], 10));  // due 3, sent 12, done 13
  // With a second connection the stall charges no one else.
  latency = simulate({0, 1, 2, 3}, {10, 1, 1, 1}, 2);
  CHECK(near(latency[0], 10));
  CHECK(near(latency[1], 1));
  CHECK(near(latency[2], 1));
  CHECK(near(latency[3], 1));
  // FIFO: the waiting request sent first is the one due first.
  OpenLoopDispatcher dispatcher(1);
  CHECK(dispatcher.on_due(7));
  CHECK(!dispatcher.on_due(8));
  CHECK(!dispatcher.on_due(9));
  CHECK(dispatcher.on_complete() == 8);
  CHECK(dispatcher.on_complete() == 9);
  CHECK(dispatcher.on_complete() == OpenLoopDispatcher::npos);
  // A free connection does not jump the queue of waiting requests.
  CHECK(dispatcher.on_due(10));
}

void goodput_rule() {
  const int connections = 4;
  PhaseResult calm{10.0, 5.0, 0, 1, 2, 100};
  PhaseResult busy{20.0, 9.0, 0, 2, 6, 200};        // +4 <= 4 + 10: stable
  PhaseResult growing{40.0, 9.0, 0, 6, 60, 400};    // +54 > 4 + 20
  PhaseResult slow{30.0, 50.0, 0, 2, 3, 300};       // misses the limit
  PhaseResult failing{25.0, 5.0, 1, 2, 3, 250};     // a failed request
  CHECK(!backlog_grows(busy, connections));
  CHECK(backlog_grows(growing, connections));
  CHECK(near(goodput({calm, busy, growing}, 10.0, connections), 20.0));
  CHECK(near(goodput({calm, slow}, 10.0, connections), 10.0));
  CHECK(near(goodput({calm, failing}, 10.0, connections), 10.0));
  CHECK(near(goodput({slow, growing}, 10.0, connections), 0.0));
  // The limit is inclusive.
  CHECK(near(goodput({busy}, 9.0, connections), 20.0));
}

}  // namespace

int main() {
  nearest_rank_percentiles();
  supported_percentiles();
  due_time_accounting();
  goodput_rule();
  if (g_failed == 0) std::printf("all statistics checks passed\n");
  return g_failed == 0 ? 0 : 1;
}
