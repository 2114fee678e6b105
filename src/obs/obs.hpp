// Observability kill switch.
//
// Every instrumentation point in the library (metrics updates that read a
// clock, span recording) is guarded by obs::enabled(), which resolves to:
//
//   * compile time: building with -DWISDOM_OBS=OFF defines
//     WISDOM_OBS_DISABLED and enabled() becomes a constant false, so the
//     optimizer deletes the instrumentation outright — zero overhead,
//   * runtime: WISDOM_OBS=0 (or "off"/"false") in the environment, or
//     set_enabled(false), turns instrumentation off for the process; the
//     check is a single relaxed atomic load on the hot path.
//
// Pure counter bumps (wisdom_serve_requests_total and the rest of the
// serving ledger) are NOT gated — they are the service's counts, not
// instrumentation, and cost one relaxed fetch_add. The switch exists for
// the clock-reading instrumentation (histograms of stage/task latency,
// trace spans), which is what can show up in a profile.
#pragma once

#include <atomic>

namespace wisdom::obs {

#if defined(WISDOM_OBS_DISABLED)
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

namespace detail {
// -1 = uninitialized (read WISDOM_OBS on first use), 0 = off, 1 = on.
extern std::atomic<int> g_enabled;
int init_enabled_from_env();
}  // namespace detail

// True when instrumentation should record. Hot-path safe.
inline bool enabled() {
  if constexpr (!kCompiledIn) return false;
  int state = detail::g_enabled.load(std::memory_order_relaxed);
  if (state >= 0) return state != 0;
  return detail::init_enabled_from_env() != 0;
}

// Runtime override (tests, benchmarks measuring instrumentation cost).
// A no-op in WISDOM_OBS=OFF builds.
void set_enabled(bool on);

}  // namespace wisdom::obs
