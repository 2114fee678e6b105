// Seeded chaos harness for the overload-resilient serving stack.
//
// Every test derives its schedule from WISDOM_CHAOS_SEED (default 101; CI
// loops a fixed seed set in release and TSan builds), then randomizes the
// workload shape and the fault schedule — queue capacity, shed policy,
// prompt mix, slow decodes, forced queue-full — and checks the invariant
// that must hold under ANY schedule: the run terminates and yields
// exactly one terminal result per request (a response with ok=true or a
// typed error).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "model/transformer.hpp"
#include "serve/fault.hpp"
#include "serve/service.hpp"
#include "test_util.hpp"
#include "text/bpe.hpp"
#include "util/rng.hpp"

namespace wm = wisdom::model;
namespace ws = wisdom::serve;
namespace wt = wisdom::text;
using wisdom::util::Rng;

namespace {

std::uint64_t chaos_seed() {
  const char* env = std::getenv("WISDOM_CHAOS_SEED");
  if (env != nullptr && *env != '\0')
    return std::strtoull(env, nullptr, 10);
  return 101;
}

using wisdom::testutil::serving_model;
using wisdom::testutil::serving_tokenizer;

// Terminal = the caller can act on it: a successful suggestion, or a typed
// error explaining the refusal/degradation. The storm runs under
// LintPolicy::RejectDegraded with the fallback on, where that dichotomy is
// total — an empty or rejected generation is lint-refused and served from
// the fallback instead of surfacing as an untyped ok=false.
void expect_terminal(const ws::SuggestionResponse& r, std::uint64_t round,
                     std::size_t i, std::uint64_t seed) {
  if (!r.ok) {
    EXPECT_NE(r.error, ws::ServiceError::None)
        << "round " << round << " request " << i << " seed " << seed;
  }
}

}  // namespace

TEST(ChaosService, OverloadStormYieldsOneTerminalResponsePerRequest) {
  const std::uint64_t seed = chaos_seed();
  const wt::BpeTokenizer tokenizer = serving_tokenizer();
  const wm::Transformer model = serving_model(tokenizer);
  const char* prompts[] = {"Install nginx",  "Start redis",  "Copy a file",
                           "Enable service", "Remove package"};

  for (std::uint64_t round = 0; round < 4; ++round) {
    Rng rng(seed * 31337 + round);
    ws::FaultInjector faults;
    ws::ServiceOptions options;
    options.faults = &faults;
    options.queue_capacity = static_cast<int>(rng.uniform_int(1, 4));
    options.shed_policy = rng.chance(0.5) ? ws::ShedPolicy::RejectNewest
                                          : ws::ShedPolicy::DegradeNewest;
    options.lint_policy = ws::LintPolicy::RejectDegraded;
    ws::InferenceService service(model, tokenizer, options);

    std::uint64_t total = 0;
    for (int wave = 0; wave < 3; ++wave) {
      // Re-arm a random fault mix between waves.
      if (rng.chance(0.3)) faults.set_slow_decode_after_tokens(6);
      faults.set_force_queue_full(rng.chance(0.2));

      std::vector<ws::SuggestionRequest> batch(
          static_cast<std::size_t>(rng.uniform_int(2, 6)));
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i].prompt = prompts[rng.uniform_int(0, 4)];
        batch[i].indent = static_cast<int>(rng.uniform_int(0, 2));
      }
      const auto responses = service.suggest_batch(batch);
      ASSERT_EQ(responses.size(), batch.size())
          << "round " << round << " wave " << wave << " seed " << seed;
      for (std::size_t i = 0; i < responses.size(); ++i)
        expect_terminal(responses[i], round, i, seed);
      total += batch.size();

      ws::SuggestionRequest single;
      single.prompt = prompts[rng.uniform_int(0, 4)];
      expect_terminal(service.suggest(single), round, batch.size(), seed);
      ++total;
      faults.reset();
    }
    EXPECT_EQ(wisdom::testutil::metric_value(service.metrics(),
                                             "wisdom_serve_offered_total"),
              total)
        << "round " << round << " seed " << seed;

    // Drain at the end of the storm: the flush must report a stopped
    // service, and post-drain arrivals get the typed refusal.
    const std::string flush = service.drain();
    EXPECT_NE(flush.find("wisdom_drain_state 2"), std::string::npos)
        << "round " << round << " seed " << seed;
    ws::SuggestionRequest late;
    late.prompt = prompts[0];
    const auto refused = service.suggest(late);
    EXPECT_FALSE(refused.ok);
    EXPECT_EQ(refused.error, ws::ServiceError::Draining);
  }
}
