// Golden end-to-end regression test: a committed model checkpoint plus a
// fixed prompt set must produce byte-exact wire responses, run after run.
// Any intentional behaviour change (decoding, postprocessing, lint gate,
// wire format, caching) regenerates the goldens explicitly:
//
//   ./build/tests/golden_test --update-golden        (or
//   WISDOM_UPDATE_GOLDEN=1 ./build/tests/golden_test)
//
// which re-trains the micro model, rewrites tests/golden/model.ckpt and
// every case_*.json, and leaves the diff for review. Serving goes through
// the fully cached configuration, so the goldens also pin the `cached`
// wire field and the memo-replay path.
//
// Determinism caveat: decoding is float-exact per build configuration;
// goldens are generated under the portable flag set CI uses. A mismatch
// prints a line diff of expected vs actual.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "data/packing.hpp"
#include "model/checkpoint.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "text/bpe.hpp"

namespace wc = wisdom::core;
namespace wd = wisdom::data;
namespace wm = wisdom::model;
namespace ws = wisdom::serve;
namespace wt = wisdom::text;

namespace {

bool g_update_golden = false;

std::filesystem::path golden_dir() {
  if (const char* env = std::getenv("WISDOM_GOLDEN_DIR")) return env;
  return WISDOM_GOLDEN_DIR;  // compile definition: <source>/tests/golden
}

struct GoldenCase {
  const char* name;
  const char* context;
  const char* prompt;
  int indent;
};

// Fixed forever (append new cases; never reorder). The final case repeats
// the first so the goldens pin the response-memo replay path, `cached`
// wire field included.
const GoldenCase kCases[] = {
    {"install_nginx", "", "Install nginx", 0},
    {"install_redis_with_context",
     "- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n"
     "    state: present\n",
     "Install redis", 0},
    {"install_git_indented", "", "Install git", 2},
    {"repeat_install_nginx", "", "Install nginx", 0},
};

// Strips the fields that legitimately vary between byte-identical runs
// (wall-clock latency, trace identity); everything else must be stable.
std::string canonical_json(ws::SuggestionResponse response) {
  response.latency_ms = 0.0;
  response.trace_id.clear();
  response.server_timing_ms.clear();
  return ws::to_json(response);
}

std::optional<std::string> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::filesystem::path& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.is_open()) << "cannot write " << path;
  out << data;
}

// First-divergence line diff, so a golden failure reads like a review.
std::string line_diff(const std::string& expected, const std::string& actual) {
  std::istringstream e(expected), a(actual);
  std::string el, al;
  std::ostringstream out;
  int line = 1;
  while (true) {
    bool more_e = static_cast<bool>(std::getline(e, el));
    bool more_a = static_cast<bool>(std::getline(a, al));
    if (!more_e && !more_a) break;
    if (!more_e) el.clear();
    if (!more_a) al.clear();
    if (el != al) {
      out << "line " << line << ":\n  - " << el << "\n  + " << al << "\n";
    }
    ++line;
  }
  return out.str();
}

wm::ModelConfig micro_config(const wt::BpeTokenizer& tokenizer) {
  wm::ModelConfig cfg;
  cfg.vocab = static_cast<int>(tokenizer.vocab_size());
  cfg.ctx = 48;
  cfg.d_model = 24;
  cfg.n_head = 2;
  cfg.n_layer = 2;
  cfg.d_ff = 48;
  return cfg;
}

// Trains the golden micro model from scratch (update mode only); normal
// runs always decode from the committed checkpoint, which is what makes
// the goldens reproducible without re-training drift.
void retrain_and_save(const std::filesystem::path& ckpt) {
  wt::BpeTokenizer tokenizer = wt::BpeTokenizer::train(
      "- name: Install nginx\n  ansible.builtin.apt:\n"
      "    name: nginx\n    state: present\n",
      300);
  wm::Transformer model(micro_config(tokenizer), 21);
  std::vector<std::string> texts;
  const char* pkgs[] = {"nginx", "redis", "git", "curl", "vim",
                        "htop", "jq", "wget"};
  for (int rep = 0; rep < 12; ++rep)
    for (const char* pkg : pkgs)
      texts.push_back(std::string("- name: Install ") + pkg +
                      "\n  ansible.builtin.apt:\n    name: " + pkg +
                      "\n    state: present\n");
  auto set = wd::pack_samples(tokenizer, texts, 48);
  wc::TrainConfig tc;
  tc.epochs = 30;
  tc.micro_batch = 4;
  tc.grad_accum = 1;
  tc.lr = 3e-3f;
  wc::train_model(model, set, nullptr, tc);
  ASSERT_TRUE(wm::save_checkpoint_file(ckpt.string(), model,
                                       tokenizer.serialize()));
}

ws::ServiceOptions golden_service_options() {
  ws::ServiceOptions options;
  options.max_new_tokens = 24;
  options.prefix_cache_enabled = true;
  options.response_cache_enabled = true;
  return options;
}

std::vector<std::string> serve_cases(const wm::Transformer& model,
                                     const wt::BpeTokenizer& tokenizer) {
  ws::InferenceService service(model, tokenizer, golden_service_options());
  std::vector<std::string> out;
  for (const GoldenCase& c : kCases) {
    ws::SuggestionRequest request;
    request.context = c.context;
    request.prompt = c.prompt;
    request.indent = c.indent;
    out.push_back(canonical_json(service.suggest(request)));
  }
  return out;
}

}  // namespace

TEST(Golden, ServedResponsesMatchCommittedBytes) {
  const auto dir = golden_dir();
  const auto ckpt = dir / "model.ckpt";
  if (g_update_golden) {
    std::filesystem::create_directories(dir);
    retrain_and_save(ckpt);
  }
  auto loaded = wm::load_checkpoint_file_ex(ckpt.string());
  ASSERT_TRUE(loaded.ok()) << "golden checkpoint unreadable ("
                           << loaded.message
                           << ") — run with --update-golden";
  auto tokenizer = wt::BpeTokenizer::deserialize(loaded.tokenizer);
  ASSERT_TRUE(tokenizer.has_value());

  auto actual = serve_cases(*loaded.model, *tokenizer);
  ASSERT_EQ(actual.size(), std::size(kCases));
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const auto path = dir / (std::string("case_") + kCases[i].name + ".json");
    if (g_update_golden) {
      write_file(path, actual[i] + "\n");
      continue;
    }
    auto expected = read_file(path);
    ASSERT_TRUE(expected.has_value())
        << path << " missing — run with --update-golden";
    EXPECT_EQ(*expected, actual[i] + "\n")
        << "golden mismatch for " << kCases[i].name << "\n"
        << line_diff(*expected, actual[i] + "\n")
        << "intentional change? regenerate with --update-golden";
  }
}

// The checkpoint round-trip is part of the regression surface: a model
// saved and reloaded must serve the exact same golden bytes, and
// invalidate_caches() (mandatory on reload) must not change them.
TEST(Golden, CheckpointRoundTripServesSameBytes) {
  const auto ckpt = golden_dir() / "model.ckpt";
  auto first = wm::load_checkpoint_file_ex(ckpt.string());
  ASSERT_TRUE(first.ok()) << first.message;
  auto tokenizer = wt::BpeTokenizer::deserialize(first.tokenizer);
  ASSERT_TRUE(tokenizer.has_value());
  auto baseline = serve_cases(*first.model, *tokenizer);

  // Save → reload → serve again, with a cache invalidation where a real
  // deployment would put it (right after swapping the model in).
  std::string bytes = wm::save_checkpoint(*first.model, first.tokenizer);
  auto second = wm::load_checkpoint_ex(bytes);
  ASSERT_TRUE(second.ok()) << second.message;
  ws::InferenceService service(*second.model, *tokenizer,
                               golden_service_options());
  ws::SuggestionRequest warm;
  warm.prompt = "Install nginx";
  service.suggest(warm);  // populate caches
  service.invalidate_caches();
  EXPECT_EQ(service.prefix_cache_stats().entries, 0u);

  std::vector<std::string> replayed;
  for (const GoldenCase& c : kCases) {
    ws::SuggestionRequest request;
    request.context = c.context;
    request.prompt = c.prompt;
    request.indent = c.indent;
    replayed.push_back(canonical_json(service.suggest(request)));
  }
  // The pre-invalidation warm-up made "install_nginx" a memo hit in the
  // replay only if invalidation failed; equal bytes prove it worked and
  // the round-tripped model decodes identically.
  EXPECT_EQ(replayed, baseline);
}

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--update-golden") g_update_golden = true;
  }
  if (const char* env = std::getenv("WISDOM_UPDATE_GOLDEN")) {
    if (std::string_view(env) == "1") g_update_golden = true;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
