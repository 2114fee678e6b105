// Shared test fixtures: the tiny-model / tokenizer / checkpoint builders
// used by the model, serve, cache, chaos, parity and http suites, so each
// constructs identical models from one definition.
//
// Two model families live here:
//  - tiny_config() / serving_model(): an UNtrained 2-layer model whose
//    outputs are arbitrary but deterministic — right for parity and
//    chaos tests, where only byte-identity across serving modes matters.
//  - TrainedTinyModel: a micro model trained for ~2s on a synthetic
//    apt-task corpus, producing schema-shaped YAML — right for
//    end-to-end/golden tests that assert on response content. Its
//    `draft` member is a smaller config trained on the SAME corpus with
//    the SAME tokenizer, so greedy agreement with the main model is high
//    — the speculative-decoding tests and benches need that pairing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "data/packing.hpp"
#include "model/config.hpp"
#include "model/transformer.hpp"
#include "nn/ops.hpp"
#include "text/bpe.hpp"
#include "util/rng.hpp"

namespace wisdom::testutil {

// The untrained micro-model config shared by the chaos and parity-style
// tests (96-token vocab, no tokenizer involved).
inline model::ModelConfig tiny_config() {
  model::ModelConfig cfg;
  cfg.vocab = 96;
  cfg.ctx = 48;
  cfg.d_model = 24;
  cfg.n_head = 2;
  cfg.n_layer = 2;
  cfg.d_ff = 48;
  return cfg;
}

// A strictly smaller config over the same vocab/ctx — the draft side of
// a speculative pair. Sharing ctx keeps the applicability gate
// (draft ctx >= model ctx) satisfied.
inline model::ModelConfig tiny_draft_config() {
  model::ModelConfig cfg = tiny_config();
  cfg.d_model = 16;
  cfg.n_head = 2;
  cfg.n_layer = 1;
  cfg.d_ff = 32;
  return cfg;
}

// Forces every kernel through the thread pool (threshold 0) while alive,
// so parity tests exercise parallel kernels even on tiny models.
struct ForceParallel {
  std::size_t saved = nn::parallel_threshold();
  ForceParallel() { nn::set_parallel_threshold(0); }
  ~ForceParallel() { nn::set_parallel_threshold(saved); }
};

inline std::vector<std::int32_t> random_prompt(util::Rng& rng, int min_len,
                                               int max_len,
                                               std::int32_t vocab) {
  std::vector<std::int32_t> prompt(
      static_cast<std::size_t>(rng.uniform_int(min_len, max_len)));
  for (auto& t : prompt)
    t = static_cast<std::int32_t>(
        rng.uniform(static_cast<std::uint64_t>(vocab)));
  return prompt;
}

// The service-level fixtures: a BPE tokenizer trained on one nginx task
// and an untrained model sized to its vocab.
inline text::BpeTokenizer serving_tokenizer() {
  return text::BpeTokenizer::train(
      "- name: Install nginx\n  ansible.builtin.apt:\n"
      "    name: nginx\n    state: present\n",
      280);
}

inline model::Transformer serving_model(const text::BpeTokenizer& tokenizer) {
  model::ModelConfig cfg = tiny_config();
  cfg.vocab = static_cast<std::int32_t>(tokenizer.vocab_size());
  return model::Transformer(cfg, 17);
}

// An untrained draft paired with serving_model(): same vocab, same ctx,
// smaller everything else. Deterministic (fixed seed), so parity runs
// that share it produce identical draft proposals.
inline model::Transformer serving_draft(const text::BpeTokenizer& tokenizer) {
  model::ModelConfig cfg = tiny_draft_config();
  cfg.vocab = static_cast<std::int32_t>(tokenizer.vocab_size());
  return model::Transformer(cfg, 29);
}

// The trained micro-model shared by content-asserting suites. Training
// takes ~2s; suites hold one instance via trained_tiny(). The draft is
// trained on the same packed corpus so its greedy argmax agrees with the
// main model on most schema tokens — speculation then actually commits
// multi-token runs in tests instead of degenerating to k rejections.
struct TrainedTinyModel {
  text::BpeTokenizer tokenizer;
  model::Transformer model;
  model::Transformer draft;

  TrainedTinyModel()
      : tokenizer(text::BpeTokenizer::train(corpus(), 300)),
        model(config(), 21),
        draft(draft_config(), 33) {
    std::vector<std::string> texts;
    const char* pkgs[] = {"nginx", "redis", "git", "curl", "vim",
                          "htop", "jq", "wget"};
    for (int rep = 0; rep < 12; ++rep) {
      for (const char* pkg : pkgs) {
        texts.push_back(std::string("- name: Install ") + pkg +
                        "\n  ansible.builtin.apt:\n    name: " + pkg +
                        "\n    state: present\n");
      }
    }
    auto set = data::pack_samples(tokenizer, texts, 48);
    core::TrainConfig tc;
    tc.epochs = 30;
    tc.micro_batch = 4;
    tc.grad_accum = 1;
    tc.lr = 3e-3f;
    core::train_model(model, set, nullptr, tc);
    core::train_model(draft, set, nullptr, tc);
  }

  static std::string corpus() {
    return "- name: Install nginx\n"
           "  ansible.builtin.apt:\n"
           "    name: nginx\n"
           "    state: present\n";
  }
  model::ModelConfig config() const {
    model::ModelConfig cfg;
    cfg.vocab = static_cast<int>(tokenizer.vocab_size());
    cfg.ctx = 48;
    cfg.d_model = 24;
    cfg.n_head = 2;
    cfg.n_layer = 2;
    cfg.d_ff = 48;
    return cfg;
  }
  model::ModelConfig draft_config() const {
    model::ModelConfig cfg = config();
    cfg.d_model = 16;
    cfg.n_head = 2;
    cfg.n_layer = 1;
    cfg.d_ff = 32;
    return cfg;
  }
};

// Leaked singleton (never destroyed): avoids static-destruction-order
// races with the global thread pool on process exit.
inline TrainedTinyModel& trained_tiny() {
  static TrainedTinyModel* instance = new TrainedTinyModel();
  return *instance;
}

}  // namespace wisdom::testutil
