// Shared test fixtures: the tiny-model / tokenizer builders used by the
// model, serve, cache, chaos and http suites, so each constructs identical
// models from one definition, and the one reader of metric samples.
//
// Two model families live here:
//  - tiny_config() / serving_model(): an UNtrained 2-layer model whose
//    outputs are arbitrary but deterministic — right for parity and
//    chaos tests, where only byte-identity across serving modes matters.
//  - TrainedMicroModel: a micro model trained for ~2s on a synthetic
//    apt-task corpus, producing schema-shaped YAML — right for
//    end-to-end tests that assert on response content.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/trainer.hpp"
#include "data/packing.hpp"
#include "model/config.hpp"
#include "model/transformer.hpp"
#include "nn/ops.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "text/bpe.hpp"
#include "util/rng.hpp"

namespace wisdom::testutil {

// The untrained micro-model config behind serving_model() and the
// model-level parity tests (96-token vocab, no tokenizer involved).
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

// The trained micro-model shared by content-asserting suites. Training
// takes ~2s; suites hold one instance via trained_tiny().
struct TrainedMicroModel {
  text::BpeTokenizer tokenizer;
  model::Transformer model;

  TrainedMicroModel()
      : tokenizer(text::BpeTokenizer::train(corpus(), 300)),
        model(config(), 21) {
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
};

// The sample the Prometheus exposition of `registry` prints as `name`: a
// counter or gauge value, or a histogram's `<family>_count` or
// `<family>_sum`. Tests read the service's ledger (InferenceService::
// metrics()) through this. Fails the calling test, and returns 0, when
// there is no such sample.
inline double metric_value(const obs::MetricsRegistry& registry,
                           std::string_view name) {
  if (const obs::Counter* counter = registry.find_counter(name))
    return static_cast<double>(counter->value());
  if (const obs::Gauge* gauge = registry.find_gauge(name))
    return gauge->value();
  for (std::string_view suffix : {"_count", "_sum"}) {
    if (!name.ends_with(suffix)) continue;
    const obs::Histogram* histogram =
        registry.find_histogram(name.substr(0, name.size() - suffix.size()));
    if (histogram)
      return suffix == "_count" ? static_cast<double>(histogram->count())
                                : histogram->sum();
  }
  ADD_FAILURE() << "no metric sample named " << name;
  return 0.0;
}

// Chunks the thread pool has run so far (wisdom_pool_tasks_total in the
// global registry, counted while observability is on); 0 when it is
// compiled out.
inline double pool_tasks() {
  if (!obs::kCompiledIn) return 0.0;
  return metric_value(obs::MetricsRegistry::global(),
                      "wisdom_pool_tasks_total");
}

// Leaked singleton (never destroyed): avoids static-destruction-order
// races with the global thread pool on process exit.
inline TrainedMicroModel& trained_tiny() {
  static TrainedMicroModel* instance = new TrainedMicroModel();
  return *instance;
}

}  // namespace wisdom::testutil
