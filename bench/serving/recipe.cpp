#include "recipe.hpp"

#include <chrono>
#include <cstdio>

#include "core/trainer.hpp"
#include "data/packing.hpp"
#include "model/checkpoint.hpp"
#include "model/config.hpp"
#include "serve/service.hpp"
#include "text/bpe.hpp"
#include "util/rng.hpp"

namespace wisdom::bench {

std::string make_file(data::AnsibleGenerator& gen) {
  data::TaskGenOptions options;
  options.keyword_prob = 0.3;
  util::Rng& rng = gen.rng();
  if (rng.chance(0.3)) {
    int tasks = rng.chance(0.6) ? static_cast<int>(rng.uniform_int(1, 2))
                                : static_cast<int>(rng.uniform_int(3, 5));
    return gen.playbook_text(tasks, options);
  }
  return gen.role_tasks_text(static_cast<int>(rng.uniform_int(2, 6)), options);
}

std::string sample_key(const data::FtSample& sample) {
  return sample.context + sample.input_line;
}

namespace {

std::vector<std::string> training_files() {
  data::AnsibleGenerator gen{util::Rng(kTrainSeed)};
  std::vector<std::string> files;
  files.reserve(kTrainFiles);
  for (int i = 0; i < kTrainFiles; ++i) files.push_back(make_file(gen));
  return files;
}

std::vector<data::FtSample> samples_of(const std::vector<std::string>& files) {
  std::vector<data::FtSample> samples;
  for (const std::string& file : files)
    for (data::FtSample& s : data::extract_samples(file))
      samples.push_back(std::move(s));
  return samples;
}

}  // namespace

std::unordered_set<std::string> training_keys() {
  std::unordered_set<std::string> keys;
  for (const data::FtSample& s : samples_of(training_files()))
    keys.insert(sample_key(s));
  return keys;
}

bool regenerate_checkpoint(const std::string& path) {
  auto start = std::chrono::steady_clock::now();
  std::vector<std::string> files = training_files();
  std::string corpus;
  for (const std::string& file : files) corpus += file;
  text::BpeTokenizer tokenizer = text::BpeTokenizer::train(corpus, kVocab);

  data::DatasetSplits splits = data::split_dataset(samples_of(files), kTrainSeed);
  std::vector<std::string> texts;
  for (const data::FtSample& s : splits.train)
    texts.push_back(
        data::format_training_text(s, data::PromptFormat::NameCompletion));
  data::TokenBatchSet set = data::pack_samples(tokenizer, texts, kContext);

  model::Transformer model(
      model::config_for(model::SizeClass::S350M,
                        static_cast<std::int32_t>(tokenizer.vocab_size()),
                        kContext),
      kTrainSeed);
  core::TrainConfig tc;
  tc.epochs = 12;
  tc.micro_batch = 8;
  tc.grad_accum = 1;
  tc.lr = 3e-3f;
  tc.decay = nn::DecayKind::Cosine;
  tc.shuffle_seed = kTrainSeed;
  core::train_model(model, set, nullptr, tc);

  serve::ServiceOptions options;
  options.lint_policy = serve::LintPolicy::Repair;
  serve::InferenceService service(model, tokenizer, options);
  std::vector<data::FtSample> held_out = splits.valid;
  held_out.insert(held_out.end(), splits.test.begin(), splits.test.end());
  int correct = 0;
  for (const data::FtSample& s : held_out) {
    serve::SuggestionRequest request;
    request.context = s.context;
    request.prompt = s.prompt;
    request.indent = static_cast<int>(s.input_line.find('-'));
    correct += service.suggest(request).schema_correct ? 1 : 0;
  }
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  std::printf("trained %zu windows x %d epochs in %.1f s; held-out "
              "schema_correct %d/%zu = %.3f\n",
              set.count(), tc.epochs, seconds, correct, held_out.size(),
              held_out.empty() ? 0.0
                               : static_cast<double>(correct) /
                                     static_cast<double>(held_out.size()));
  return model::save_checkpoint_file(path, model, tokenizer.serialize());
}

}  // namespace wisdom::bench
