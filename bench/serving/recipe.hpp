// The served model's recipe: the corpus shape the checkpoint is trained on
// and the workloads draw from, and the deterministic training run behind
// `bench_serving --regenerate-checkpoint`.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "data/ansible_gen.hpp"
#include "data/dataset.hpp"

namespace wisdom::bench {

// Generator seed and file count of the checkpoint's training corpus.
inline constexpr std::uint64_t kTrainSeed = 2023;
inline constexpr int kTrainFiles = 300;
inline constexpr int kVocab = 512;
inline constexpr int kContext = 96;

// One Galaxy-shaped Ansible file: 30% playbooks (mostly 1-2 tasks, else
// 3-5), otherwise a role task list of 2-6 tasks.
std::string make_file(data::AnsibleGenerator& gen);

// What the model is fed for a sample; two requests with the same key are
// the same request.
std::string sample_key(const data::FtSample& sample);

// Keys of every sample extracted from the training corpus. Workloads skip
// these so no request was seen in training.
std::unordered_set<std::string> training_keys();

// Trains the checkpoint (tokenizer blob embedded) and writes it to `path`.
// Prints the held-out schema-correct share. Returns false on a write error.
bool regenerate_checkpoint(const std::string& path);

}  // namespace wisdom::bench
