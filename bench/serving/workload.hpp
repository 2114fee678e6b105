// Request streams of the four workloads, generated from the workload seed.
// Every request is an extracted sample of a generated Ansible file that
// is not in the checkpoint's training corpus.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "data/ansible_gen.hpp"
#include "data/dataset.hpp"
#include "serve/types.hpp"
#include "util/rng.hpp"

namespace wisdom::bench {

struct Request {
  serve::SuggestionRequest request;  // context, prompt, indent
  std::string body;  // the JSON wire body sent over /v1
};

// Unique cold requests across all four generation types: one sample per
// generated file (samples of one file share their context, which would
// turn into prefix-cache hits) and no key twice. interactive, stream and
// offline_batch draw from this.
class ColdSource {
 public:
  ColdSource(std::uint64_t seed, const std::unordered_set<std::string>& exclude);
  Request next();

 private:
  data::AnsibleGenerator gen_;
  util::Rng pick_;
  const std::unordered_set<std::string>& exclude_;
  std::unordered_set<std::string> seen_;
};

// Interleaved editing sessions, one independent stream per connection
// ("lane"). A session walks one generated file task by task, so its
// context grows; with probability kRepeatShare a request exactly repeats
// an earlier request of the same session instead of advancing.
class SessionSource {
 public:
  static constexpr double kRepeatShare = 0.3;

  SessionSource(std::uint64_t seed, int lanes,
                const std::unordered_set<std::string>& exclude);
  Request next(int lane);

 private:
  struct Lane {
    data::AnsibleGenerator gen;
    std::vector<Request> session;  // the current file's requests, in order
    std::size_t position = 0;      // next request to advance to
  };
  void start_session(Lane& lane);

  std::vector<Lane> lanes_;
  const std::unordered_set<std::string>& exclude_;
};

// The "- name:" line the service completes for (prompt, indent), and the
// text it feeds the model: the context followed by that line.
std::string name_line(const std::string& prompt, int indent);
std::string model_input(const serve::SuggestionRequest& request);

// Builds a request (and its wire body) from a sample.
Request make_request(const data::FtSample& sample);

// The fixed request each set-up answers once; excluded from workloads.
Request warmup_request();

}  // namespace wisdom::bench
