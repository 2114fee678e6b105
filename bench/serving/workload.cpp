#include "workload.hpp"

#include "recipe.hpp"
#include "serve/wire.hpp"

namespace wisdom::bench {

std::string name_line(const std::string& prompt, int indent) {
  return std::string(static_cast<std::size_t>(indent), ' ') + "- name: " +
         prompt + "\n";
}

std::string model_input(const serve::SuggestionRequest& request) {
  return request.context + name_line(request.prompt, request.indent);
}

Request make_request(const data::FtSample& sample) {
  Request r;
  r.request.context = sample.context;
  r.request.prompt = sample.prompt;
  r.request.indent = static_cast<int>(sample.input_line.find('-'));
  r.body = serve::to_json(r.request);
  return r;
}

Request warmup_request() {
  data::FtSample sample;
  sample.prompt = "Install nginx";
  sample.input_line = "- name: Install nginx\n";
  return make_request(sample);
}

namespace {

// Samples a request can be built from: the service derives the name line
// from (prompt, indent), so it must reproduce the sample's own line.
bool servable(const data::FtSample& s) {
  std::size_t indent = s.input_line.find('-');
  return indent != std::string::npos &&
         s.input_line == name_line(s.prompt, static_cast<int>(indent));
}

}  // namespace

ColdSource::ColdSource(std::uint64_t seed,
                       const std::unordered_set<std::string>& exclude)
    : gen_(util::Rng(seed).fork("cold-files")),
      pick_(util::Rng(seed).fork("cold-pick")),
      exclude_(exclude) {}

Request ColdSource::next() {
  while (true) {
    std::vector<data::FtSample> samples =
        data::extract_samples(make_file(gen_));
    if (samples.empty()) continue;
    const data::FtSample& s = pick_.pick(samples);
    std::string key = sample_key(s);
    if (!servable(s) || exclude_.count(key) || !seen_.insert(key).second)
      continue;
    return make_request(s);
  }
}

SessionSource::SessionSource(std::uint64_t seed, int lanes,
                             const std::unordered_set<std::string>& exclude)
    : exclude_(exclude) {
  util::Rng root(seed);
  for (int i = 0; i < lanes; ++i)
    lanes_.push_back(
        Lane{data::AnsibleGenerator(root.fork("session-" + std::to_string(i))),
             {},
             0});
}

void SessionSource::start_session(Lane& lane) {
  lane.session.clear();
  lane.position = 0;
  // Sessions are files with at least three servable, unseen tasks, so
  // every session has context to grow and earlier requests to repeat.
  while (lane.session.size() < 3) {
    lane.session.clear();
    for (const data::FtSample& s : data::extract_samples(make_file(lane.gen)))
      if (servable(s) && !exclude_.count(sample_key(s)))
        lane.session.push_back(make_request(s));
  }
}

Request SessionSource::next(int lane_index) {
  Lane& lane = lanes_.at(static_cast<std::size_t>(lane_index));
  util::Rng& rng = lane.gen.rng();
  if (lane.position > 0 && rng.chance(kRepeatShare))
    return lane.session[static_cast<std::size_t>(
        rng.uniform(static_cast<std::uint64_t>(lane.position)))];
  if (lane.position >= lane.session.size()) start_session(lane);
  return lane.session[lane.position++];
}

}  // namespace wisdom::bench
