// The VS Code plugin workflow from the paper's Demo/Plugin section, as an
// interactive terminal session: the "editor" holds a growing playbook, the
// user types "- name: <intent>" lines, the inference service suggests the
// task body, and the user accepts (tab) or rejects (escape).
//
// Usage:
//   ./build/examples/assistant                 # scripted demo session
//   ./build/examples/assistant "Install nginx" "Start nginx"  # your prompts
//
// The model is the fine-tuned Wisdom-Ansible-Multi; its checkpoint is
// cached under build/wisdom_cache after the first run (or reused from the
// benchmark runs).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "util/log.hpp"

using namespace wisdom;

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::Info);
  core::Pipeline pipeline(bench::default_pipeline_config(argv[0]));
  const text::BpeTokenizer& tokenizer = pipeline.tokenizer();

  std::fprintf(stderr,
               "loading / training the Wisdom-Ansible-Multi model (cached "
               "after first run)...\n");
  core::Pipeline::FinetuneOptions opts;
  model::Transformer model = pipeline.finetuned(
      core::PretrainMix::WisdomAnsibleMulti, model::SizeClass::S350M, opts);

  // The growing editor buffer is the prefix cache's best case: every
  // request re-sends the whole playbook so far, and the cached KV rows for
  // that shared head are reused instead of re-prefilled. The response memo
  // covers the user retyping an identical intent.
  serve::ServiceOptions service_options;
  service_options.prefix_cache_enabled = true;
  service_options.response_cache_enabled = true;
  // Task bodies fit well inside 24 tokens; a smaller generation reserve
  // widens the kept-prompt window (ctx - reserve), which is what lets the
  // growing buffer stay aligned with the cached prefixes instead of being
  // left-truncated away from them.
  service_options.max_new_tokens = 24;
  serve::InferenceService service(model, tokenizer, service_options);

  std::vector<std::string> prompts;
  for (int i = 1; i < argc; ++i) prompts.emplace_back(argv[i]);
  if (prompts.empty()) {
    prompts = {"Install nginx", "Write /etc/nginx/nginx.conf from template",
               "Start nginx", "Allow port 443 with ufw"};
  }

  // The growing "editor buffer": a playbook header, tasks appended as the
  // user accepts suggestions.
  std::string buffer =
      "- name: Provision web servers\n"
      "  hosts: webservers\n"
      "  become: true\n"
      "  tasks:\n";
  std::printf("--- editor ---\n%s", buffer.c_str());

  obs::Trace last_trace;
  for (const std::string& prompt : prompts) {
    serve::SuggestionRequest request;
    request.context = buffer;
    request.prompt = prompt;
    request.indent = 4;
    last_trace = obs::Trace{};
    request.trace = &last_trace;
    serve::SuggestionResponse response = service.suggest(request);
    std::printf("\nuser types:   - name: %s\n", prompt.c_str());
    if (!response.ok) {
      std::printf("(no suggestion)\n");
      service.record_reject();
      continue;
    }
    std::printf("suggestion (%.1f ms, %d tokens, schema %s):\n%s",
                response.latency_ms, response.generated_tokens,
                response.schema_correct ? "ok" : "VIOLATION",
                response.snippet.c_str());
    // Accept schema-correct suggestions (the plugin user's tab key).
    if (response.schema_correct) {
      service.record_accept();
      buffer += response.snippet;
    } else {
      service.record_reject();
    }
  }

  std::printf("\n--- final playbook ---\n%s", buffer.c_str());
  const obs::MetricsRegistry& metrics = service.metrics();
  auto count = [&](const char* name) {
    return static_cast<unsigned long long>(metrics.find_counter(name)->value());
  };
  const unsigned long long accepted = count("wisdom_serve_accepted_total");
  const unsigned long long rejected = count("wisdom_serve_rejected_total");
  const obs::Histogram& latency =
      *metrics.find_histogram("wisdom_serve_request_ms");
  std::printf(
      "\n--- session stats ---\nrequests: %llu  accepted: %llu  rejected: "
      "%llu  acceptance: %.0f%%  mean latency: %.1f ms\n",
      count("wisdom_serve_requests_total"), accepted, rejected,
      accepted + rejected == 0
          ? 0.0
          : 100.0 * static_cast<double>(accepted) /
                static_cast<double>(accepted + rejected),
      latency.count() == 0
          ? 0.0
          : latency.sum() / static_cast<double>(latency.count()));
  const serve::PrefixCacheStats prefix = service.prefix_cache_stats();
  const serve::ResponseCacheStats memo = service.response_cache_stats();
  std::printf(
      "prefix cache: %llu/%llu hits (%.0f%%), %llu prefill tokens saved, "
      "%llu entries (%llu KiB)\nresponse memo: %llu/%llu hits, %llu "
      "entries\n",
      static_cast<unsigned long long>(prefix.hits),
      static_cast<unsigned long long>(prefix.lookups),
      100.0 * prefix.hit_rate(),
      static_cast<unsigned long long>(prefix.tokens_reused),
      static_cast<unsigned long long>(prefix.entries),
      static_cast<unsigned long long>(prefix.bytes / 1024),
      static_cast<unsigned long long>(memo.hits),
      static_cast<unsigned long long>(memo.lookups),
      static_cast<unsigned long long>(memo.entries));
  if (!last_trace.empty()) {
    std::printf("\n--- last request trace (%s) ---\n%s",
                obs::trace_id_hex(last_trace.id).c_str(),
                last_trace.timeline().c_str());
  }
  std::printf("\n--- service metrics ---\n%s",
              service.metrics().expose_prometheus().c_str());
  return 0;
}
