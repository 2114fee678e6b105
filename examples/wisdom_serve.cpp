// The /v1 HTTP serving daemon: the paper's REST interface, for real, over
// the epoll front end in src/net/. Serves POST /v1/suggest, POST
// /v1/suggest/stream (SSE), GET /v1/metrics, GET /v1/healthz, and POST
// /v1/admin/drain (loopback-only) against the full serving stack —
// admission queue, circuit breaker, caches, lint gate — configured from
// the command line.
//
// Usage:
//   ./build/examples/wisdom_serve --port 8080            # full 350M model
//   ./build/examples/wisdom_serve --tiny --port 8080     # seconds-to-start
//       micro model (CI / smoke tests; same serving stack, toy suggestions)
//
// SIGINT/SIGTERM drain gracefully: healthz flips to 503, in-flight
// requests (streams included) run to completion, the final metrics flush
// is printed, and the process exits 0.
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "core/trainer.hpp"
#include "data/packing.hpp"
#include "net/server.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "text/bpe.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

using namespace wisdom;

namespace {

// Signal flag polled by the main thread's wait loop.
volatile std::sig_atomic_t g_shutdown = 0;
void on_signal(int) { g_shutdown = 1; }

// The tests' micro-model recipe: a ~2s training run over apt-install
// samples, enough for the serving stack to produce schema-correct
// suggestions without the minutes-long 350M pipeline. CI's http-e2e job
// runs against this.
struct TinyModel {
  text::BpeTokenizer tokenizer;
  model::Transformer model;

  TinyModel()
      : tokenizer(text::BpeTokenizer::train(
            "- name: Install nginx\n"
            "  ansible.builtin.apt:\n"
            "    name: nginx\n"
            "    state: present\n",
            300)),
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

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --host H                bind address (default 127.0.0.1)\n"
      "  --port N                bind port (default 8080; 0 = ephemeral)\n"
      "  --workers N             HTTP worker threads (default 4)\n"
      "  --threads N             compute thread-pool size (default: cores)\n"
      "  --tiny                  train the seconds-to-start micro model\n"
      "  --admin-any-peer        allow /v1/admin/drain from any peer\n"
      "service options:\n"
      "  --max-new-tokens N      decode budget per request, >= 1 (default 56)\n"
      "  --beam-width N          >1 decodes with beam search (default 1)\n"
      "  --beam-length-penalty P beam length normalization (default 0.6)\n"
      "  --deadline-ms MS        per-request decode deadline (default off)\n"
      "  --queue-capacity N      admission queue bound (default off)\n"
      "  --shed-policy P         reject | degrade (default reject)\n"
      "  --no-fallback           disable the deterministic fallback\n"
      "  --lint-policy P         off | annotate | repair | reject\n"
      "  --prefix-cache          enable the prefix KV cache\n"
      "  --response-cache        enable the response memo\n"
      "  --breaker               enable the admission circuit breaker\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::Info);

  net::ServerOptions server_options;
  server_options.port = 8080;
  server_options.worker_threads = 4;
  serve::ServiceOptions service_options;
  bool tiny = false;
  int threads = 0;

  auto next_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--host") server_options.host = next_value(i);
    else if (arg == "--port") {
      // A whole number in [0, 65535]; anything else would wrap into some
      // other port instead of failing.
      const char* value = next_value(i);
      const char* end = value + std::strlen(value);
      int port = -1;
      auto parsed = std::from_chars(value, end, port);
      if (parsed.ec != std::errc() || parsed.ptr != end || port < 0 ||
          port > 65535)
        return usage(argv[0]);
      server_options.port = static_cast<std::uint16_t>(port);
    } else if (arg == "--workers")
      server_options.worker_threads = std::atoi(next_value(i));
    else if (arg == "--threads") threads = std::atoi(next_value(i));
    else if (arg == "--tiny") tiny = true;
    else if (arg == "--admin-any-peer")
      server_options.admin_loopback_only = false;
    else if (arg == "--max-new-tokens") {
      service_options.max_new_tokens = std::atoi(next_value(i));
      if (service_options.max_new_tokens < 1) return usage(argv[0]);
    } else if (arg == "--beam-width")
      service_options.beam_width = std::atoi(next_value(i));
    else if (arg == "--beam-length-penalty")
      service_options.beam_length_penalty =
          static_cast<float>(std::atof(next_value(i)));
    else if (arg == "--deadline-ms")
      service_options.deadline_ms = std::atof(next_value(i));
    else if (arg == "--queue-capacity")
      service_options.queue_capacity = std::atoi(next_value(i));
    else if (arg == "--shed-policy") {
      std::string policy = next_value(i);
      if (policy == "reject")
        service_options.shed_policy = serve::ShedPolicy::RejectNewest;
      else if (policy == "degrade")
        service_options.shed_policy = serve::ShedPolicy::DegradeNewest;
      else return usage(argv[0]);
    } else if (arg == "--no-fallback")
      service_options.fallback_enabled = false;
    else if (arg == "--lint-policy") {
      std::string policy = next_value(i);
      if (policy == "off") service_options.lint_policy = serve::LintPolicy::Off;
      else if (policy == "annotate")
        service_options.lint_policy = serve::LintPolicy::Annotate;
      else if (policy == "repair")
        service_options.lint_policy = serve::LintPolicy::Repair;
      else if (policy == "reject")
        service_options.lint_policy = serve::LintPolicy::RejectDegraded;
      else return usage(argv[0]);
    } else if (arg == "--prefix-cache")
      service_options.prefix_cache_enabled = true;
    else if (arg == "--response-cache")
      service_options.response_cache_enabled = true;
    else if (arg == "--breaker") service_options.breaker_enabled = true;
    else return usage(argv[0]);
  }

  if (threads > 0) util::ThreadPool::set_global_threads(threads);

  // Model selection: the micro model trains in seconds; the 350M model
  // loads from the checkpoint cache (or trains on first run).
  std::unique_ptr<TinyModel> tiny_model;
  std::unique_ptr<core::Pipeline> pipeline;
  std::optional<model::Transformer> full_model;
  const model::Transformer* model = nullptr;
  const text::BpeTokenizer* tokenizer = nullptr;
  if (tiny) {
    std::fprintf(stderr, "training the tiny model (~seconds)...\n");
    tiny_model = std::make_unique<TinyModel>();
    model = &tiny_model->model;
    tokenizer = &tiny_model->tokenizer;
  } else {
    std::fprintf(stderr,
                 "loading / training Wisdom-Ansible-Multi (cached after "
                 "first run)...\n");
    pipeline =
        std::make_unique<core::Pipeline>(bench::default_pipeline_config(argv[0]));
    tokenizer = &pipeline->tokenizer();
    core::Pipeline::FinetuneOptions opts;
    full_model.emplace(pipeline->finetuned(
        core::PretrainMix::WisdomAnsibleMulti, model::SizeClass::S350M, opts));
    model = &*full_model;
  }

  serve::InferenceService service(*model, *tokenizer, service_options);
  net::HttpServer server(service, server_options);
  if (!server.start()) {
    std::fprintf(stderr, "failed to bind %s:%u\n", server_options.host.c_str(),
                 static_cast<unsigned>(server_options.port));
    return 1;
  }
  std::printf("wisdom_serve listening on http://%s:%u/v1 (%s model)\n",
              server_options.host.c_str(),
              static_cast<unsigned>(server.port()),
              tiny ? "tiny" : "350M");
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_shutdown == 0) {
    timespec nap{0, 100 * 1000 * 1000};
    nanosleep(&nap, nullptr);
    if (service.state() != serve::InferenceService::State::Accepting) {
      // An HTTP-initiated drain (/v1/admin/drain) is also a shutdown: wait
      // for it to finish and exit.
      break;
    }
  }

  std::fprintf(stderr, "draining...\n");
  std::string final_metrics = service.drain();
  server.stop();
  std::printf("--- final metrics ---\n%s", final_metrics.c_str());
  return 0;
}
