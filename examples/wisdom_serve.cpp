// The /v1 HTTP serving daemon: the paper's REST interface, for real, over
// the epoll front end in src/net/. Serves POST /v1/suggest, POST
// /v1/suggest/stream (SSE), GET /v1/metrics, GET /v1/healthz, and POST
// /v1/admin/drain (loopback-only) against the full serving stack —
// admission queue, deadlines, fallback, caches, lint gate — configured
// from the command line.
//
// Usage:
//   ./build/examples/wisdom_serve --port 8080                    # 350M
//   ./build/examples/wisdom_serve --port 8080 --checkpoint PATH
// A checkpoint (such as bench/serving/model.ckpt, the model the serving
// benchmark measures) embeds its tokenizer and loads in milliseconds.
//
// SIGINT/SIGTERM drain gracefully: healthz flips to 503, in-flight
// requests (streams included) run to completion, the final metrics flush
// is printed, and the process exits 0.
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "model/checkpoint.hpp"
#include "net/server.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "text/bpe.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

using namespace wisdom;

namespace {

// Signal flag polled by the main thread's wait loop.
volatile std::sig_atomic_t g_shutdown = 0;
void on_signal(int) { g_shutdown = 1; }

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --host H                bind address (default 127.0.0.1)\n"
      "  --port N                bind port, 0-65535 (default 8080; 0 = any)\n"
      "  --workers N             HTTP worker threads, 1-1024 (default 4)\n"
      "  --threads N             compute threads, 0-1024 (default 0 = cores)\n"
      "  --checkpoint PATH       serve a checkpoint (default: the 350M model)\n"
      "  --admin-any-peer        allow /v1/admin/drain from any peer\n"
      "service options:\n"
      "  --max-new-tokens N      decode budget per request, >= 1 (default 56)\n"
      "  --deadline-ms MS        per-request decode deadline, >= 0 (0 = off)\n"
      "  --queue-capacity N      admission queue bound, >= 0 (0 = off)\n"
      "  --shed-policy P         reject | degrade (default reject)\n"
      "  --no-fallback           disable the deterministic fallback\n"
      "  --lint-policy P         off | annotate | repair | reject\n"
      "  --prefix-cache          enable the prefix KV cache\n"
      "  --response-cache        enable the response memo\n"
      "Numbers must parse whole: N is an integer, MS a finite real.\n",
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
  std::string checkpoint;
  int threads = 0;

  auto next_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };

  // Every numeric flag must parse whole, finite and inside the range the
  // usage text documents; a port out of range would otherwise wrap into
  // some other port, and "4x" or "5ms" would serve as 4 or 5.
  auto int_value = [&](int& i, int lo, int hi) {
    int value = 0;
    if (!util::parse_number(next_value(i), lo, hi, &value))
      std::exit(usage(argv[0]));
    return value;
  };
  auto real_value = [&](int& i, double hi) {
    double value = 0.0;
    if (!util::parse_number(next_value(i), 0.0, hi, &value))
      std::exit(usage(argv[0]));
    return value;
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--host") server_options.host = next_value(i);
    else if (arg == "--port")
      server_options.port = static_cast<std::uint16_t>(int_value(i, 0, 65535));
    else if (arg == "--workers")
      server_options.worker_threads = int_value(i, 1, 1024);
    else if (arg == "--threads") threads = int_value(i, 0, 1024);
    else if (arg == "--checkpoint") checkpoint = next_value(i);
    else if (arg == "--admin-any-peer")
      server_options.admin_loopback_only = false;
    else if (arg == "--max-new-tokens")
      service_options.max_new_tokens = int_value(i, 1, INT_MAX);
    else if (arg == "--deadline-ms")
      service_options.deadline_ms =
          real_value(i, std::numeric_limits<double>::max());
    else if (arg == "--queue-capacity")
      service_options.queue_capacity = int_value(i, 0, INT_MAX);
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
    else return usage(argv[0]);
  }

  if (threads > 0) util::ThreadPool::set_global_threads(threads);

  // Model selection: a checkpoint loads with the tokenizer it embeds; the
  // 350M model loads from the pipeline's checkpoint cache (or trains on
  // first run).
  std::optional<model::Transformer> served_model;
  std::optional<text::BpeTokenizer> checkpoint_tokenizer;
  std::unique_ptr<core::Pipeline> pipeline;
  const text::BpeTokenizer* tokenizer = nullptr;
  if (!checkpoint.empty()) {
    model::LoadResult loaded = model::load_checkpoint_file_ex(checkpoint);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load checkpoint %s: %s\n",
                   checkpoint.c_str(), loaded.message.c_str());
      return 1;
    }
    checkpoint_tokenizer = text::BpeTokenizer::deserialize(loaded.tokenizer);
    if (!checkpoint_tokenizer) {
      std::fprintf(stderr, "checkpoint %s has no tokenizer blob\n",
                   checkpoint.c_str());
      return 1;
    }
    served_model = std::move(loaded.model);
    tokenizer = &*checkpoint_tokenizer;
  } else {
    std::fprintf(stderr,
                 "loading / training Wisdom-Ansible-Multi (cached after "
                 "first run)...\n");
    pipeline =
        std::make_unique<core::Pipeline>(bench::default_pipeline_config(argv[0]));
    tokenizer = &pipeline->tokenizer();
    core::Pipeline::FinetuneOptions opts;
    served_model.emplace(pipeline->finetuned(
        core::PretrainMix::WisdomAnsibleMulti, model::SizeClass::S350M, opts));
  }

  serve::InferenceService service(*served_model, *tokenizer, service_options);
  net::HttpServer server(service, server_options);
  if (!server.start()) {
    std::fprintf(stderr, "failed to bind %s:%u\n", server_options.host.c_str(),
                 static_cast<unsigned>(server_options.port));
    return 1;
  }
  std::printf("wisdom_serve listening on http://%s:%u/v1 (%s)\n",
              server_options.host.c_str(),
              static_cast<unsigned>(server.port()),
              checkpoint.empty() ? "350M model" : checkpoint.c_str());
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
