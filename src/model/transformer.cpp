#include "model/transformer.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>

#include "nn/ops.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace wisdom::model {

using nn::Vec;

namespace {

// Decode-path metrics, aggregated across every model instance in the
// process. Registered lazily on the first instrumented generate() call;
// updates are gated on obs::enabled().
struct DecodeMetrics {
  obs::Counter* generate_calls;
  obs::Counter* decoded_tokens;
  obs::Histogram* prefill_ms;
  obs::Histogram* token_ms;
};

DecodeMetrics& decode_metrics() {
  static DecodeMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::global();
    return DecodeMetrics{
        &registry.counter("wisdom_model_generate_total",
                          "generate()/generate_beam() invocations."),
        &registry.counter("wisdom_model_decoded_tokens_total",
                          "Decode steps taken (prefill + generation)."),
        &registry.histogram("wisdom_model_prefill_ms", {},
                            "Prompt-ingestion latency per generate call."),
        &registry.histogram("wisdom_model_decode_token_ms", {},
                            "Per-token decode-step latency."),
    };
  }();
  return metrics;
}

double elapsed_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// dB[t x hd] += dC^T-style product for attention: dk[j] += sum_i ds[i][j]*q[i].
void accumulate_dk(const float* dscores, const float* q, float* dk, int t,
                   int hd) {
  for (int i = 0; i < t; ++i) {
    const float* ds_row = dscores + static_cast<std::size_t>(i) * t;
    const float* q_row = q + static_cast<std::size_t>(i) * hd;
    for (int j = 0; j <= i; ++j) {
      const float s = ds_row[j];
      if (s == 0.0f) continue;
      float* dk_row = dk + static_cast<std::size_t>(j) * hd;
      for (int c = 0; c < hd; ++c) dk_row[c] += s * q_row[c];
    }
  }
}

// Runs body(s0, s1) over the attention slots [0, slots): (batch, head)
// pairs in training, rows in a decode step. It uses the global pool when
// the per-call attention work clears the nn parallel threshold. Each slot
// touches disjoint slices of the activation buffers, and every slot is
// computed exactly as in the sequential loop, so results are bit-identical
// at any thread count. The body is taken as a template so the inline path
// wraps nothing in a std::function.
template <class Body>
void for_each_slot(int slots, std::size_t madds, const Body& body) {
  if (slots > 1 && madds >= nn::parallel_threshold() &&
      !util::ThreadPool::in_worker()) {
    util::ThreadPool& pool = util::ThreadPool::global();
    if (pool.size() > 1) {
      pool.parallel_for(0, slots, [&](std::int64_t s0, std::int64_t s1) {
        body(static_cast<int>(s0), static_cast<int>(s1));
      });
      return;
    }
  }
  body(0, slots);
}

}  // namespace

Transformer::Transformer(const ModelConfig& config, std::uint64_t seed)
    : config_(config),
      rotary_(nn::rotary_table(config.ctx, config.rotary_dim())) {
  assert(config_.valid());
  util::Rng rng(seed);
  const int d = config_.d_model;
  const int ff = config_.d_ff;
  const int v = config_.vocab;
  const float std_embed = 0.02f;
  // Residual projections scaled by 1/sqrt(2*n_layer) (GPT-2 practice) keeps
  // the residual stream variance flat at init.
  const float std_resid =
      0.02f / std::sqrt(2.0f * static_cast<float>(config_.n_layer));

  wte_.resize(static_cast<std::size_t>(v) * d);
  nn::init_normal(wte_.w, rng, std_embed);
  head_.resize(static_cast<std::size_t>(d) * v);
  nn::init_normal(head_.w, rng, std_embed);
  lnf_g_.resize(d);
  nn::fill(lnf_g_.w, 1.0f);
  lnf_b_.resize(d);

  layers_.resize(static_cast<std::size_t>(config_.n_layer));
  for (Layer& layer : layers_) {
    layer.ln1_g.resize(d);
    nn::fill(layer.ln1_g.w, 1.0f);
    layer.ln1_b.resize(d);
    layer.wqkv.resize(static_cast<std::size_t>(d) * 3 * d);
    nn::init_normal(layer.wqkv.w, rng, std_embed);
    layer.bqkv.resize(3 * d);
    layer.wo.resize(static_cast<std::size_t>(d) * d);
    nn::init_normal(layer.wo.w, rng, std_resid);
    layer.bo.resize(d);
    layer.ln2_g.resize(d);
    nn::fill(layer.ln2_g.w, 1.0f);
    layer.ln2_b.resize(d);
    layer.wfc.resize(static_cast<std::size_t>(d) * ff);
    nn::init_normal(layer.wfc.w, rng, std_embed);
    layer.bfc.resize(ff);
    layer.wproj.resize(static_cast<std::size_t>(ff) * d);
    nn::init_normal(layer.wproj.w, rng, std_resid);
    layer.bproj.resize(d);
  }
  acts_.resize(layers_.size());
}

void Transformer::set_context_window(std::int32_t ctx) {
  assert(ctx >= 8);
  config_.ctx = ctx;
  rotary_ = nn::rotary_table(ctx, config_.rotary_dim());
}

std::int64_t Transformer::param_count() const {
  std::int64_t total = 0;
  for (const nn::Param* p : parameters()) {
    total += static_cast<std::int64_t>(p->size());
  }
  return total;
}

std::vector<nn::Param*> Transformer::parameters() {
  std::vector<nn::Param*> out = {&wte_};
  for (Layer& l : layers_) {
    for (nn::Param* p : {&l.ln1_g, &l.ln1_b, &l.wqkv, &l.bqkv, &l.wo, &l.bo,
                         &l.ln2_g, &l.ln2_b, &l.wfc, &l.bfc, &l.wproj,
                         &l.bproj}) {
      out.push_back(p);
    }
  }
  out.push_back(&lnf_g_);
  out.push_back(&lnf_b_);
  out.push_back(&head_);
  return out;
}

std::vector<const nn::Param*> Transformer::parameters() const {
  auto mut = const_cast<Transformer*>(this)->parameters();
  return {mut.begin(), mut.end()};
}

void Transformer::zero_grad() {
  for (nn::Param* p : parameters()) p->zero_grad();
}

void Transformer::optim_step(nn::AdamW& opt, float lr, float grad_scale,
                             float clip_norm) {
  auto params = parameters();
  if (grad_scale != 1.0f) {
    for (nn::Param* p : params) {
      for (float& g : p->g) g *= grad_scale;
    }
  }
  if (clip_norm > 0.0f) nn::clip_grad_norm(params, clip_norm);
  opt.begin_step();
  for (nn::Param* p : params) {
    // No weight decay on layernorm gains/biases and other 1-D params.
    bool decay = p->size() > static_cast<std::size_t>(3 * config_.d_model);
    opt.step_param(*p, lr, decay);
  }
}

float Transformer::forward_backward(std::span<const std::int32_t> x,
                                    std::span<const std::int32_t> y,
                                    int batch, int t) {
  return run(x, y, batch, t, /*backward=*/true);
}

float Transformer::evaluate(std::span<const std::int32_t> x,
                            std::span<const std::int32_t> y, int batch,
                            int t) {
  return run(x, y, batch, t, /*backward=*/false);
}

float Transformer::run(std::span<const std::int32_t> x,
                       std::span<const std::int32_t> y, int batch, int t,
                       bool backward) {
  assert(t <= config_.ctx);
  const int d = config_.d_model;
  const int h = config_.n_head;
  const int hd = config_.head_dim();
  const int ff = config_.d_ff;
  const int v = config_.vocab;
  const int rows = batch * t;
  assert(static_cast<int>(x.size()) == rows);
  assert(static_cast<int>(y.size()) == rows);
  const std::size_t rd = static_cast<std::size_t>(rows) * d;
  const float att_scale = 1.0f / std::sqrt(static_cast<float>(hd));

  // --- forward -------------------------------------------------------------
  Vec residual(rd);
  nn::embedding(wte_.w.data(), x.data(), residual.data(), rows, d);

  // Attention work per (batch, head) slot: q·k^T plus probs·v.
  const std::size_t att_madds = 2 * static_cast<std::size_t>(batch) * h * t *
                                t * static_cast<std::size_t>(hd);

  for (std::size_t li = 0; li < layers_.size(); ++li) {
    Layer& L = layers_[li];
    LayerActs& A = acts_[li];
    A.input = residual;
    A.ln1_out.resize(rd);
    A.ln1_mean.resize(rows);
    A.ln1_rstd.resize(rows);
    nn::layernorm(A.input.data(), L.ln1_g.w.data(), L.ln1_b.w.data(),
                  A.ln1_out.data(), A.ln1_mean.data(), A.ln1_rstd.data(),
                  rows, d);
    A.qkv.resize(static_cast<std::size_t>(rows) * 3 * d);
    nn::matmul(A.ln1_out.data(), L.wqkv.w.data(), A.qkv.data(), rows, d,
               3 * d);
    nn::add_bias(A.qkv.data(), L.bqkv.w.data(), A.qkv.data(), rows, 3 * d);

    A.att_probs.assign(
        static_cast<std::size_t>(batch) * h * t * t, 0.0f);
    A.att_mix.assign(rd, 0.0f);

    for_each_slot(batch * h, att_madds, [&](int s0, int s1) {
      Vec qh(static_cast<std::size_t>(t) * hd), kh(qh.size()),
          vh(qh.size()), oh(qh.size());
      Vec scores(static_cast<std::size_t>(t) * t);
      for (int s = s0; s < s1; ++s) {
        const int b = s / h;
        const int head = s % h;
        // Gather contiguous per-head q/k/v.
        for (int i = 0; i < t; ++i) {
          const float* row =
              A.qkv.data() + (static_cast<std::size_t>(b) * t + i) * 3 * d;
          std::memcpy(&qh[static_cast<std::size_t>(i) * hd],
                      row + head * hd, hd * sizeof(float));
          std::memcpy(&kh[static_cast<std::size_t>(i) * hd],
                      row + d + head * hd, hd * sizeof(float));
          std::memcpy(&vh[static_cast<std::size_t>(i) * hd],
                      row + 2 * d + head * hd, hd * sizeof(float));
        }
        nn::rotary(qh.data(), t, hd, rotary_, 0);
        nn::rotary(kh.data(), t, hd, rotary_, 0);
        // Write the rotated q/k back so the backward pass sees them.
        for (int i = 0; i < t; ++i) {
          float* row =
              A.qkv.data() + (static_cast<std::size_t>(b) * t + i) * 3 * d;
          std::memcpy(row + head * hd, &qh[static_cast<std::size_t>(i) * hd],
                      hd * sizeof(float));
          std::memcpy(row + d + head * hd,
                      &kh[static_cast<std::size_t>(i) * hd],
                      hd * sizeof(float));
        }
        // Causal attention.
        nn::matmul_bt(qh.data(), kh.data(), scores.data(), t, hd, t);
        for (int i = 0; i < t; ++i) {
          float* srow = scores.data() + static_cast<std::size_t>(i) * t;
          for (int j = 0; j <= i; ++j) srow[j] *= att_scale;
          for (int j = i + 1; j < t; ++j) srow[j] = -1e30f;
        }
        float* probs =
            A.att_probs.data() +
            (static_cast<std::size_t>(b) * h + head) * t * t;
        nn::softmax(scores.data(), probs, t, t);
        nn::matmul(probs, vh.data(), oh.data(), t, t, hd);
        for (int i = 0; i < t; ++i) {
          std::memcpy(A.att_mix.data() +
                          (static_cast<std::size_t>(b) * t + i) * d +
                          head * hd,
                      &oh[static_cast<std::size_t>(i) * hd],
                      hd * sizeof(float));
        }
      }
    });

    // Attention output projection + residual.
    Vec att_out(rd);
    nn::matmul(A.att_mix.data(), L.wo.w.data(), att_out.data(), rows, d, d);
    nn::add_bias(att_out.data(), L.bo.w.data(), att_out.data(), rows, d);
    A.mid.resize(rd);
    for (std::size_t i = 0; i < rd; ++i)
      A.mid[i] = A.input[i] + att_out[i];

    // MLP.
    A.ln2_out.resize(rd);
    A.ln2_mean.resize(rows);
    A.ln2_rstd.resize(rows);
    nn::layernorm(A.mid.data(), L.ln2_g.w.data(), L.ln2_b.w.data(),
                  A.ln2_out.data(), A.ln2_mean.data(), A.ln2_rstd.data(),
                  rows, d);
    A.fc_pre.resize(static_cast<std::size_t>(rows) * ff);
    nn::matmul(A.ln2_out.data(), L.wfc.w.data(), A.fc_pre.data(), rows, d,
               ff);
    nn::add_bias(A.fc_pre.data(), L.bfc.w.data(), A.fc_pre.data(), rows, ff);
    A.fc_act.resize(A.fc_pre.size());
    nn::gelu(A.fc_pre.data(), A.fc_act.data(),
             static_cast<int>(A.fc_pre.size()));
    Vec proj(rd);
    nn::matmul(A.fc_act.data(), L.wproj.w.data(), proj.data(), rows, ff, d);
    nn::add_bias(proj.data(), L.bproj.w.data(), proj.data(), rows, d);
    for (std::size_t i = 0; i < rd; ++i) residual[i] = A.mid[i] + proj[i];
  }

  final_in_ = residual;
  final_out_.resize(rd);
  final_mean_.resize(rows);
  final_rstd_.resize(rows);
  nn::layernorm(final_in_.data(), lnf_g_.w.data(), lnf_b_.w.data(),
                final_out_.data(), final_mean_.data(), final_rstd_.data(),
                rows, d);
  logits_.resize(static_cast<std::size_t>(rows) * v);
  nn::matmul(final_out_.data(), head_.w.data(), logits_.data(), rows, d, v);
  dlogits_.resize(logits_.size());
  float loss = nn::cross_entropy(logits_.data(), y.data(), rows, v,
                                 /*ignore_index=*/-1, dlogits_.data());
  if (!backward) return loss;

  // --- backward ------------------------------------------------------------
  Vec dfinal_out(rd, 0.0f);
  nn::matmul_backward(final_out_.data(), head_.w.data(), dlogits_.data(),
                      dfinal_out.data(), head_.g.data(), rows, d, v);
  Vec dres(rd, 0.0f);
  nn::layernorm_backward(final_in_.data(), lnf_g_.w.data(),
                         final_mean_.data(), final_rstd_.data(),
                         dfinal_out.data(), dres.data(), lnf_g_.g.data(),
                         lnf_b_.g.data(), rows, d);

  for (std::size_t li = layers_.size(); li-- > 0;) {
    Layer& L = layers_[li];
    LayerActs& A = acts_[li];

    // residual_out = mid + proj; dres covers both branches.
    Vec dfc_act(static_cast<std::size_t>(rows) * ff, 0.0f);
    nn::matmul_backward(A.fc_act.data(), L.wproj.w.data(), dres.data(),
                        dfc_act.data(), L.wproj.g.data(), rows, ff, d);
    nn::add_bias_backward(dres.data(), L.bproj.g.data(), rows, d);
    Vec dfc_pre(dfc_act.size(), 0.0f);
    nn::gelu_backward(A.fc_pre.data(), dfc_act.data(), dfc_pre.data(),
                      static_cast<int>(dfc_pre.size()));
    Vec dln2(rd, 0.0f);
    nn::matmul_backward(A.ln2_out.data(), L.wfc.w.data(), dfc_pre.data(),
                        dln2.data(), L.wfc.g.data(), rows, d, ff);
    nn::add_bias_backward(dfc_pre.data(), L.bfc.g.data(), rows, ff);

    Vec dmid = dres;  // gradient through the second residual connection
    nn::layernorm_backward(A.mid.data(), L.ln2_g.w.data(), A.ln2_mean.data(),
                           A.ln2_rstd.data(), dln2.data(), dmid.data(),
                           L.ln2_g.g.data(), L.ln2_b.g.data(), rows, d);

    // mid = input + att_out.
    Vec datt_mix(rd, 0.0f);
    nn::matmul_backward(A.att_mix.data(), L.wo.w.data(), dmid.data(),
                        datt_mix.data(), L.wo.g.data(), rows, d, d);
    nn::add_bias_backward(dmid.data(), L.bo.g.data(), rows, d);

    Vec dqkv(static_cast<std::size_t>(rows) * 3 * d, 0.0f);
    for_each_slot(batch * h, att_madds, [&](int s0, int s1) {
      Vec qh(static_cast<std::size_t>(t) * hd), kh(qh.size()), vh(qh.size());
      Vec dqh(qh.size()), dkh(qh.size()), dvh(qh.size()), doh(qh.size());
      Vec dprobs(static_cast<std::size_t>(t) * t), dscores(dprobs.size());
      for (int s = s0; s < s1; ++s) {
        const int b = s / h;
        const int head = s % h;
        for (int i = 0; i < t; ++i) {
          const float* row =
              A.qkv.data() + (static_cast<std::size_t>(b) * t + i) * 3 * d;
          std::memcpy(&qh[static_cast<std::size_t>(i) * hd],
                      row + head * hd, hd * sizeof(float));
          std::memcpy(&kh[static_cast<std::size_t>(i) * hd],
                      row + d + head * hd, hd * sizeof(float));
          std::memcpy(&vh[static_cast<std::size_t>(i) * hd],
                      row + 2 * d + head * hd, hd * sizeof(float));
          std::memcpy(&doh[static_cast<std::size_t>(i) * hd],
                      datt_mix.data() +
                          (static_cast<std::size_t>(b) * t + i) * d +
                          head * hd,
                      hd * sizeof(float));
        }
        const float* probs =
            A.att_probs.data() +
            (static_cast<std::size_t>(b) * h + head) * t * t;
        // oh = probs * vh
        std::fill(dprobs.begin(), dprobs.end(), 0.0f);
        std::fill(dvh.begin(), dvh.end(), 0.0f);
        nn::matmul_backward(probs, vh.data(), doh.data(), dprobs.data(),
                            dvh.data(), t, t, hd);
        std::fill(dscores.begin(), dscores.end(), 0.0f);
        nn::softmax_backward(probs, dprobs.data(), dscores.data(), t, t);
        // scores = (qh kh^T) * att_scale with causal mask.
        for (int i = 0; i < t; ++i) {
          float* row = dscores.data() + static_cast<std::size_t>(i) * t;
          for (int j = 0; j <= i; ++j) row[j] *= att_scale;
          for (int j = i + 1; j < t; ++j) row[j] = 0.0f;
        }
        nn::matmul(dscores.data(), kh.data(), dqh.data(), t, t, hd);
        std::fill(dkh.begin(), dkh.end(), 0.0f);
        accumulate_dk(dscores.data(), qh.data(), dkh.data(), t, hd);
        nn::rotary_backward(dqh.data(), t, hd, rotary_, 0);
        nn::rotary_backward(dkh.data(), t, hd, rotary_, 0);
        for (int i = 0; i < t; ++i) {
          float* row =
              dqkv.data() + (static_cast<std::size_t>(b) * t + i) * 3 * d;
          std::memcpy(row + head * hd, &dqh[static_cast<std::size_t>(i) * hd],
                      hd * sizeof(float));
          std::memcpy(row + d + head * hd,
                      &dkh[static_cast<std::size_t>(i) * hd],
                      hd * sizeof(float));
          std::memcpy(row + 2 * d + head * hd,
                      &dvh[static_cast<std::size_t>(i) * hd],
                      hd * sizeof(float));
        }
      }
    });

    Vec dln1(rd, 0.0f);
    nn::matmul_backward(A.ln1_out.data(), L.wqkv.w.data(), dqkv.data(),
                        dln1.data(), L.wqkv.g.data(), rows, d, 3 * d);
    nn::add_bias_backward(dqkv.data(), L.bqkv.g.data(), rows, 3 * d);

    Vec dinput = dmid;  // gradient through the first residual connection
    nn::layernorm_backward(A.input.data(), L.ln1_g.w.data(),
                           A.ln1_mean.data(), A.ln1_rstd.data(), dln1.data(),
                           dinput.data(), L.ln1_g.g.data(),
                           L.ln1_b.g.data(), rows, d);
    dres = std::move(dinput);
  }
  nn::embedding_backward(x.data(), dres.data(), wte_.g.data(), rows, d);
  return loss;
}

Transformer::KvCache Transformer::KvCache::clone(int new_length) const {
  KvCache out;
  const int n = new_length < 0 ? length : std::min(new_length, length);
  out.length = std::max(0, n);
  out.row_width = row_width;
  out.capacity = capacity;
  const std::size_t rows = static_cast<std::size_t>(out.length) *
                           static_cast<std::size_t>(row_width);
  out.keys.reserve(keys.size());
  out.values.reserve(values.size());
  for (const Vec& k : keys)
    out.keys.emplace_back(k.begin(),
                          k.begin() + static_cast<std::ptrdiff_t>(rows));
  for (const Vec& v : values)
    out.values.emplace_back(v.begin(),
                            v.begin() + static_cast<std::ptrdiff_t>(rows));
  if (out.length == length) out.logits = logits;
  return out;
}

std::size_t Transformer::KvCache::byte_size() const {
  std::size_t bytes = logits.capacity() * sizeof(float);
  for (const Vec& k : keys) bytes += k.capacity() * sizeof(float);
  for (const Vec& v : values) bytes += v.capacity() * sizeof(float);
  return bytes;
}

Transformer::KvCache Transformer::make_cache() const {
  KvCache cache;
  const std::size_t per_layer =
      static_cast<std::size_t>(config_.ctx) * config_.d_model;
  cache.keys.assign(layers_.size(), Vec(per_layer, 0.0f));
  cache.values.assign(layers_.size(), Vec(per_layer, 0.0f));
  cache.row_width = config_.d_model;
  cache.capacity = config_.ctx;
  return cache;
}

namespace {

// Makes `cache` writable up to the full window: grows a compacted clone
// (the prefix cache's stored form) back to ctx rows.
void prepare_append(Transformer::KvCache& cache, int ctx) {
  const std::size_t full_rows = static_cast<std::size_t>(ctx) *
                                static_cast<std::size_t>(cache.row_width);
  for (std::size_t li = 0; li < cache.keys.size(); ++li) {
    if (cache.keys[li].size() < full_rows)
      cache.keys[li].resize(full_rows, 0.0f);
    if (cache.values[li].size() < full_rows)
      cache.values[li].resize(full_rows, 0.0f);
  }
}

// The buffers one decode step works in, one set per thread. A step that is
// no wider and no larger than one this thread has already run reuses them
// and allocates nothing.
struct StepScratch {
  Vec x, norm, qkv, mix, tmp, fc, mean, rstd, logits;
  // One row's attention probabilities, head-major [h x ctx]. Attention
  // lanes read it from the thread they run on, so pool lanes never share
  // one and an inline lane uses the calling thread's.
  Vec att;
};

// probs·V accumulates in 4-float GCC vector lanes. Each lane's update is
// one element-wise multiply-add per key, and nothing in the loop is a
// scalar reduction, so even under -ffast-math the compiler cannot
// reassociate it across keys: per output element the sum is zero, then
// one multiply-add per key in ascending order, whatever the block shape.
using Lane = float __attribute__((vector_size(16)));
constexpr int kLaneFloats = 4;
// Lanes per full block: 8 accumulators (32 floats) plus the loaded value
// and weight fit the 16 vector registers of a portable x86-64 build, so
// wide rows (d96 is three blocks) do not spill.
constexpr int kBlockLanes = 8;

// out[c0, c0 + width) = sum over keys j < count of probs * values[j], for
// the B lanes from column c0 on, width = min(B * 4, d - c0). Column c reads
// its weight for key j from att[(c / hd) * ctx + j]. With kSplit false
// every lane lies in one head (hd % 4 == 0), so one scalar weight serves
// all four elements; otherwise each element gathers its own weight and the
// row's last lane may be partial. B is a constant so that the accumulators
// stay in registers: with a runtime lane count GCC may interchange the
// loops and vectorize the key loop as a reduction, which reorders the sum.
template <int B, bool kSplit>
[[gnu::always_inline]] inline void probs_v_block(const float* att, int ctx,
                                                 const float* values,
                                                 int count, int d, int hd,
                                                 float* out, int c0) {
  constexpr int kWeights = kSplit ? kLaneFloats : 1;
  const float* weights[B][kWeights];
  for (int l = 0; l < B; ++l)
    for (int e = 0; e < kWeights; ++e) {
      const int c = std::min(c0 + l * kLaneFloats + e, d - 1);
      weights[l][e] = att + static_cast<std::size_t>(c / hd) * ctx;
    }
  Lane acc[B] = {};
  for (int j = 0; j < count; ++j) {
    const float* vrow = values + static_cast<std::size_t>(j) * d + c0;
    for (int l = 0; l < B; ++l) {
      const float* vl = vrow + l * kLaneFloats;
      if constexpr (kSplit) {
        const int width = std::min(kLaneFloats, d - c0 - l * kLaneFloats);
        Lane v = {}, w = {};
        for (int e = 0; e < width; ++e) {
          v[e] = vl[e];
          w[e] = weights[l][e][j];
        }
        acc[l] += w * v;
      } else {
        Lane v;
        std::memcpy(&v, vl, sizeof v);
        acc[l] += weights[l][0][j] * v;
      }
    }
  }
  std::memcpy(out + c0, acc,
              static_cast<std::size_t>(std::min(B * kLaneFloats, d - c0)) *
                  sizeof(float));
}

// out[0, d) = probs·V over the row's `count` keys: full blocks of
// kBlockLanes, one block of 4 lanes, then single lanes.
template <bool kSplit>
void probs_v(const float* att, int ctx, const float* values, int count,
             int d, int hd, float* out) {
  const int lanes = (d + kLaneFloats - 1) / kLaneFloats;
  int l = 0;
  for (; lanes - l >= kBlockLanes; l += kBlockLanes)
    probs_v_block<kBlockLanes, kSplit>(att, ctx, values, count, d, hd, out,
                                       l * kLaneFloats);
  if (lanes - l >= 4) {
    probs_v_block<4, kSplit>(att, ctx, values, count, d, hd, out,
                             l * kLaneFloats);
    l += 4;
  }
  for (; l < lanes; ++l)
    probs_v_block<1, kSplit>(att, ctx, values, count, d, hd, out,
                             l * kLaneFloats);
}

// One row's attention against its cache rows [0, count) at one layer:
// every head's scores and softmax into att [h x ctx], then probs·V for the
// whole row into out [d]. q is the row's rotated query [d]; keys and values
// are the layer's cache [ctx x d].
void attend_row(const float* q, const float* keys, const float* values,
                int count, int d, int h, int ctx, float att_scale,
                float* att, float* out) {
  const int hd = d / h;
  for (int head = 0; head < h; ++head) {
    const float* qh = q + head * hd;
    const float* kh = keys + head * hd;
    float* scores = att + static_cast<std::size_t>(head) * ctx;
    for (int j = 0; j < count; ++j) {
      const float* krow = kh + static_cast<std::size_t>(j) * d;
      float acc = 0.0f;
      for (int c = 0; c < hd; ++c) acc += qh[c] * krow[c];
      scores[j] = acc * att_scale;
    }
    nn::softmax(scores, scores, 1, count);
  }
  if (hd % kLaneFloats == 0)
    probs_v<false>(att, ctx, values, count, d, hd, out);
  else
    probs_v<true>(att, ctx, values, count, d, hd, out);
}

StepScratch& step_scratch() {
  thread_local StepScratch scratch;
  return scratch;
}

}  // namespace

std::span<const float> Transformer::decode_step(KvCache& cache,
                                                std::int32_t token) const {
  KvCache* caches[1] = {&cache};
  step(caches, std::span<const std::int32_t>(&token, 1), /*logits=*/true);
  return cache.logits;
}

void Transformer::decode_step_batch(
    std::span<KvCache* const> caches,
    std::span<const std::int32_t> tokens) const {
  step(caches, tokens, /*logits=*/true);
}

void Transformer::step(std::span<KvCache* const> caches,
                       std::span<const std::int32_t> tokens,
                       bool logits) const {
  assert(tokens.size() == caches.size());
  const int n = static_cast<int>(caches.size());
  if (n == 0) return;
  const int d = config_.d_model;
  const int h = config_.n_head;
  const int hd = config_.head_dim();
  const int ff = config_.d_ff;
  const int v = config_.vocab;
  const float att_scale = 1.0f / std::sqrt(static_cast<float>(hd));

  StepScratch& s = step_scratch();
  const std::size_t nd = static_cast<std::size_t>(n) * d;
  s.x.resize(nd);
  s.norm.resize(nd);
  s.qkv.resize(3 * nd);
  s.mix.resize(nd);
  s.tmp.resize(nd);
  s.fc.resize(static_cast<std::size_t>(n) * ff);
  s.mean.resize(static_cast<std::size_t>(n));
  s.rstd.resize(static_cast<std::size_t>(n));

  // Row r appends tokens[r] to *caches[r] at position caches[r]->length.
  // Attention work this step: q·K^T plus probs·V per (row, head).
  std::size_t att_madds = 0;
  for (int r = 0; r < n; ++r) {
    KvCache& cache = *caches[static_cast<std::size_t>(r)];
    const std::int32_t token = tokens[static_cast<std::size_t>(r)];
    assert(cache.length < config_.ctx);
    assert(token >= 0 && token < v);
    prepare_append(cache, config_.ctx);
    std::memcpy(s.x.data() + static_cast<std::size_t>(r) * d,
                wte_.w.data() + static_cast<std::size_t>(token) * d,
                d * sizeof(float));
    att_madds += 2ull * static_cast<std::size_t>(h) *
                 static_cast<std::size_t>(cache.length + 1) *
                 static_cast<std::size_t>(hd);
  }

  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& L = layers_[li];
    // Batched rows: every kernel below computes each row exactly as the
    // single-row step would (row-independent kernels), and a row's
    // attention reads only its own cache — so the fused pass is
    // bit-identical to sequential decode_steps.
    nn::layernorm(s.x.data(), L.ln1_g.w.data(), L.ln1_b.w.data(),
                  s.norm.data(), s.mean.data(), s.rstd.data(), n, d);
    nn::matmul(s.norm.data(), L.wqkv.w.data(), s.qkv.data(), n, d, 3 * d);
    nn::add_bias(s.qkv.data(), L.bqkv.w.data(), s.qkv.data(), n, 3 * d);
    for (int r = 0; r < n; ++r) {
      float* row = s.qkv.data() + static_cast<std::size_t>(r) * 3 * d;
      KvCache& cache = *caches[static_cast<std::size_t>(r)];
      const int p = cache.length;
      // Rotate q and k at this row's position.
      for (int head = 0; head < h; ++head) {
        nn::rotary(row + head * hd, 1, hd, rotary_, p);
        nn::rotary(row + d + head * hd, 1, hd, rotary_, p);
      }
      // Append rotated k and v.
      const std::size_t at = static_cast<std::size_t>(p) * d;
      std::memcpy(cache.keys[li].data() + at, row + d, d * sizeof(float));
      std::memcpy(cache.values[li].data() + at, row + 2 * d,
                  d * sizeof(float));
    }

    // One attention lane per row: all of a row's heads in one pass.
    for_each_slot(n, att_madds, [&](int r0, int r1) {
      Vec& att = step_scratch().att;
      att.resize(static_cast<std::size_t>(h) * config_.ctx);
      for (int r = r0; r < r1; ++r) {
        const KvCache& cache = *caches[static_cast<std::size_t>(r)];
        attend_row(s.qkv.data() + static_cast<std::size_t>(r) * 3 * d,
                   cache.keys[li].data(), cache.values[li].data(),
                   cache.length + 1, d, h, config_.ctx, att_scale, att.data(),
                   s.mix.data() + static_cast<std::size_t>(r) * d);
      }
    });

    nn::matmul(s.mix.data(), L.wo.w.data(), s.tmp.data(), n, d, d);
    nn::add_bias(s.tmp.data(), L.bo.w.data(), s.tmp.data(), n, d);
    for (std::size_t i = 0; i < nd; ++i) s.x[i] += s.tmp[i];

    nn::layernorm(s.x.data(), L.ln2_g.w.data(), L.ln2_b.w.data(),
                  s.norm.data(), s.mean.data(), s.rstd.data(), n, d);
    nn::matmul(s.norm.data(), L.wfc.w.data(), s.fc.data(), n, d, ff);
    nn::add_bias(s.fc.data(), L.bfc.w.data(), s.fc.data(), n, ff);
    nn::gelu(s.fc.data(), s.fc.data(), n * ff);
    nn::matmul(s.fc.data(), L.wproj.w.data(), s.tmp.data(), n, ff, d);
    nn::add_bias(s.tmp.data(), L.bproj.w.data(), s.tmp.data(), n, d);
    for (std::size_t i = 0; i < nd; ++i) s.x[i] += s.tmp[i];
  }
  if (logits) {
    nn::layernorm(s.x.data(), lnf_g_.w.data(), lnf_b_.w.data(), s.norm.data(),
                  s.mean.data(), s.rstd.data(), n, d);
    s.logits.resize(static_cast<std::size_t>(n) * v);
    nn::matmul(s.norm.data(), head_.w.data(), s.logits.data(), n, d, v);
  }
  for (int r = 0; r < n; ++r) {
    KvCache& cache = *caches[static_cast<std::size_t>(r)];
    if (logits)
      cache.logits.assign(
          s.logits.begin() + static_cast<std::ptrdiff_t>(r) * v,
          s.logits.begin() + static_cast<std::ptrdiff_t>(r + 1) * v);
    else
      cache.logits.clear();
    ++cache.length;
  }
}

std::span<const std::int32_t> Transformer::kept_prompt(
    std::span<const std::int32_t> prompt, int max_new_tokens) const {
  // Left-truncate the prompt so prompt + generation fits the window, but
  // never reserve more than half the window for generation — a prompt
  // crushed to a few tokens would leave nothing to condition on. A
  // non-positive budget reserves nothing, so the kept span never outgrows
  // the window.
  const int reserve = std::clamp(max_new_tokens, 0, config_.ctx / 2);
  const int budget = std::max(1, config_.ctx - reserve);
  if (static_cast<int>(prompt.size()) > budget)
    return prompt.subspan(prompt.size() - static_cast<std::size_t>(budget));
  return prompt;
}

bool Transformer::prefill(std::span<const std::int32_t> kept, KvCache& cache,
                          const util::Deadline& deadline,
                          GenerateStatus& status, obs::TraceContext& trace,
                          KvCache* prompt_snapshot) const {
  status = GenerateStatus{};
  const bool observe = obs::enabled();
  if (observe) decode_metrics().generate_calls->inc();

  // Warm start: the cache already holds a prefix of the kept prompt (plus
  // the last token's logits when it covers all of it), so prefill resumes
  // after it. The cached rows are exactly the rows a cold prefill would
  // write (decode_step is deterministic in the token sequence), so warm
  // and cold decoding are bit-identical.
  assert(cache.length <= static_cast<int>(kept.size()));
  assert(cache.length == 0 || cache.length < static_cast<int>(kept.size()) ||
         !cache.logits.empty());
  const std::size_t skip = static_cast<std::size_t>(cache.length);
  status.prefill_tokens_reused = cache.length;
  {
    auto prefill_span = trace.span("prefill");
    auto prefill_start = observe ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
    KvCache* caches[1] = {&cache};
    for (std::size_t i = skip; i < kept.size(); ++i) {
      if (deadline.expired()) {
        status.deadline_expired = true;
        return false;
      }
      // Only the last prompt token's logits are ever read.
      step(caches, kept.subspan(i, 1), /*logits=*/i + 1 == kept.size());
      ++status.steps_taken;
    }
    if (observe) {
      decode_metrics().prefill_ms->observe(elapsed_ms_since(prefill_start));
      decode_metrics().decoded_tokens->inc(
          static_cast<std::uint64_t>(status.steps_taken));
    }
  }
  if (kept.empty()) return false;
  // The last prompt token's step (or the warm cache) left the logits.
  assert(static_cast<int>(cache.logits.size()) == config_.vocab);
  if (prompt_snapshot)
    *prompt_snapshot = cache.clone(static_cast<int>(kept.size()));
  return true;
}

std::vector<std::int32_t> Transformer::generate(
    std::span<const std::int32_t> prompt,
    const GenerateOptions& options) const {
  GenerateStatus local_status;
  GenerateStatus& status = options.status ? *options.status : local_status;
  obs::TraceContext inert_trace;
  obs::TraceContext& trace = options.trace ? *options.trace : inert_trace;

  // Decoding runs in the caller's warm cache, mutated in place, or in a
  // fresh one.
  KvCache local_cache;
  if (!options.warm_cache) local_cache = make_cache();
  KvCache& cache = options.warm_cache ? *options.warm_cache : local_cache;
  std::vector<std::int32_t> out;
  if (!prefill(kept_prompt(prompt, options.max_new_tokens), cache,
               options.deadline, status, trace, options.prompt_snapshot))
    return out;  // nothing decoded: empty (partial) result

  const bool observe = obs::enabled();
  util::Rng rng(options.sample_seed);
  for (int i = 0; i < options.max_new_tokens && cache.length < config_.ctx;
       ++i) {
    if (options.deadline.expired()) {
      status.deadline_expired = true;
      break;
    }
    auto decode_span = trace.span("decode");
    std::int32_t next = options.temperature > 0.0f
                            ? sample_token(cache.logits, options.temperature,
                                           options.top_k, rng)
                            : argmax_token(cache.logits);
    if (next == options.stop_token) break;
    out.push_back(next);
    if (options.on_token) options.on_token(next);
    auto token_start = observe ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
    decode_step(cache, next);
    ++status.steps_taken;
    if (observe) {
      decode_metrics().token_ms->observe(elapsed_ms_since(token_start));
      decode_metrics().decoded_tokens->inc();
    }
  }
  return out;
}

namespace {

// Row log-softmax into `out` (size vocab).
void log_softmax(std::span<const float> logits, std::vector<float>& out) {
  out.resize(logits.size());
  float mx = logits[0];
  for (float v : logits) mx = std::max(mx, v);
  double sum = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i)
    sum += std::exp(static_cast<double>(logits[i] - mx));
  const float log_z = mx + static_cast<float>(std::log(sum));
  for (std::size_t i = 0; i < logits.size(); ++i) out[i] = logits[i] - log_z;
}

}  // namespace

std::vector<std::int32_t> Transformer::generate_beam(
    std::span<const std::int32_t> prompt, const BeamOptions& options) const {
  const int width = std::max(1, options.beam_width);

  struct Beam {
    KvCache cache;
    std::vector<std::int32_t> tokens;
    float score = 0.0f;
    std::vector<float> logprobs;  // of the next-token distribution
  };
  auto normalized = [&](float score, std::size_t length) {
    if (length == 0) return score;
    return score / std::pow(static_cast<float>(length),
                            options.length_penalty);
  };

  // Seed beam: the kept prompt fed once.
  Beam seed;
  seed.cache = make_cache();
  GenerateStatus status;
  obs::TraceContext inert_trace;
  if (!prefill(kept_prompt(prompt, options.max_new_tokens), seed.cache,
               util::Deadline{}, status, inert_trace,
               /*prompt_snapshot=*/nullptr))
    return {};  // empty kept prompt: no hypothesis exists
  log_softmax(seed.cache.logits, seed.logprobs);

  std::vector<Beam> beams;
  beams.push_back(std::move(seed));
  std::vector<std::int32_t> best_finished;
  float best_finished_score = -std::numeric_limits<float>::infinity();

  for (int step = 0; step < options.max_new_tokens && !beams.empty();
       ++step) {
    // Gather candidate expansions from every live beam.
    struct Candidate {
      std::size_t beam;
      std::int32_t token;
      float score;
    };
    std::vector<Candidate> candidates;
    candidates.reserve(beams.size() * static_cast<std::size_t>(width) * 2);
    for (std::size_t b = 0; b < beams.size(); ++b) {
      // Only the top `width` tokens of a beam can survive the global cut.
      std::vector<std::int32_t> order(
          static_cast<std::size_t>(config_.vocab));
      for (std::int32_t j = 0; j < config_.vocab; ++j)
        order[static_cast<std::size_t>(j)] = j;
      std::size_t keep_n =
          std::min<std::size_t>(static_cast<std::size_t>(width),
                                order.size());
      std::partial_sort(
          order.begin(), order.begin() + static_cast<std::ptrdiff_t>(keep_n),
          order.end(), [&](std::int32_t x, std::int32_t y) {
            return beams[b].logprobs[static_cast<std::size_t>(x)] >
                   beams[b].logprobs[static_cast<std::size_t>(y)];
          });
      for (std::size_t i = 0; i < keep_n; ++i) {
        candidates.push_back(
            {b, order[i],
             beams[b].score +
                 beams[b].logprobs[static_cast<std::size_t>(order[i])]});
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.score > b.score;
              });

    std::vector<Beam> next;
    for (const Candidate& c : candidates) {
      if (static_cast<int>(next.size()) >= width) break;
      const Beam& parent = beams[c.beam];
      if (c.token == options.stop_token) {
        float score = normalized(c.score, parent.tokens.size() + 1);
        if (score > best_finished_score) {
          best_finished_score = score;
          best_finished = parent.tokens;
        }
        continue;
      }
      if (parent.cache.length >= config_.ctx) {
        // Out of window: treat as finished without the stop token.
        float score = normalized(c.score, parent.tokens.size() + 1);
        if (score > best_finished_score) {
          best_finished_score = score;
          best_finished = parent.tokens;
          best_finished.push_back(c.token);
        }
        continue;
      }
      Beam child;
      child.cache = parent.cache;  // copy (small at this scale)
      child.tokens = parent.tokens;
      child.tokens.push_back(c.token);
      child.score = c.score;
      std::span<const float> child_logits =
          decode_step(child.cache, c.token);
      log_softmax(child_logits, child.logprobs);
      next.push_back(std::move(child));
    }
    beams = std::move(next);
    // Early-stop heuristic (standard practice): once the best finished
    // hypothesis outscores every live beam's current normalized score,
    // further expansion is very unlikely to win.
    if (!beams.empty()) {
      float best_live = -std::numeric_limits<float>::infinity();
      for (const Beam& b : beams)
        best_live = std::max(best_live,
                             normalized(b.score, b.tokens.size()));
      if (best_finished_score > best_live &&
          best_finished_score > -std::numeric_limits<float>::infinity())
        break;
    }
  }
  if (!best_finished.empty() ||
      best_finished_score > -std::numeric_limits<float>::infinity()) {
    return best_finished;
  }
  // No beam finished: return the best live hypothesis.
  const Beam* best = nullptr;
  for (const Beam& b : beams) {
    if (!best || normalized(b.score, b.tokens.size()) >
                     normalized(best->score, best->tokens.size()))
      best = &b;
  }
  return best ? best->tokens : std::vector<std::int32_t>{};
}

std::int32_t Transformer::argmax_token(std::span<const float> logits) const {
  std::int32_t best = 0;
  for (std::int32_t j = 1; j < config_.vocab; ++j) {
    if (logits[static_cast<std::size_t>(j)] >
        logits[static_cast<std::size_t>(best)])
      best = j;
  }
  return best;
}

std::int32_t Transformer::sample_token(std::span<const float> logits,
                                       float temperature, int top_k,
                                       util::Rng& rng) const {
  // Rank candidates, keep the top-k (or all), temperature-scale, sample.
  std::vector<std::int32_t> order(static_cast<std::size_t>(config_.vocab));
  for (std::int32_t j = 0; j < config_.vocab; ++j)
    order[static_cast<std::size_t>(j)] = j;
  std::size_t keep = top_k > 0 ? std::min<std::size_t>(
                                     static_cast<std::size_t>(top_k),
                                     order.size())
                               : order.size();
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(keep),
                    order.end(), [&](std::int32_t a, std::int32_t b) {
                      return logits[static_cast<std::size_t>(a)] >
                             logits[static_cast<std::size_t>(b)];
                    });
  order.resize(keep);

  const float max_logit = logits[static_cast<std::size_t>(order[0])];
  std::vector<double> weights(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    weights[i] = std::exp(
        (logits[static_cast<std::size_t>(order[i])] - max_logit) /
        temperature);
  }
  return order[rng.weighted(weights)];
}

}  // namespace wisdom::model
