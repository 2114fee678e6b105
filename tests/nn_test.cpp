#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "nn/adamw.hpp"
#include "nn/ops.hpp"
#include "nn/schedule.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace nn = wisdom::nn;
using wisdom::util::Rng;

namespace {

nn::Vec random_vec(Rng& rng, std::size_t n, float scale = 1.0f) {
  nn::Vec v(n);
  for (float& x : v) x = static_cast<float>(rng.normal()) * scale;
  return v;
}

// Central-difference numeric gradient of a scalar loss w.r.t. x[i].
double numeric_grad(std::function<double()> loss, float& xi, float eps) {
  float saved = xi;
  xi = saved + eps;
  double up = loss();
  xi = saved - eps;
  double down = loss();
  xi = saved;
  return (up - down) / (2.0 * eps);
}

void expect_close(double a, double b, double tol, const char* what) {
  double denom = std::max({std::abs(a), std::abs(b), 1e-3});
  EXPECT_LT(std::abs(a - b) / denom, tol) << what << ": " << a << " vs " << b;
}

}  // namespace

// --- matmul -------------------------------------------------------------------

TEST(Ops, MatmulKnownValues) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  float a[] = {1, 2, 3, 4};
  float b[] = {5, 6, 7, 8};
  float c[4];
  nn::matmul(a, b, c, 2, 2, 2);
  EXPECT_FLOAT_EQ(c[0], 19);
  EXPECT_FLOAT_EQ(c[1], 22);
  EXPECT_FLOAT_EQ(c[2], 43);
  EXPECT_FLOAT_EQ(c[3], 50);
}

// The row kernel splits the output columns into full blocks, one narrower
// block (16, 32 or 48 wide) and a tail, but every element must be computed
// the same way wherever it lands: zero, then one multiply-add per nonzero
// a in ascending p. Exact zeros in A exercise the zero-skip.
TEST(Ops, MatmulBlockPathsAgree) {
  Rng rng(12);
  auto sparse_row = [&](int k) {
    nn::Vec a = random_vec(rng, static_cast<std::size_t>(k));
    for (float& x : a)
      if (rng.uniform(10) == 0) x = 0.0f;
    return a;
  };
  auto same_bits = [](float x, float y) {
    return std::memcmp(&x, &y, sizeof(float)) == 0;
  };
  for (int k : {1, 48, 192}) {
    for (int n : {1, 15, 16, 17, 48, 63, 64, 65, 80, 96, 144, 192, 512}) {
      const nn::Vec a = sparse_row(k);
      const nn::Vec b = random_vec(rng, static_cast<std::size_t>(k) * n);
      nn::Vec c(static_cast<std::size_t>(n));
      nn::matmul(a.data(), b.data(), c.data(), 1, k, n);

      // Each column equals the same column computed alone (n = 1).
      nn::Vec col(static_cast<std::size_t>(k));
      for (int j = 0; j < n; ++j) {
        for (int p = 0; p < k; ++p)
          col[static_cast<std::size_t>(p)] =
              b[static_cast<std::size_t>(p) * n + j];
        float alone = 0.0f;
        nn::matmul(a.data(), col.data(), &alone, 1, k, 1);
        EXPECT_TRUE(same_bits(c[static_cast<std::size_t>(j)], alone))
            << "k " << k << " n " << n << " column " << j;
      }

      // Shifted right by `shift` leading columns, each column moves into a
      // different block (full, narrow or tail) and must not change.
      for (int shift : {1, 16, 49}) {
        const int wide = n + shift;
        nn::Vec bs = random_vec(rng, static_cast<std::size_t>(k) * wide);
        for (int p = 0; p < k; ++p)
          std::copy_n(b.begin() + static_cast<std::ptrdiff_t>(p) * n, n,
                      bs.begin() + static_cast<std::ptrdiff_t>(p) * wide +
                          shift);
        nn::Vec cs(static_cast<std::size_t>(wide));
        nn::matmul(a.data(), bs.data(), cs.data(), 1, k, wide);
        for (int j = 0; j < n; ++j)
          EXPECT_TRUE(same_bits(cs[static_cast<std::size_t>(shift + j)],
                                c[static_cast<std::size_t>(j)]))
              << "k " << k << " n " << n << " shift " << shift
              << " column " << j;
      }

      // An m-row product equals m single-row products.
      const int m = 3;
      nn::Vec am;
      for (int i = 0; i < m; ++i) {
        const nn::Vec row = sparse_row(k);
        am.insert(am.end(), row.begin(), row.end());
      }
      nn::Vec cm(static_cast<std::size_t>(m) * n);
      nn::matmul(am.data(), b.data(), cm.data(), m, k, n);
      nn::Vec single(static_cast<std::size_t>(n));
      for (int i = 0; i < m; ++i) {
        nn::matmul(am.data() + static_cast<std::size_t>(i) * k, b.data(),
                   single.data(), 1, k, n);
        EXPECT_EQ(0, std::memcmp(single.data(),
                                 cm.data() + static_cast<std::size_t>(i) * n,
                                 single.size() * sizeof(float)))
            << "k " << k << " n " << n << " row " << i;
      }
    }
  }
}

TEST(Ops, MatmulBtMatchesMatmul) {
  Rng rng(1);
  const int m = 3, k = 4, n = 5;
  nn::Vec a = random_vec(rng, m * k);
  nn::Vec b = random_vec(rng, k * n);
  nn::Vec bt(n * k);
  for (int i = 0; i < k; ++i)
    for (int j = 0; j < n; ++j) bt[j * k + i] = b[i * n + j];
  nn::Vec c1(m * n), c2(m * n);
  nn::matmul(a.data(), b.data(), c1.data(), m, k, n);
  nn::matmul_bt(a.data(), bt.data(), c2.data(), m, k, n);
  for (int i = 0; i < m * n; ++i) EXPECT_NEAR(c1[i], c2[i], 1e-4);
}

TEST(Ops, MatmulGradcheck) {
  Rng rng(2);
  const int m = 3, k = 4, n = 2;
  nn::Vec a = random_vec(rng, m * k);
  nn::Vec b = random_vec(rng, k * n);
  nn::Vec dc = random_vec(rng, m * n);
  // loss = sum(C .* dc)
  auto loss = [&] {
    nn::Vec c(m * n);
    nn::matmul(a.data(), b.data(), c.data(), m, k, n);
    double s = 0;
    for (int i = 0; i < m * n; ++i) s += c[i] * dc[i];
    return s;
  };
  nn::Vec da(m * k, 0.0f), db(k * n, 0.0f);
  nn::matmul_backward(a.data(), b.data(), dc.data(), da.data(), db.data(), m,
                      k, n);
  for (int i : {0, 5, 11}) {
    expect_close(numeric_grad(loss, a[i], 1e-3f), da[i], 1e-2, "dA");
  }
  for (int i : {0, 3, 7}) {
    expect_close(numeric_grad(loss, b[i], 1e-3f), db[i], 1e-2, "dB");
  }
}

// --- bias ----------------------------------------------------------------------

TEST(Ops, BiasForwardAndBackward) {
  float x[] = {1, 2, 3, 4};
  float bias[] = {10, 20};
  float y[4];
  nn::add_bias(x, bias, y, 2, 2);
  EXPECT_FLOAT_EQ(y[0], 11);
  EXPECT_FLOAT_EQ(y[3], 24);
  float dy[] = {1, 2, 3, 4};
  float dbias[] = {0, 0};
  nn::add_bias_backward(dy, dbias, 2, 2);
  EXPECT_FLOAT_EQ(dbias[0], 4);  // 1 + 3
  EXPECT_FLOAT_EQ(dbias[1], 6);  // 2 + 4
}

// --- gelu ----------------------------------------------------------------------

TEST(Ops, GeluValues) {
  float x[] = {-2.0f, 0.0f, 2.0f};
  float y[3];
  nn::gelu(x, y, 3);
  EXPECT_NEAR(y[1], 0.0, 1e-6);
  EXPECT_NEAR(y[2], 1.9546, 1e-3);  // gelu(2)
  EXPECT_NEAR(y[0], -0.0454, 1e-3);
  // Monotone-ish ordering for these points.
  EXPECT_LT(y[0], y[1]);
  EXPECT_LT(y[1], y[2]);
}

TEST(Ops, GeluGradcheck) {
  Rng rng(3);
  nn::Vec x = random_vec(rng, 8);
  nn::Vec dy = random_vec(rng, 8);
  auto loss = [&] {
    nn::Vec y(8);
    nn::gelu(x.data(), y.data(), 8);
    double s = 0;
    for (int i = 0; i < 8; ++i) s += y[i] * dy[i];
    return s;
  };
  nn::Vec dx(8, 0.0f);
  nn::gelu_backward(x.data(), dy.data(), dx.data(), 8);
  for (int i = 0; i < 8; ++i)
    expect_close(numeric_grad(loss, x[i], 1e-3f), dx[i], 1e-2, "gelu dx");
}

// --- layernorm --------------------------------------------------------------------

TEST(Ops, LayernormNormalizes) {
  Rng rng(4);
  const int m = 2, n = 16;
  nn::Vec x = random_vec(rng, m * n, 3.0f);
  nn::Vec gain(n, 1.0f), bias(n, 0.0f), y(m * n), mean(m), rstd(m);
  nn::layernorm(x.data(), gain.data(), bias.data(), y.data(), mean.data(),
                rstd.data(), m, n);
  for (int i = 0; i < m; ++i) {
    double mu = 0, var = 0;
    for (int j = 0; j < n; ++j) mu += y[i * n + j];
    mu /= n;
    for (int j = 0; j < n; ++j) var += (y[i * n + j] - mu) * (y[i * n + j] - mu);
    var /= n;
    EXPECT_NEAR(mu, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(Ops, LayernormGradcheck) {
  Rng rng(5);
  const int m = 2, n = 6;
  nn::Vec x = random_vec(rng, m * n);
  nn::Vec gain = random_vec(rng, n, 0.5f);
  for (float& g : gain) g += 1.0f;
  nn::Vec bias = random_vec(rng, n, 0.1f);
  nn::Vec dy = random_vec(rng, m * n);
  auto loss = [&] {
    nn::Vec y(m * n), mean(m), rstd(m);
    nn::layernorm(x.data(), gain.data(), bias.data(), y.data(), mean.data(),
                  rstd.data(), m, n);
    double s = 0;
    for (int i = 0; i < m * n; ++i) s += y[i] * dy[i];
    return s;
  };
  nn::Vec y(m * n), mean(m), rstd(m);
  nn::layernorm(x.data(), gain.data(), bias.data(), y.data(), mean.data(),
                rstd.data(), m, n);
  nn::Vec dx(m * n, 0.0f), dgain(n, 0.0f), dbias(n, 0.0f);
  nn::layernorm_backward(x.data(), gain.data(), mean.data(), rstd.data(),
                         dy.data(), dx.data(), dgain.data(), dbias.data(), m,
                         n);
  for (int i = 0; i < m * n; ++i)
    expect_close(numeric_grad(loss, x[i], 1e-3f), dx[i], 2e-2, "ln dx");
  for (int j = 0; j < n; ++j) {
    expect_close(numeric_grad(loss, gain[j], 1e-3f), dgain[j], 1e-2,
                 "ln dgain");
    expect_close(numeric_grad(loss, bias[j], 1e-3f), dbias[j], 1e-2,
                 "ln dbias");
  }
}

// --- softmax ---------------------------------------------------------------------

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(6);
  const int m = 3, n = 7;
  nn::Vec x = random_vec(rng, m * n, 2.0f);
  nn::Vec y(m * n);
  nn::softmax(x.data(), y.data(), m, n);
  for (int i = 0; i < m; ++i) {
    double s = 0;
    for (int j = 0; j < n; ++j) {
      EXPECT_GT(y[i * n + j], 0.0f);
      s += y[i * n + j];
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxStableForLargeInputs) {
  float x[] = {1000.0f, 1001.0f};
  float y[2];
  nn::softmax(x, y, 1, 2);
  EXPECT_FALSE(std::isnan(y[0]));
  EXPECT_NEAR(y[0] + y[1], 1.0, 1e-5);
  EXPECT_GT(y[1], y[0]);
}

TEST(Ops, SoftmaxGradcheck) {
  Rng rng(7);
  const int n = 5;
  nn::Vec x = random_vec(rng, n);
  nn::Vec dy = random_vec(rng, n);
  auto loss = [&] {
    nn::Vec y(n);
    nn::softmax(x.data(), y.data(), 1, n);
    double s = 0;
    for (int i = 0; i < n; ++i) s += y[i] * dy[i];
    return s;
  };
  nn::Vec y(n), dx(n, 0.0f);
  nn::softmax(x.data(), y.data(), 1, n);
  nn::softmax_backward(y.data(), dy.data(), dx.data(), 1, n);
  for (int i = 0; i < n; ++i)
    expect_close(numeric_grad(loss, x[i], 1e-3f), dx[i], 2e-2, "softmax dx");
}

// --- rotary ----------------------------------------------------------------------

TEST(Ops, RotaryPreservesNorm) {
  Rng rng(8);
  const int t = 4, dim = 8;
  nn::Vec x = random_vec(rng, t * dim);
  nn::Vec rotated = x;
  nn::rotary(rotated.data(), t, dim, nn::rotary_table(t, dim), 0);
  for (int i = 0; i < t; ++i) {
    double n0 = 0, n1 = 0;
    for (int j = 0; j < dim; ++j) {
      n0 += x[i * dim + j] * x[i * dim + j];
      n1 += rotated[i * dim + j] * rotated[i * dim + j];
    }
    EXPECT_NEAR(n0, n1, 1e-3);
  }
}

TEST(Ops, RotaryPositionZeroIsIdentity) {
  Rng rng(9);
  nn::Vec x = random_vec(rng, 8);
  nn::Vec r = x;
  nn::rotary(r.data(), 1, 8, nn::rotary_table(1, 8), 0);
  for (int i = 0; i < 8; ++i) EXPECT_NEAR(r[i], x[i], 1e-6);
}

TEST(Ops, RotaryBackwardIsInverse) {
  Rng rng(10);
  const int t = 3, dim = 8;
  nn::Vec x = random_vec(rng, t * dim);
  nn::Vec y = x;
  const nn::RotaryTable table = nn::rotary_table(5 + t, dim);
  nn::rotary(y.data(), t, dim, table, 5);
  nn::rotary_backward(y.data(), t, dim, table, 5);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(y[i], x[i], 1e-5);
}

TEST(Ops, RotaryDependsOnAbsolutePosition) {
  nn::Vec x = {1, 0, 0, 0};
  nn::Vec a = x, b = x;
  const nn::RotaryTable table = nn::rotary_table(3, 4);
  nn::rotary(a.data(), 1, 4, table, 1);
  nn::rotary(b.data(), 1, 4, table, 2);
  bool differs = false;
  for (int i = 0; i < 4; ++i) differs |= std::abs(a[i] - b[i]) > 1e-6;
  EXPECT_TRUE(differs);
}

TEST(Ops, RotaryPartialDimLeavesTailUntouched) {
  Rng rng(11);
  nn::Vec x = random_vec(rng, 8);
  nn::Vec r = x;
  nn::rotary(r.data(), 1, 8, nn::rotary_table(4, 4), 3);
  for (int i = 4; i < 8; ++i) EXPECT_FLOAT_EQ(r[i], x[i]);
}

// The table holds cos/sin of theta = pos * 10000^(-2j / rot_dim) for
// channel pair j, GPT-NeoX / CodeGen style. Positions stay small enough
// that rounding theta itself to float stays well inside the tolerance.
TEST(Ops, RotaryTableHoldsCosSinOfTheAngle) {
  const int positions = 16, rot_dim = 12, half = rot_dim / 2;
  const nn::RotaryTable table = nn::rotary_table(positions, rot_dim);
  EXPECT_EQ(table.positions, positions);
  EXPECT_EQ(table.rot_dim, rot_dim);
  ASSERT_EQ(table.cos.size(), static_cast<std::size_t>(positions * half));
  ASSERT_EQ(table.sin.size(), table.cos.size());
  for (int p = 0; p < positions; ++p) {
    for (int j = 0; j < half; ++j) {
      const double theta =
          p * std::pow(10000.0, -2.0 * j / static_cast<double>(rot_dim));
      const std::size_t at = static_cast<std::size_t>(p * half + j);
      EXPECT_NEAR(table.cos[at], std::cos(theta), 1e-6)
          << "pos " << p << " pair " << j;
      EXPECT_NEAR(table.sin[at], std::sin(theta), 1e-6)
          << "pos " << p << " pair " << j;
    }
  }
}

// --- cross entropy -----------------------------------------------------------------

TEST(Ops, CrossEntropyUniformLogits) {
  const int v = 4;
  nn::Vec logits(v, 0.0f);
  std::int32_t target = 2;
  nn::Vec dlogits(v);
  float loss = nn::cross_entropy(logits.data(), &target, 1, v, -1,
                                 dlogits.data());
  EXPECT_NEAR(loss, std::log(4.0f), 1e-5);
  EXPECT_NEAR(dlogits[2], 0.25f - 1.0f, 1e-5);
  EXPECT_NEAR(dlogits[0], 0.25f, 1e-5);
}

TEST(Ops, CrossEntropyIgnoreIndex) {
  const int v = 3;
  nn::Vec logits = {0, 0, 5, 1, 1, 1};
  std::int32_t targets[] = {2, -1};
  nn::Vec dlogits(6);
  float loss = nn::cross_entropy(logits.data(), targets, 2, v, -1,
                                 dlogits.data());
  EXPECT_GT(loss, 0.0f);
  // Ignored row has zero gradient.
  EXPECT_FLOAT_EQ(dlogits[3], 0.0f);
  EXPECT_FLOAT_EQ(dlogits[4], 0.0f);
  EXPECT_FLOAT_EQ(dlogits[5], 0.0f);
}

TEST(Ops, CrossEntropyAllIgnored) {
  nn::Vec logits = {1, 2};
  std::int32_t target = -1;
  nn::Vec dlogits(2, 9.0f);
  float loss = nn::cross_entropy(logits.data(), &target, 1, 2, -1,
                                 dlogits.data());
  EXPECT_FLOAT_EQ(loss, 0.0f);
  EXPECT_FLOAT_EQ(dlogits[0], 0.0f);
}

TEST(Ops, CrossEntropyGradcheck) {
  Rng rng(12);
  const int rows = 2, v = 5;
  nn::Vec logits = random_vec(rng, rows * v);
  std::int32_t targets[] = {1, 4};
  auto loss = [&] {
    nn::Vec d(rows * v);
    return static_cast<double>(
        nn::cross_entropy(logits.data(), targets, rows, v, -1, d.data()));
  };
  nn::Vec dlogits(rows * v);
  nn::cross_entropy(logits.data(), targets, rows, v, -1, dlogits.data());
  for (int i = 0; i < rows * v; ++i)
    expect_close(numeric_grad(loss, logits[i], 1e-3f), dlogits[i], 2e-2,
                 "ce dlogits");
}

// --- embedding -----------------------------------------------------------------------

TEST(Ops, EmbeddingGatherScatter) {
  nn::Vec table = {1, 2, 3, 4, 5, 6};  // 3 tokens x dim 2
  std::int32_t ids[] = {2, 0, 2};
  nn::Vec out(6);
  nn::embedding(table.data(), ids, out.data(), 3, 2);
  EXPECT_FLOAT_EQ(out[0], 5);
  EXPECT_FLOAT_EQ(out[2], 1);
  nn::Vec dout = {1, 1, 10, 10, 100, 100};
  nn::Vec dtable(6, 0.0f);
  nn::embedding_backward(ids, dout.data(), dtable.data(), 3, 2);
  EXPECT_FLOAT_EQ(dtable[0], 10);   // from second row
  EXPECT_FLOAT_EQ(dtable[4], 101);  // rows 0 and 2 both hit token 2
}

// --- optimizer / schedule ----------------------------------------------------------------

TEST(AdamW, ConvergesOnQuadratic) {
  // minimize (w - 3)^2
  nn::Param p(1);
  p.w[0] = 0.0f;
  nn::AdamWConfig cfg;
  cfg.weight_decay = 0.0f;
  nn::AdamW opt(cfg);
  for (int i = 0; i < 2000; ++i) {
    p.g[0] = 2.0f * (p.w[0] - 3.0f);
    opt.begin_step();
    opt.step_param(p, 0.01f, false);
  }
  EXPECT_NEAR(p.w[0], 3.0f, 1e-2);
}

TEST(AdamW, WeightDecayShrinksWeights) {
  nn::Param p(1);
  p.w[0] = 1.0f;
  nn::AdamWConfig cfg;
  cfg.weight_decay = 0.1f;
  nn::AdamW opt(cfg);
  for (int i = 0; i < 100; ++i) {
    p.g[0] = 0.0f;  // no loss gradient: decay only
    opt.begin_step();
    opt.step_param(p, 0.01f, true);
  }
  EXPECT_LT(p.w[0], 1.0f);
  EXPECT_GT(p.w[0], 0.0f);
}

TEST(AdamW, ClipGradNorm) {
  nn::Param p(2);
  p.g = {3.0f, 4.0f};  // norm 5
  std::vector<nn::Param*> params = {&p};
  float norm = nn::clip_grad_norm(params, 1.0f);
  EXPECT_FLOAT_EQ(norm, 5.0f);
  EXPECT_NEAR(p.g[0], 0.6f, 1e-5);
  EXPECT_NEAR(p.g[1], 0.8f, 1e-5);
  // Under the limit: untouched.
  p.g = {0.3f, 0.4f};
  nn::clip_grad_norm(params, 1.0f);
  EXPECT_NEAR(p.g[0], 0.3f, 1e-6);
}

TEST(Schedule, WarmupThenLinearDecay) {
  nn::LrSchedule sched;
  sched.base_lr = 1.0f;
  sched.warmup_steps = 10;
  sched.total_steps = 110;
  sched.decay = nn::DecayKind::Linear;
  EXPECT_LT(sched.at(0), 0.2f);
  EXPECT_NEAR(sched.at(9), 1.0f, 1e-5);
  EXPECT_GT(sched.at(10), sched.at(60));
  EXPECT_NEAR(sched.at(110), 0.0f, 1e-5);
}

TEST(Schedule, CosineDecay) {
  nn::LrSchedule sched;
  sched.base_lr = 1.0f;
  sched.warmup_steps = 0;
  sched.total_steps = 100;
  sched.decay = nn::DecayKind::Cosine;
  EXPECT_NEAR(sched.at(0), 1.0f, 1e-4);
  EXPECT_NEAR(sched.at(50), 0.5f, 1e-2);
  EXPECT_NEAR(sched.at(100), 0.0f, 1e-5);
  // Cosine is above linear early on.
  nn::LrSchedule lin = sched;
  lin.decay = nn::DecayKind::Linear;
  EXPECT_GT(sched.at(20), lin.at(20));
}

TEST(Schedule, MinRatioFloor) {
  nn::LrSchedule sched;
  sched.base_lr = 1.0f;
  sched.total_steps = 10;
  sched.min_ratio = 0.1f;
  EXPECT_NEAR(sched.at(10), 0.1f, 1e-5);
  EXPECT_NEAR(sched.at(10000), 0.1f, 1e-5);
}
