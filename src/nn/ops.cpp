#include "nn/ops.hpp"

#include <cassert>
#include <cmath>
#include <cstring>

#include "util/thread_pool.hpp"

namespace wisdom::nn {

namespace {

// Ops below this many multiply-adds stay sequential: pool dispatch costs a
// few microseconds, which swamps small kernels (layernorm-sized matmuls,
// single decode rows on tiny models).
std::size_t g_parallel_threshold = 32 * 1024;

bool pool_worthwhile(std::size_t madds) {
  return madds >= g_parallel_threshold && !util::ThreadPool::in_worker();
}

// Each shard kernel below computes a contiguous slice of the output exactly
// as the full sequential loop would (same per-element accumulation order),
// so the sharded result is bit-identical to the sequential one.

// Output columns per block of the matmul row kernel: full blocks of
// kBlock, then one block of the rest's whole multiple of kNarrow (16, 32
// or 48 columns), then a tail narrower than kNarrow.
constexpr int kBlock = 64;
constexpr int kNarrow = 16;

// crow[j0, j0 + width) = arow * B[:, j0, j0 + width), width <= W. The
// block's outputs stay in local accumulators across all of k and are
// stored once, rather than loaded and stored once per input element; it
// is inlined so that a constant width keeps them in registers. Per element
// the arithmetic is still zero, then one multiply-add per nonzero a in
// ascending p, so any split of the columns into blocks is bit-identical.
template <int W>
[[gnu::always_inline]] inline void matmul_row_block(const float* arow,
                                                    const float* b,
                                                    float* crow, int k,
                                                    int n, int j0,
                                                    int width) {
  float acc[W] = {};
  for (int p = 0; p < k; ++p) {
    const float av = arow[p];
    if (av == 0.0f) continue;
    const float* brow = b + static_cast<std::size_t>(p) * n + j0;
    for (int jj = 0; jj < width; ++jj) acc[jj] += av * brow[jj];
  }
  std::memcpy(crow + j0, acc, static_cast<std::size_t>(width) * sizeof(float));
}

// C[i0, i1) x [j0, j1) of C = A * B, one row at a time in column blocks.
// The row-sharded (m > 1) and column-sharded (single-row) pool paths and
// the sequential path all run this.
void matmul_block(const float* a, const float* b, float* c, int i0, int i1,
                  int j0, int j1, int k, int n) {
  for (int i = i0; i < i1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    int j = j0;
    for (; j1 - j >= kBlock; j += kBlock)
      matmul_row_block<kBlock>(arow, b, crow, k, n, j, kBlock);
    // One block for the rest rather than one per kNarrow columns: each
    // element's multiply-adds form a serial chain, so a wider block keeps
    // more independent chains in flight per pass over k.
    switch ((j1 - j) / kNarrow) {
      case 3:
        matmul_row_block<3 * kNarrow>(arow, b, crow, k, n, j, 3 * kNarrow);
        j += 3 * kNarrow;
        break;
      case 2:
        matmul_row_block<2 * kNarrow>(arow, b, crow, k, n, j, 2 * kNarrow);
        j += 2 * kNarrow;
        break;
      case 1:
        matmul_row_block<kNarrow>(arow, b, crow, k, n, j, kNarrow);
        j += kNarrow;
        break;
      default:
        break;
    }
    if (j < j1) matmul_row_block<kNarrow>(arow, b, crow, k, n, j, j1 - j);
  }
}

void matmul_bt_rows(const float* a, const float* b, float* c, int i0, int i1,
                    int k, int n) {
  for (int i = i0; i < i1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

void matmul_bt_cols(const float* a, const float* b, float* c, int m, int k,
                    int j0, int j1, int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = j0; j < j1; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

// dA[i][p] += dot(dC row i, B row p): every (i, p) cell is an independent
// dot product, so both row (i) and column (p) sharding are exact.
void matmul_da_rows(const float* b, const float* dc, float* da, int i0,
                    int i1, int k, int n) {
  for (int i = i0; i < i1; ++i) {
    const float* dcrow = dc + static_cast<std::size_t>(i) * n;
    float* darow = da + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const float* brow = b + static_cast<std::size_t>(p) * n;
      float acc = 0.0f;
      for (int j = 0; j < n; ++j) acc += dcrow[j] * brow[j];
      darow[p] += acc;
    }
  }
}

void matmul_da_cols(const float* b, const float* dc, float* da, int m, int k,
                    int p0, int p1, int n) {
  for (int i = 0; i < m; ++i) {
    const float* dcrow = dc + static_cast<std::size_t>(i) * n;
    float* darow = da + static_cast<std::size_t>(i) * k;
    for (int p = p0; p < p1; ++p) {
      const float* brow = b + static_cast<std::size_t>(p) * n;
      float acc = 0.0f;
      for (int j = 0; j < n; ++j) acc += dcrow[j] * brow[j];
      darow[p] += acc;
    }
  }
}

// dB[p][j] += sum_i A[i][p] * dC[i][j], sharded over dB rows (p). The i
// loop stays innermost and ascending, so each dB cell accumulates in the
// same order as the sequential kernel — bit-identical, no atomics.
void matmul_db_rows(const float* a, const float* dc, float* db, int p0,
                    int p1, int m, int k, int n) {
  for (int p = p0; p < p1; ++p) {
    float* dbrow = db + static_cast<std::size_t>(p) * n;
    for (int i = 0; i < m; ++i) {
      const float av = a[static_cast<std::size_t>(i) * k + p];
      if (av == 0.0f) continue;
      const float* dcrow = dc + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) dbrow[j] += av * dcrow[j];
    }
  }
}

}  // namespace

std::size_t parallel_threshold() { return g_parallel_threshold; }
void set_parallel_threshold(std::size_t madds) {
  g_parallel_threshold = madds;
}

void matmul(const float* a, const float* b, float* c, int m, int k, int n) {
  const std::size_t madds =
      static_cast<std::size_t>(m) * static_cast<std::size_t>(k) * n;
  if (pool_worthwhile(madds)) {
    util::ThreadPool& pool = util::ThreadPool::global();
    if (pool.size() > 1) {
      if (m > 1) {
        pool.parallel_for(0, m, [&](std::int64_t i0, std::int64_t i1) {
          matmul_block(a, b, c, static_cast<int>(i0), static_cast<int>(i1),
                       0, n, k, n);
        });
      } else {
        pool.parallel_for(0, n, [&](std::int64_t j0, std::int64_t j1) {
          matmul_block(a, b, c, 0, m, static_cast<int>(j0),
                       static_cast<int>(j1), k, n);
        });
      }
      return;
    }
  }
  matmul_block(a, b, c, 0, m, 0, n, k, n);
}

void matmul_bt(const float* a, const float* b, float* c, int m, int k, int n) {
  const std::size_t madds =
      static_cast<std::size_t>(m) * static_cast<std::size_t>(k) * n;
  if (pool_worthwhile(madds)) {
    util::ThreadPool& pool = util::ThreadPool::global();
    if (pool.size() > 1) {
      if (m > 1) {
        pool.parallel_for(0, m, [&](std::int64_t i0, std::int64_t i1) {
          matmul_bt_rows(a, b, c, static_cast<int>(i0), static_cast<int>(i1),
                         k, n);
        });
      } else {
        pool.parallel_for(0, n, [&](std::int64_t j0, std::int64_t j1) {
          matmul_bt_cols(a, b, c, m, k, static_cast<int>(j0),
                         static_cast<int>(j1), n);
        });
      }
      return;
    }
  }
  matmul_bt_rows(a, b, c, 0, m, k, n);
}

void matmul_backward(const float* a, const float* b, const float* dc,
                     float* da, float* db, int m, int k, int n) {
  const std::size_t madds =
      static_cast<std::size_t>(m) * static_cast<std::size_t>(k) * n;
  const bool parallel = pool_worthwhile(madds);
  // dA += dC * B^T
  if (da) {
    bool done = false;
    if (parallel) {
      util::ThreadPool& pool = util::ThreadPool::global();
      if (pool.size() > 1) {
        if (m > 1) {
          pool.parallel_for(0, m, [&](std::int64_t i0, std::int64_t i1) {
            matmul_da_rows(b, dc, da, static_cast<int>(i0),
                           static_cast<int>(i1), k, n);
          });
        } else {
          pool.parallel_for(0, k, [&](std::int64_t p0, std::int64_t p1) {
            matmul_da_cols(b, dc, da, m, k, static_cast<int>(p0),
                           static_cast<int>(p1), n);
          });
        }
        done = true;
      }
    }
    if (!done) matmul_da_rows(b, dc, da, 0, m, k, n);
  }
  // dB += A^T * dC
  if (db) {
    bool done = false;
    if (parallel) {
      util::ThreadPool& pool = util::ThreadPool::global();
      if (pool.size() > 1) {
        pool.parallel_for(0, k, [&](std::int64_t p0, std::int64_t p1) {
          matmul_db_rows(a, dc, db, static_cast<int>(p0),
                         static_cast<int>(p1), m, k, n);
        });
        done = true;
      }
    }
    if (!done) matmul_db_rows(a, dc, db, 0, k, m, k, n);
  }
}

void add_bias(const float* x, const float* bias, float* y, int m, int n) {
  for (int i = 0; i < m; ++i) {
    const float* xrow = x + static_cast<std::size_t>(i) * n;
    float* yrow = y + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) yrow[j] = xrow[j] + bias[j];
  }
}

void add_bias_backward(const float* dy, float* dbias, int m, int n) {
  for (int i = 0; i < m; ++i) {
    const float* row = dy + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) dbias[j] += row[j];
  }
}

namespace {
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
}

void gelu(const float* x, float* y, int n) {
  for (int i = 0; i < n; ++i) {
    float v = x[i];
    float u = kGeluC * (v + 0.044715f * v * v * v);
    y[i] = 0.5f * v * (1.0f + std::tanh(u));
  }
}

void gelu_backward(const float* x, const float* dy, float* dx, int n) {
  for (int i = 0; i < n; ++i) {
    float v = x[i];
    float u = kGeluC * (v + 0.044715f * v * v * v);
    float t = std::tanh(u);
    float du = kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
    float grad = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
    dx[i] += dy[i] * grad;
  }
}

void layernorm(const float* x, const float* gain, const float* bias, float* y,
               float* mean, float* rstd, int m, int n) {
  for (int i = 0; i < m; ++i) {
    const float* xr = x + static_cast<std::size_t>(i) * n;
    float* yr = y + static_cast<std::size_t>(i) * n;
    float mu = 0.0f;
    for (int j = 0; j < n; ++j) mu += xr[j];
    mu /= static_cast<float>(n);
    float var = 0.0f;
    for (int j = 0; j < n; ++j) {
      float d = xr[j] - mu;
      var += d * d;
    }
    var /= static_cast<float>(n);
    float rs = 1.0f / std::sqrt(var + 1e-5f);
    mean[i] = mu;
    rstd[i] = rs;
    for (int j = 0; j < n; ++j)
      yr[j] = (xr[j] - mu) * rs * gain[j] + bias[j];
  }
}

void layernorm_backward(const float* x, const float* gain, const float* mean,
                        const float* rstd, const float* dy, float* dx,
                        float* dgain, float* dbias, int m, int n) {
  for (int i = 0; i < m; ++i) {
    const float* xr = x + static_cast<std::size_t>(i) * n;
    const float* dyr = dy + static_cast<std::size_t>(i) * n;
    float* dxr = dx + static_cast<std::size_t>(i) * n;
    const float mu = mean[i];
    const float rs = rstd[i];

    float sum_dnorm = 0.0f;
    float sum_dnorm_xhat = 0.0f;
    for (int j = 0; j < n; ++j) {
      float xhat = (xr[j] - mu) * rs;
      float dnorm = dyr[j] * gain[j];
      sum_dnorm += dnorm;
      sum_dnorm_xhat += dnorm * xhat;
      dgain[j] += dyr[j] * xhat;
      dbias[j] += dyr[j];
    }
    const float inv_n = 1.0f / static_cast<float>(n);
    for (int j = 0; j < n; ++j) {
      float xhat = (xr[j] - mu) * rs;
      float dnorm = dyr[j] * gain[j];
      dxr[j] += rs * (dnorm - inv_n * sum_dnorm - xhat * inv_n * sum_dnorm_xhat);
    }
  }
}

void softmax(const float* x, float* y, int m, int n) {
  for (int i = 0; i < m; ++i) {
    const float* xr = x + static_cast<std::size_t>(i) * n;
    float* yr = y + static_cast<std::size_t>(i) * n;
    float mx = xr[0];
    for (int j = 1; j < n; ++j) mx = std::max(mx, xr[j]);
    float sum = 0.0f;
    for (int j = 0; j < n; ++j) {
      yr[j] = std::exp(xr[j] - mx);
      sum += yr[j];
    }
    float inv = 1.0f / sum;
    for (int j = 0; j < n; ++j) yr[j] *= inv;
  }
}

void softmax_backward(const float* y, const float* dy, float* dx, int m,
                      int n) {
  for (int i = 0; i < m; ++i) {
    const float* yr = y + static_cast<std::size_t>(i) * n;
    const float* dyr = dy + static_cast<std::size_t>(i) * n;
    float* dxr = dx + static_cast<std::size_t>(i) * n;
    float dot = 0.0f;
    for (int j = 0; j < n; ++j) dot += yr[j] * dyr[j];
    for (int j = 0; j < n; ++j) dxr[j] += yr[j] * (dyr[j] - dot);
  }
}

RotaryTable rotary_table(int positions, int rot_dim) {
  RotaryTable table;
  table.positions = positions;
  table.rot_dim = rot_dim;
  const int half = rot_dim / 2;
  const std::size_t size = static_cast<std::size_t>(positions) * half;
  table.cos.resize(size);
  table.sin.resize(size);
  for (int p = 0; p < positions; ++p) {
    const float pos = static_cast<float>(p);
    const std::size_t at = static_cast<std::size_t>(p) * half;
    for (int j = 0; j < half; ++j) {
      // GPT-NeoX / CodeGen style: channel pairs (j, j + half).
      float theta =
          pos * std::pow(10000.0f, -2.0f * static_cast<float>(j) /
                                        static_cast<float>(rot_dim));
      table.cos[at + j] = std::cos(theta);
      table.sin[at + j] = std::sin(theta);
    }
  }
  return table;
}

void rotary(float* x, int t, int dim, const RotaryTable& table, int pos0) {
  assert(pos0 >= 0 && pos0 + t <= table.positions);
  const int half = table.rot_dim / 2;
  for (int i = 0; i < t; ++i) {
    float* row = x + static_cast<std::size_t>(i) * dim;
    const std::size_t at = static_cast<std::size_t>(pos0 + i) * half;
    const float* cos_row = table.cos.data() + at;
    const float* sin_row = table.sin.data() + at;
    for (int j = 0; j < half; ++j) {
      float c = cos_row[j];
      float s = sin_row[j];
      float a = row[j];
      float b = row[j + half];
      row[j] = a * c - b * s;
      row[j + half] = a * s + b * c;
    }
  }
}

void rotary_backward(float* dx, int t, int dim, const RotaryTable& table,
                     int pos0) {
  // The rotation is orthogonal; the gradient transforms by the inverse
  // (negative-angle) rotation.
  assert(pos0 >= 0 && pos0 + t <= table.positions);
  const int half = table.rot_dim / 2;
  for (int i = 0; i < t; ++i) {
    float* row = dx + static_cast<std::size_t>(i) * dim;
    const std::size_t at = static_cast<std::size_t>(pos0 + i) * half;
    const float* cos_row = table.cos.data() + at;
    const float* sin_row = table.sin.data() + at;
    for (int j = 0; j < half; ++j) {
      float c = cos_row[j];
      float s = sin_row[j];
      float a = row[j];
      float b = row[j + half];
      row[j] = a * c + b * s;
      row[j + half] = -a * s + b * c;
    }
  }
}

float cross_entropy(const float* logits, const std::int32_t* targets,
                    int rows, int vocab, int ignore_index, float* dlogits) {
  double loss = 0.0;
  int counted = 0;
  for (int i = 0; i < rows; ++i) {
    if (targets[i] != ignore_index) ++counted;
  }
  if (counted == 0) {
    std::memset(dlogits, 0,
                static_cast<std::size_t>(rows) * vocab * sizeof(float));
    return 0.0f;
  }
  const float inv_count = 1.0f / static_cast<float>(counted);
  for (int i = 0; i < rows; ++i) {
    const float* lr = logits + static_cast<std::size_t>(i) * vocab;
    float* dr = dlogits + static_cast<std::size_t>(i) * vocab;
    if (targets[i] == ignore_index) {
      std::memset(dr, 0, static_cast<std::size_t>(vocab) * sizeof(float));
      continue;
    }
    float mx = lr[0];
    for (int j = 1; j < vocab; ++j) mx = std::max(mx, lr[j]);
    float sum = 0.0f;
    for (int j = 0; j < vocab; ++j) {
      dr[j] = std::exp(lr[j] - mx);
      sum += dr[j];
    }
    const float inv_sum = 1.0f / sum;
    const int target = targets[i];
    loss -= std::log(static_cast<double>(dr[target]) * inv_sum);
    for (int j = 0; j < vocab; ++j) {
      float p = dr[j] * inv_sum;
      dr[j] = (p - (j == target ? 1.0f : 0.0f)) * inv_count;
    }
  }
  return static_cast<float>(loss / counted);
}

void embedding(const float* table, const std::int32_t* ids, float* out,
               int count, int dim) {
  for (int i = 0; i < count; ++i) {
    std::memcpy(out + static_cast<std::size_t>(i) * dim,
                table + static_cast<std::size_t>(ids[i]) * dim,
                static_cast<std::size_t>(dim) * sizeof(float));
  }
}

void embedding_backward(const std::int32_t* ids, const float* dout,
                        float* dtable, int count, int dim) {
  for (int i = 0; i < count; ++i) {
    const float* src = dout + static_cast<std::size_t>(i) * dim;
    float* dst = dtable + static_cast<std::size_t>(ids[i]) * dim;
    for (int j = 0; j < dim; ++j) dst[j] += src[j];
  }
}

}  // namespace wisdom::nn
