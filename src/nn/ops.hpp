// Forward and backward kernels for the decoder-only transformer.
//
// Conventions:
//   * all matrices are row-major; `rows x cols` given explicitly;
//   * forward functions write outputs, backward functions ACCUMULATE into
//     gradient buffers (callers zero them once per step), matching the
//     "+=" semantics gradients need when a tensor fans out;
//   * every backward takes the same geometry as its forward plus the
//     upstream gradient.
//
// Each kernel is unit-tested against finite differences (see
// tests/nn_test.cpp), which is what makes a hand-written backprop stack
// trustworthy.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace wisdom::nn {

// The matmul kernels below run on util::ThreadPool::global() when the op's
// multiply-add count reaches this threshold (and the pool has more than one
// lane); smaller ops run sequentially to avoid dispatch overhead. Sharding
// is deterministic, so parallel results are bit-identical to sequential
// ones at any thread count.
std::size_t parallel_threshold();
void set_parallel_threshold(std::size_t madds);

// C[m x n] = A[m x k] * B[k x n]
void matmul(const float* a, const float* b, float* c, int m, int k, int n);
// C[m x n] = A[m x k] * B^T  where B is [n x k]
void matmul_bt(const float* a, const float* b, float* c, int m, int k, int n);
// dA[m x k] += dC[m x n] * B^T ; dB[k x n] += A^T * dC
void matmul_backward(const float* a, const float* b, const float* dc,
                     float* da, float* db, int m, int k, int n);

// y[m x n] = x[m x n] + bias[n] (broadcast over rows); in-place allowed.
void add_bias(const float* x, const float* bias, float* y, int m, int n);
// dbias[n] += column sums of dy.
void add_bias_backward(const float* dy, float* dbias, int m, int n);

// GELU (tanh approximation, as in GPT/CodeGen).
void gelu(const float* x, float* y, int n);
void gelu_backward(const float* x, const float* dy, float* dx, int n);

// Row-wise layer normalization with gain/bias.
// mean/rstd are per-row caches of length m for the backward pass.
void layernorm(const float* x, const float* gain, const float* bias, float* y,
               float* mean, float* rstd, int m, int n);
void layernorm_backward(const float* x, const float* gain, const float* mean,
                        const float* rstd, const float* dy, float* dx,
                        float* dgain, float* dbias, int m, int n);

// Row-wise softmax; backward uses the forward output.
void softmax(const float* x, float* y, int m, int n);
void softmax_backward(const float* y, const float* dy, float* dx, int m,
                      int n);

// Rotary position embedding angles, tabulated: cos and sin of every
// (position, channel pair) angle for positions [0, positions) over
// `rot_dim` channels (rot_dim even). The angles depend only on position,
// so a model builds its table once per context window and every rotation
// reads it.
struct RotaryTable {
  int positions = 0;
  int rot_dim = 0;
  std::vector<float> cos, sin;  // [positions x rot_dim/2]
};
RotaryTable rotary_table(int positions, int rot_dim);

// Rotary position embedding over the first table.rot_dim channels of each
// head-sized row. x is [t x dim] for one head; position of row i is
// pos0 + i, and pos0 + t must not exceed table.positions. In-place
// rotation; backward is the inverse rotation.
void rotary(float* x, int t, int dim, const RotaryTable& table, int pos0);
void rotary_backward(float* dx, int t, int dim, const RotaryTable& table,
                     int pos0);

// Fused softmax + cross-entropy over logits [rows x vocab] against integer
// targets; targets equal to `ignore_index` contribute neither loss nor
// gradient. Returns mean loss over counted rows and writes dlogits
// (already divided by the count). probs is scratch of the same size as
// logits.
float cross_entropy(const float* logits, const std::int32_t* targets,
                    int rows, int vocab, int ignore_index, float* dlogits);

// Embedding lookup / scatter-add.
void embedding(const float* table, const std::int32_t* ids, float* out,
               int count, int dim);
void embedding_backward(const std::int32_t* ids, const float* dout,
                        float* dtable, int count, int dim);

}  // namespace wisdom::nn
