#ifndef STTR_TENSOR_TENSOR_OPS_H_
#define STTR_TENSOR_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace sttr {

// Dense numeric kernels over 2-D tensors. These are the primitives the
// autodiff layer composes; shapes are validated with STTR_CHECK.

/// C = A(n,k) * B(k,m). Cache-blocked serial kernel: C is computed in
/// register-resident row/column tiles so each B element loaded from cache is
/// reused across a block of C rows.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// out(n,m) = A(n,k) * B(k,m) + bias(m), clamped by ReluScalar when `relu`
/// is set, in one pass: the bias add and the ReLU run on the accumulators as
/// each GEMM tile is stored. Every element takes the same float operations
/// in the same order as Relu(AddRowBroadcast(MatMul(A, B), bias)), so the
/// result is bit-identical to that chain. `a` and `out` are raw row-major
/// buffers (n*k and n*m floats, not overlapping) so a layer-by-layer
/// forward pass can write each layer straight into the next layer's input.
void MatMulBiasInto(const float* a, size_t n, size_t k, const Tensor& b,
                    const Tensor& bias, bool relu, float* out);

/// One of two activation buffers (`slot` 0 or 1) owned by the calling
/// thread, with room for at least `floats` floats. A layer-by-layer forward
/// pass alternates between them: layer l reads one slot and writes the
/// other. A slot grows to the largest size asked of it on its thread and
/// never shrinks, so a warmed pass at or below that high-water mark
/// allocates nothing; nothing is allocated before a thread's first call.
/// Growing a slot discards its contents. Not reentrant: one pass at a time
/// per thread.
float* ThreadActivationBuffer(size_t slot, size_t floats);

/// C = A^T(n,k)^T * B(n,m) = (k,m). Used for dW in linear backward.
Tensor MatMulTransA(const Tensor& a, const Tensor& b);

/// C = A(n,k) * B(m,k)^T = (n,m). Used for dX in linear backward.
Tensor MatMulTransB(const Tensor& a, const Tensor& b);

/// out = a + b (same shape).
Tensor Add(const Tensor& a, const Tensor& b);

/// out = a - b (same shape).
Tensor Sub(const Tensor& a, const Tensor& b);

/// out = a ⊙ b (same shape).
Tensor Mul(const Tensor& a, const Tensor& b);

/// out = a * alpha.
Tensor Scale(const Tensor& a, float alpha);

/// out(i,j) = x(i,j) + bias(j); x is (n,m), bias is (m) or (1,m).
Tensor AddRowBroadcast(const Tensor& x, const Tensor& bias);

/// Column sums of a 2-D tensor -> shape (m). Reduces over rows.
Tensor ColSum(const Tensor& x);

/// Row-wise dot product of two (n,d) tensors -> (n).
Tensor RowwiseDot(const Tensor& a, const Tensor& b);

/// Concatenates two 2-D tensors with equal row counts along columns.
Tensor ConcatCols(const Tensor& a, const Tensor& b);

/// Extracts columns [begin, end) of a 2-D tensor.
Tensor SliceCols(const Tensor& x, size_t begin, size_t end);

/// Gathers rows of `table` (V,d) at `indices` -> (indices.size(), d).
Tensor GatherRows(const Tensor& table, const std::vector<int64_t>& indices);

/// dest.row(indices[i]) += src.row(i) for all i. dest (V,d), src (n,d).
void ScatterRowsAdd(Tensor& dest, const std::vector<int64_t>& indices,
                    const Tensor& src);

/// max(x, 0) as the comparison `x < 0 ? 0 : x`: keeps -0.0f and NaN as they
/// are. Branch-free, so element loops over it vectorise.
inline float ReluScalar(float x) { return x < 0.0f ? 0.0f : x; }

/// Elementwise ReluScalar.
Tensor Relu(const Tensor& x);

/// Numerically stable logistic sigmoid.
Tensor Sigmoid(const Tensor& x);

/// Elementwise tanh.
Tensor TanhT(const Tensor& x);

/// Single-element stable sigmoid.
float SigmoidScalar(float x);

/// log(sigmoid(x)) computed stably (= -softplus(-x)).
float LogSigmoid(float x);

}  // namespace sttr

#endif  // STTR_TENSOR_TENSOR_OPS_H_
