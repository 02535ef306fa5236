#ifndef STTR_NN_LAYERS_H_
#define STTR_NN_LAYERS_H_

#include <cstdint>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "nn/module.h"
#include "util/rng.h"

namespace sttr::nn {

/// Lookup table of `num_rows` embeddings of width `dim`, initialised
/// N(0, init_stddev) per the paper ("initializing parameters with a Gaussian
/// distribution"). Lookups record touched rows for lazy optimiser updates.
class Embedding : public Module {
 public:
  Embedding(size_t num_rows, size_t dim, Rng& rng, float init_stddev = 0.01f);

  /// Rows at `indices` as a (batch, dim) Variable.
  ag::Variable Forward(const std::vector<int64_t>& indices) const;

  /// The raw table Variable (shape {num_rows, dim}).
  const ag::Variable& table() const { return table_; }

  size_t num_rows() const { return table_.value().rows(); }
  size_t dim() const { return table_.value().cols(); }

  std::vector<ag::Variable> Parameters() const override { return {table_}; }

 private:
  ag::Variable table_;
};

/// Fully connected layer: y = x W + b, Glorot-uniform W, zero b.
class Linear : public Module {
 public:
  Linear(size_t in_dim, size_t out_dim, Rng& rng);

  ag::Variable Forward(const ag::Variable& x) const;

  size_t in_dim() const { return weight_.value().rows(); }
  size_t out_dim() const { return weight_.value().cols(); }

  /// W (in, out) and b (out), for graph-free inference.
  const Tensor& weight() const { return weight_.value(); }
  const Tensor& bias() const { return bias_.value(); }

  std::vector<ag::Variable> Parameters() const override {
    return {weight_, bias_};
  }

 private:
  ag::Variable weight_;  // (in, out)
  ag::Variable bias_;    // (out)
};

/// The ReLU tower of Eq. (11)-(12): hidden layers given by `dims`
/// (e.g. {128, 64, 32, 16}) followed by a single-logit output layer.
/// Dropout with the configured rate is applied to the input and after every
/// hidden activation, as in the paper ("dropout on the embedding layer and
/// each hidden layer").
class Mlp : public Module {
 public:
  /// `input_dim` -> dims[0] -> ... -> dims.back() -> 1 logit.
  Mlp(size_t input_dim, const std::vector<size_t>& dims, float dropout_rate,
      Rng& rng);

  /// Returns per-row logits with shape (batch, 1). `training` enables dropout.
  ag::Variable Forward(const ag::Variable& x, bool training, Rng& rng) const;

  /// Inference-only forward: no autograd graph, no dropout. Each layer is
  /// one (batch, dim) GEMM pass on the calling thread with the bias (and
  /// ReLU) fused into its store, writing straight into the next layer's
  /// input in the thread's activation buffers; bit-identical to running
  /// MatMul, AddRowBroadcast and Relu layer by layer. Once warmed at or
  /// above `batch` rows it allocates only the returned logits. Thread-safe
  /// (weights are read-only here, the buffers are per thread).
  Tensor InferenceForward(const Tensor& x) const;

  size_t depth() const { return hidden_.size(); }

  std::vector<ag::Variable> Parameters() const override;

 private:
  std::vector<Linear> hidden_;
  Linear output_;
  float dropout_rate_;
};

}  // namespace sttr::nn

#endif  // STTR_NN_LAYERS_H_
