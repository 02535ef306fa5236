#include "nn/layers.h"

#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace sttr::nn {

Embedding::Embedding(size_t num_rows, size_t dim, Rng& rng, float init_stddev)
    : table_(Tensor::RandomNormal({num_rows, dim}, rng, 0.0f, init_stddev),
             /*requires_grad=*/true) {
  STTR_CHECK_GT(num_rows, 0u);
  STTR_CHECK_GT(dim, 0u);
  table_.set_name("embedding_table");
}

ag::Variable Embedding::Forward(const std::vector<int64_t>& indices) const {
  return ag::GatherRows(table_, indices);
}

Linear::Linear(size_t in_dim, size_t out_dim, Rng& rng)
    : weight_(Tensor::GlorotUniform(in_dim, out_dim, rng),
              /*requires_grad=*/true),
      bias_(Tensor({out_dim}), /*requires_grad=*/true) {
  weight_.set_name("linear_weight");
  bias_.set_name("linear_bias");
}

ag::Variable Linear::Forward(const ag::Variable& x) const {
  return ag::AddRowBroadcast(ag::MatMul(x, weight_), bias_);
}

Mlp::Mlp(size_t input_dim, const std::vector<size_t>& dims, float dropout_rate,
         Rng& rng)
    : output_((dims.empty() ? input_dim : dims.back()), 1, rng),
      dropout_rate_(dropout_rate) {
  size_t prev = input_dim;
  hidden_.reserve(dims.size());
  for (size_t width : dims) {
    hidden_.emplace_back(prev, width, rng);
    prev = width;
  }
}

ag::Variable Mlp::Forward(const ag::Variable& x, bool training,
                          Rng& rng) const {
  ag::Variable h = ag::Dropout(x, dropout_rate_, training, rng);
  for (const Linear& layer : hidden_) {
    h = ag::Relu(layer.Forward(h));
    h = ag::Dropout(h, dropout_rate_, training, rng);
  }
  return output_.Forward(h);
}

Tensor Mlp::InferenceForward(const Tensor& x) const {
  const size_t n = x.rows();
  const float* in = x.data();
  size_t width = x.cols();
  size_t slot = 0;
  for (const Linear& layer : hidden_) {
    float* out = ThreadActivationBuffer(slot, n * layer.out_dim());
    MatMulBiasInto(in, n, width, layer.weight(), layer.bias(), /*relu=*/true,
                   out);
    in = out;
    width = layer.out_dim();
    slot ^= 1;
  }
  Tensor logits({n, 1});
  MatMulBiasInto(in, n, width, output_.weight(), output_.bias(),
                 /*relu=*/false, logits.data());
  return logits;
}

std::vector<ag::Variable> Mlp::Parameters() const {
  std::vector<ag::Variable> params;
  for (const Linear& layer : hidden_) {
    for (auto& p : layer.Parameters()) params.push_back(p);
  }
  for (auto& p : output_.Parameters()) params.push_back(p);
  return params;
}

}  // namespace sttr::nn
