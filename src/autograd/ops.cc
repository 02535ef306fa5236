#include "autograd/ops.h"

#include <cmath>

#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace sttr::ag {

namespace {

using internal::Node;
using NodePtr = std::shared_ptr<Node>;

}  // namespace

Variable MatMul(const Variable& a, const Variable& b) {
  Tensor out = sttr::MatMul(a.value(), b.value());
  NodePtr na = a.node(), nb = b.node();
  return MakeNode(
      std::move(out), {na, nb},
      [na, nb](Node& self) {
        if (na->requires_grad) {
          na->EnsureGrad().AddInPlace(MatMulTransB(self.grad, nb->value));
        }
        if (nb->requires_grad) {
          nb->EnsureGrad().AddInPlace(MatMulTransA(na->value, self.grad));
        }
      },
      "matmul");
}

Variable Add(const Variable& a, const Variable& b) {
  Tensor out = sttr::Add(a.value(), b.value());
  NodePtr na = a.node(), nb = b.node();
  return MakeNode(
      std::move(out), {na, nb},
      [na, nb](Node& self) {
        if (na->requires_grad) na->EnsureGrad().AddInPlace(self.grad);
        if (nb->requires_grad) nb->EnsureGrad().AddInPlace(self.grad);
      },
      "add");
}

Variable Sub(const Variable& a, const Variable& b) {
  Tensor out = sttr::Sub(a.value(), b.value());
  NodePtr na = a.node(), nb = b.node();
  return MakeNode(
      std::move(out), {na, nb},
      [na, nb](Node& self) {
        if (na->requires_grad) na->EnsureGrad().AddInPlace(self.grad);
        if (nb->requires_grad) nb->EnsureGrad().Axpy(-1.0f, self.grad);
      },
      "sub");
}

Variable Mul(const Variable& a, const Variable& b) {
  Tensor out = sttr::Mul(a.value(), b.value());
  NodePtr na = a.node(), nb = b.node();
  return MakeNode(
      std::move(out), {na, nb},
      [na, nb](Node& self) {
        if (na->requires_grad) {
          na->EnsureGrad().AddInPlace(sttr::Mul(self.grad, nb->value));
        }
        if (nb->requires_grad) {
          nb->EnsureGrad().AddInPlace(sttr::Mul(self.grad, na->value));
        }
      },
      "mul");
}

Variable Scale(const Variable& x, float alpha) {
  Tensor out = sttr::Scale(x.value(), alpha);
  NodePtr nx = x.node();
  return MakeNode(
      std::move(out), {nx},
      [nx, alpha](Node& self) {
        if (nx->requires_grad) nx->EnsureGrad().Axpy(alpha, self.grad);
      },
      "scale");
}

Variable AddRowBroadcast(const Variable& x, const Variable& bias) {
  Tensor out = sttr::AddRowBroadcast(x.value(), bias.value());
  NodePtr nx = x.node(), nb = bias.node();
  return MakeNode(
      std::move(out), {nx, nb},
      [nx, nb](Node& self) {
        if (nx->requires_grad) nx->EnsureGrad().AddInPlace(self.grad);
        if (nb->requires_grad) {
          const Tensor colsum = ColSum(self.grad);
          Tensor& g = nb->EnsureGrad();
          STTR_CHECK_EQ(g.size(), colsum.size());
          float* gd = g.data();
          const float* cs = colsum.data();
          for (size_t j = 0, m = g.size(); j < m; ++j) gd[j] += cs[j];
        }
      },
      "add_bias");
}

Variable Relu(const Variable& x) {
  Tensor out = sttr::Relu(x.value());
  NodePtr nx = x.node();
  return MakeNode(
      std::move(out), {nx},
      [nx](Node& self) {
        if (!nx->requires_grad) return;
        Tensor& g = nx->EnsureGrad();
        STTR_CHECK_EQ(g.size(), self.grad.size());
        float* gd = g.data();
        const float* y = self.value.data();
        const float* dy = self.grad.data();
        // Adding -0.0f leaves every float (+0, -0 and NaN included)
        // unchanged, so this equals skipping the add where y <= 0.
        for (size_t i = 0, size = g.size(); i < size; ++i) {
          gd[i] += y[i] > 0.0f ? dy[i] : -0.0f;
        }
      },
      "relu");
}

Variable SigmoidOp(const Variable& x) {
  Tensor out = sttr::Sigmoid(x.value());
  NodePtr nx = x.node();
  return MakeNode(
      std::move(out), {nx},
      [nx](Node& self) {
        if (!nx->requires_grad) return;
        Tensor& g = nx->EnsureGrad();
        for (size_t i = 0; i < g.size(); ++i) {
          const float s = self.value[i];
          g[i] += self.grad[i] * s * (1.0f - s);
        }
      },
      "sigmoid");
}

Variable TanhOp(const Variable& x) {
  Tensor out = sttr::TanhT(x.value());
  NodePtr nx = x.node();
  return MakeNode(
      std::move(out), {nx},
      [nx](Node& self) {
        if (!nx->requires_grad) return;
        Tensor& g = nx->EnsureGrad();
        for (size_t i = 0; i < g.size(); ++i) {
          const float t = self.value[i];
          g[i] += self.grad[i] * (1.0f - t * t);
        }
      },
      "tanh");
}

Variable ConcatCols(const Variable& a, const Variable& b) {
  Tensor out = sttr::ConcatCols(a.value(), b.value());
  NodePtr na = a.node(), nb = b.node();
  const size_t p = a.value().cols();
  const size_t q = b.value().cols();
  return MakeNode(
      std::move(out), {na, nb},
      [na, nb, p, q](Node& self) {
        if (na->requires_grad) {
          na->EnsureGrad().AddInPlace(SliceCols(self.grad, 0, p));
        }
        if (nb->requires_grad) {
          nb->EnsureGrad().AddInPlace(SliceCols(self.grad, p, p + q));
        }
      },
      "concat_cols");
}

Variable GatherRows(const Variable& table,
                    const std::vector<int64_t>& indices) {
  Tensor out = sttr::GatherRows(table.value(), indices);
  NodePtr nt = table.node();
  return MakeNode(
      std::move(out), {nt},
      [nt, indices](Node& self) {
        if (!nt->requires_grad) return;
        ScatterRowsAdd(nt->EnsureGrad(), indices, self.grad);
        nt->touched_rows.insert(nt->touched_rows.end(), indices.begin(),
                                indices.end());
      },
      "gather_rows");
}

Variable Dropout(const Variable& x, float rate, bool training, Rng& rng) {
  STTR_CHECK_GE(rate, 0.0f);
  STTR_CHECK_LT(rate, 1.0f) << "dropout rate must be < 1";
  if (!training || rate == 0.0f) return x;
  const float keep = 1.0f - rate;
  const float inv_keep = 1.0f / keep;
  Tensor mask(x.value().shape());
  float* md = mask.data();
  for (size_t i = 0, size = mask.size(); i < size; ++i) {
    md[i] = rng.Bernoulli(keep) ? inv_keep : 0.0f;
  }
  Tensor out = sttr::Mul(x.value(), mask);
  NodePtr nx = x.node();
  return MakeNode(
      std::move(out), {nx},
      [nx, mask = std::move(mask)](Node& self) {
        if (!nx->requires_grad) return;
        nx->EnsureGrad().AddInPlace(sttr::Mul(self.grad, mask));
      },
      "dropout");
}

Variable Sum(const Variable& x) {
  Tensor out = Tensor::Scalar(static_cast<float>(x.value().Sum()));
  NodePtr nx = x.node();
  return MakeNode(
      std::move(out), {nx},
      [nx](Node& self) {
        if (!nx->requires_grad) return;
        nx->EnsureGrad().Axpy(self.grad[0], Tensor::Ones(nx->value.shape()));
      },
      "sum");
}

Variable Mean(const Variable& x) {
  STTR_CHECK(!x.value().empty());
  Tensor out = Tensor::Scalar(static_cast<float>(x.value().Mean()));
  NodePtr nx = x.node();
  const float inv_n = 1.0f / static_cast<float>(x.value().size());
  return MakeNode(
      std::move(out), {nx},
      [nx, inv_n](Node& self) {
        if (!nx->requires_grad) return;
        nx->EnsureGrad().Axpy(self.grad[0] * inv_n,
                              Tensor::Ones(nx->value.shape()));
      },
      "mean");
}

Variable RowwiseDot(const Variable& a, const Variable& b) {
  Tensor out = sttr::RowwiseDot(a.value(), b.value());
  NodePtr na = a.node(), nb = b.node();
  return MakeNode(
      std::move(out), {na, nb},
      [na, nb](Node& self) {
        const size_t n = na->value.rows();
        const size_t d = na->value.cols();
        if (na->requires_grad) {
          Tensor& g = na->EnsureGrad();
          for (size_t i = 0; i < n; ++i) {
            const float gi = self.grad[i];
            const float* rb = nb->value.row(i);
            float* dst = g.row(i);
            for (size_t j = 0; j < d; ++j) dst[j] += gi * rb[j];
          }
        }
        if (nb->requires_grad) {
          Tensor& g = nb->EnsureGrad();
          for (size_t i = 0; i < n; ++i) {
            const float gi = self.grad[i];
            const float* ra = na->value.row(i);
            float* dst = g.row(i);
            for (size_t j = 0; j < d; ++j) dst[j] += gi * ra[j];
          }
        }
      },
      "rowwise_dot");
}

Variable BceWithLogits(const Variable& logits, const Tensor& labels) {
  const Tensor& x = logits.value();
  STTR_CHECK_EQ(x.size(), labels.size());
  STTR_CHECK_GT(x.size(), 0u);
  // -[y log s + (1-y) log(1-s)] = softplus(x) - y*x, computed stably and
  // vectorised (simd.h) — this forward runs on every training step.
  const double loss = simd::BceWithLogitsSum(x.data(), labels.data(), x.size());
  const size_t n = x.size();
  Tensor out = Tensor::Scalar(static_cast<float>(loss / static_cast<double>(n)));
  NodePtr nx = logits.node();
  return MakeNode(
      std::move(out), {nx},
      [nx, labels, n](Node& self) {
        if (!nx->requires_grad) return;
        Tensor& g = nx->EnsureGrad();
        const float scale = self.grad[0] / static_cast<float>(n);
        for (size_t i = 0; i < g.size(); ++i) {
          g[i] += scale * (SigmoidScalar(nx->value[i]) - labels[i]);
        }
      },
      "bce_with_logits");
}

}  // namespace sttr::ag
