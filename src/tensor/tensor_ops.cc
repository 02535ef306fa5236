#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/simd.h"

namespace sttr {

namespace {

// GEMM tile sizes. The micro-kernel computes a kRowTile x kColTile block of
// C in local accumulators (register-resident after unrolling), so every B
// element loaded is reused kRowTile times and C is written exactly once
// instead of once per inner-dimension step. 8x32 measured fastest here:
// narrower column tiles trip GCC's vectoriser cost model with runtime
// strides and fall back to 128-bit vectors (see bench/micro_matmul).
constexpr size_t kRowTile = 8;
constexpr size_t kColTile = 32;

// Row unroll of the transposed products below (their inner loops hardcode
// four-way register blocking, independent of the main GEMM tile).
constexpr size_t kQuadRows = 4;

// What the GEMM micro-kernels do to each accumulator as they store it.
enum class Epilogue { kStore, kBias, kBiasRelu };

template <Epilogue E>
inline float Finish(float acc, const float* bias, size_t j) {
  if constexpr (E == Epilogue::kStore) {
    return acc;
  } else if constexpr (E == Epilogue::kBias) {
    return acc + bias[j];
  } else {
    return ReluScalar(acc + bias[j]);
  }
}

/// C[0..RT)[0..CT) = A(RT rows, k) * B(k, CT cols), each element finished by
/// E with bias[0..CT). Accumulates over the inner dimension in increasing
/// order per element — the same per-element chain as the classic i-k-j
/// loop, so blocking does not perturb results.
template <Epilogue E, size_t RT, size_t CT>
inline void GemmMicro(const float* a, size_t lda, const float* b, size_t ldb,
                      const float* bias, float* c, size_t ldc, size_t k) {
  float acc[RT][CT] = {};
  for (size_t kk = 0; kk < k; ++kk) {
    const float* br = b + kk * ldb;
    for (size_t r = 0; r < RT; ++r) {
      const float av = a[r * lda + kk];
      for (size_t j = 0; j < CT; ++j) acc[r][j] += av * br[j];
    }
  }
  for (size_t r = 0; r < RT; ++r) {
    for (size_t j = 0; j < CT; ++j) {
      c[r * ldc + j] = Finish<E>(acc[r][j], bias, j);
    }
  }
}

/// Ragged right/bottom edge of the tiling: RT rows, jw < kColTile columns.
template <Epilogue E, size_t RT>
inline void GemmMicroEdge(const float* a, size_t lda, const float* b,
                          size_t ldb, const float* bias, float* c, size_t ldc,
                          size_t k, size_t jw) {
  float acc[RT][kColTile] = {};
  for (size_t kk = 0; kk < k; ++kk) {
    const float* br = b + kk * ldb;
    for (size_t r = 0; r < RT; ++r) {
      const float av = a[r * lda + kk];
      for (size_t j = 0; j < jw; ++j) acc[r][j] += av * br[j];
    }
  }
  for (size_t r = 0; r < RT; ++r) {
    for (size_t j = 0; j < jw; ++j) {
      c[r * ldc + j] = Finish<E>(acc[r][j], bias, j);
    }
  }
}

/// Blocked GEMM C(n,m) = A(n,k) * B(k,m), each element finished by E with
/// bias(m). Column tiles are the outer loop so the strided B panel a tile
/// touches stays cache-resident across the row sweep.
template <Epilogue E>
void BlockedGemm(const float* a, const float* b, const float* bias, float* c,
                 size_t n, size_t k, size_t m) {
  for (size_t j0 = 0; j0 < m; j0 += kColTile) {
    const size_t jw = std::min(kColTile, m - j0);
    const float* bias_j = E == Epilogue::kStore ? nullptr : bias + j0;
    size_t i = 0;
    if (jw == kColTile) {
      for (; i + kRowTile <= n; i += kRowTile) {
        GemmMicro<E, kRowTile, kColTile>(a + i * k, k, b + j0, m, bias_j,
                                         c + i * m + j0, m, k);
      }
      for (; i < n; ++i) {
        GemmMicro<E, 1, kColTile>(a + i * k, k, b + j0, m, bias_j,
                                  c + i * m + j0, m, k);
      }
    } else {
      for (; i + kRowTile <= n; i += kRowTile) {
        GemmMicroEdge<E, kRowTile>(a + i * k, k, b + j0, m, bias_j,
                                   c + i * m + j0, m, k, jw);
      }
      for (; i < n; ++i) {
        GemmMicroEdge<E, 1>(a + i * k, k, b + j0, m, bias_j, c + i * m + j0,
                            m, k, jw);
      }
    }
  }
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  STTR_CHECK_EQ(a.ndim(), 2u);
  STTR_CHECK_EQ(b.ndim(), 2u);
  const size_t n = a.rows(), k = a.cols(), m = b.cols();
  STTR_CHECK_EQ(k, b.rows()) << "MatMul inner dims";
  Tensor c({n, m});
  BlockedGemm<Epilogue::kStore>(a.data(), b.data(), nullptr, c.data(), n, k,
                                m);
  return c;
}

void MatMulBiasInto(const float* a, size_t n, size_t k, const Tensor& b,
                    const Tensor& bias, bool relu, float* out) {
  STTR_CHECK_EQ(b.ndim(), 2u);
  STTR_CHECK_EQ(k, b.rows()) << "MatMulBiasInto inner dims";
  const size_t m = b.cols();
  STTR_CHECK_EQ(bias.size(), m) << "bias size must match columns";
  if (relu) {
    BlockedGemm<Epilogue::kBiasRelu>(a, b.data(), bias.data(), out, n, k, m);
  } else {
    BlockedGemm<Epilogue::kBias>(a, b.data(), bias.data(), out, n, k, m);
  }
}

float* ThreadActivationBuffer(size_t slot, size_t floats) {
  STTR_CHECK_LT(slot, 2u);
  thread_local std::vector<float> buffers[2];
  std::vector<float>& buf = buffers[slot];
  if (buf.size() < floats) buf = std::vector<float>(floats);
  return buf.data();
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  STTR_CHECK_EQ(a.ndim(), 2u);
  STTR_CHECK_EQ(b.ndim(), 2u);
  const size_t n = a.rows(), k = a.cols(), m = b.cols();
  STTR_CHECK_EQ(n, b.rows()) << "MatMulTransA outer dims";
  Tensor c({k, m});
  float* cd = c.data();
  // Rank-kQuadRows updates: processing kQuadRows rows of A/B per sweep cuts
  // the load/store traffic on C (the largest array touched) by kQuadRows.
  // Each C element still receives its i-contributions in increasing order.
  size_t i = 0;
  for (; i + kQuadRows <= n; i += kQuadRows) {
    const float* ar[kQuadRows];
    const float* br[kQuadRows];
    for (size_t r = 0; r < kQuadRows; ++r) {
      ar[r] = a.row(i + r);
      br[r] = b.row(i + r);
    }
    for (size_t kk = 0; kk < k; ++kk) {
      float* crow = cd + kk * m;
      const float av0 = ar[0][kk], av1 = ar[1][kk], av2 = ar[2][kk],
                  av3 = ar[3][kk];
      for (size_t j = 0; j < m; ++j) {
        float cj = crow[j];
        cj += av0 * br[0][j];
        cj += av1 * br[1][j];
        cj += av2 * br[2][j];
        cj += av3 * br[3][j];
        crow[j] = cj;
      }
    }
  }
  for (; i < n; ++i) {
    const float* arow = a.row(i);
    const float* brow = b.row(i);
    for (size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      float* crow = cd + kk * m;
      for (size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  STTR_CHECK_EQ(a.ndim(), 2u);
  STTR_CHECK_EQ(b.ndim(), 2u);
  const size_t n = a.rows(), k = a.cols(), m = b.rows();
  STTR_CHECK_EQ(k, b.cols()) << "MatMulTransB inner dims";
  Tensor c({n, m});
  // Row-on-row dot products; a kQuadRows x kQuadRows register tile reuses
  // every A and B row load kQuadRows times. Double accumulators as before.
  size_t i = 0;
  for (; i + kQuadRows <= n; i += kQuadRows) {
    size_t j = 0;
    for (; j + kQuadRows <= m; j += kQuadRows) {
      double acc[kQuadRows][kQuadRows] = {};
      for (size_t kk = 0; kk < k; ++kk) {
        float avs[kQuadRows], bvs[kQuadRows];
        for (size_t r = 0; r < kQuadRows; ++r) avs[r] = a.row(i + r)[kk];
        for (size_t s = 0; s < kQuadRows; ++s) bvs[s] = b.row(j + s)[kk];
        for (size_t r = 0; r < kQuadRows; ++r) {
          for (size_t s = 0; s < kQuadRows; ++s) {
            acc[r][s] += static_cast<double>(avs[r]) * bvs[s];
          }
        }
      }
      for (size_t r = 0; r < kQuadRows; ++r) {
        for (size_t s = 0; s < kQuadRows; ++s) {
          c.row(i + r)[j + s] = static_cast<float>(acc[r][s]);
        }
      }
    }
    for (; j < m; ++j) {
      const float* brow = b.row(j);
      for (size_t r = 0; r < kQuadRows; ++r) {
        const float* arow = a.row(i + r);
        double s = 0;
        for (size_t kk = 0; kk < k; ++kk) {
          s += static_cast<double>(arow[kk]) * brow[kk];
        }
        c.row(i + r)[j] = static_cast<float>(s);
      }
    }
  }
  for (; i < n; ++i) {
    const float* arow = a.row(i);
    float* crow = c.row(i);
    for (size_t j = 0; j < m; ++j) {
      const float* brow = b.row(j);
      double s = 0;
      for (size_t kk = 0; kk < k; ++kk) {
        s += static_cast<double>(arow[kk]) * brow[kk];
      }
      crow[j] = static_cast<float>(s);
    }
  }
  return c;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  STTR_CHECK(a.SameShape(b));
  Tensor out = a;
  out.AddInPlace(b);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  STTR_CHECK(a.SameShape(b));
  Tensor out = a;
  out.Axpy(-1.0f, b);
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  STTR_CHECK(a.SameShape(b));
  Tensor out = a;
  float* o = out.data();
  const float* bd = b.data();
  for (size_t i = 0, size = out.size(); i < size; ++i) o[i] *= bd[i];
  return out;
}

Tensor Scale(const Tensor& a, float alpha) {
  Tensor out = a;
  out.ScaleInPlace(alpha);
  return out;
}

Tensor AddRowBroadcast(const Tensor& x, const Tensor& bias) {
  STTR_CHECK_EQ(x.ndim(), 2u);
  const size_t n = x.rows(), m = x.cols();
  STTR_CHECK_EQ(bias.size(), m) << "bias size must match columns";
  Tensor out = x;
  float* o = out.data();
  const float* bd = bias.data();
  for (size_t i = 0; i < n; ++i) {
    float* row = o + i * m;
    for (size_t j = 0; j < m; ++j) row[j] += bd[j];
  }
  return out;
}

Tensor ColSum(const Tensor& x) {
  STTR_CHECK_EQ(x.ndim(), 2u);
  const size_t n = x.rows(), m = x.cols();
  Tensor out({m});
  float* o = out.data();
  const float* xd = x.data();
  for (size_t i = 0; i < n; ++i) {
    const float* row = xd + i * m;
    for (size_t j = 0; j < m; ++j) o[j] += row[j];
  }
  return out;
}

Tensor RowwiseDot(const Tensor& a, const Tensor& b) {
  STTR_CHECK(a.SameShape(b));
  STTR_CHECK_EQ(a.ndim(), 2u);
  const size_t n = a.rows(), d = a.cols();
  Tensor out({n});
  for (size_t i = 0; i < n; ++i) {
    const float* ra = a.row(i);
    const float* rb = b.row(i);
    double s = 0;
    for (size_t j = 0; j < d; ++j) s += static_cast<double>(ra[j]) * rb[j];
    out[i] = static_cast<float>(s);
  }
  return out;
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  STTR_CHECK_EQ(a.ndim(), 2u);
  STTR_CHECK_EQ(b.ndim(), 2u);
  STTR_CHECK_EQ(a.rows(), b.rows());
  const size_t n = a.rows(), p = a.cols(), q = b.cols();
  Tensor out({n, p + q});
  for (size_t i = 0; i < n; ++i) {
    float* dst = out.row(i);
    const float* ra = a.row(i);
    const float* rb = b.row(i);
    for (size_t j = 0; j < p; ++j) dst[j] = ra[j];
    for (size_t j = 0; j < q; ++j) dst[p + j] = rb[j];
  }
  return out;
}

Tensor SliceCols(const Tensor& x, size_t begin, size_t end) {
  STTR_CHECK_EQ(x.ndim(), 2u);
  STTR_CHECK_LE(begin, end);
  STTR_CHECK_LE(end, x.cols());
  const size_t n = x.rows(), m = end - begin;
  Tensor out({n, m});
  for (size_t i = 0; i < n; ++i) {
    const float* src = x.row(i) + begin;
    float* dst = out.row(i);
    for (size_t j = 0; j < m; ++j) dst[j] = src[j];
  }
  return out;
}

Tensor GatherRows(const Tensor& table, const std::vector<int64_t>& indices) {
  STTR_CHECK_EQ(table.ndim(), 2u);
  const size_t d = table.cols();
  Tensor out({indices.size(), d});
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t r = indices[i];
    STTR_CHECK_GE(r, 0);
    STTR_CHECK_LT(static_cast<size_t>(r), table.rows());
    const float* src = table.row(static_cast<size_t>(r));
    float* dst = out.row(i);
    for (size_t j = 0; j < d; ++j) dst[j] = src[j];
  }
  return out;
}

void ScatterRowsAdd(Tensor& dest, const std::vector<int64_t>& indices,
                    const Tensor& src) {
  STTR_CHECK_EQ(dest.ndim(), 2u);
  STTR_CHECK_EQ(src.ndim(), 2u);
  STTR_CHECK_EQ(src.rows(), indices.size());
  STTR_CHECK_EQ(src.cols(), dest.cols());
  const size_t d = dest.cols();
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t r = indices[i];
    STTR_CHECK_GE(r, 0);
    STTR_CHECK_LT(static_cast<size_t>(r), dest.rows());
    float* dst = dest.row(static_cast<size_t>(r));
    const float* s = src.row(i);
    for (size_t j = 0; j < d; ++j) dst[j] += s[j];
  }
}

Tensor Relu(const Tensor& x) {
  Tensor out = x;
  float* o = out.data();
  for (size_t i = 0, size = out.size(); i < size; ++i) o[i] = ReluScalar(o[i]);
  return out;
}

float SigmoidScalar(float x) { return simd::SigmoidOne(x); }

float LogSigmoid(float x) { return simd::LogSigmoidOne(x); }

Tensor Sigmoid(const Tensor& x) {
  Tensor out = x;
  simd::SigmoidMany(out.data(), out.data(), out.size());
  return out;
}

Tensor TanhT(const Tensor& x) {
  Tensor out = x;
  for (size_t i = 0; i < out.size(); ++i) out[i] = std::tanh(out[i]);
  return out;
}

}  // namespace sttr
