// Naive-vs-blocked GEMM throughput on the shapes the inference and training
// paths actually run (plus the canonical 512^3), and the whole MLP tower's
// InferenceForward (fused bias+ReLU layers) against the same tower run as
// separate MatMul, AddRowBroadcast and Relu calls. Everything runs on the
// calling thread. Prints a table and, with --out=<prefix>, emits
// <prefix>micro_matmul.json for tools/summarize_bench.py.
//
// Flags (on top of the shared bench flags): --reps=N timing repetitions
// (best-of).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench/bench_util.h"
#include "nn/layers.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace sttr::bench {
namespace {

/// The seed repository's GEMM: plain i-k-j with no blocking. Kept verbatim
/// as the baseline the speedup criterion is defined against.
Tensor SeedMatMul(const Tensor& a, const Tensor& b) {
  const size_t n = a.rows(), k = a.cols(), m = b.cols();
  STTR_CHECK_EQ(k, b.rows());
  Tensor c({n, m});
  for (size_t i = 0; i < n; ++i) {
    const float* arow = a.row(i);
    float* crow = c.row(i);
    for (size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b.row(kk);
      for (size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

/// The mlp_tower rows' baseline: the same tower as separate MatMul,
/// AddRowBroadcast and Relu calls, one fresh tensor each.
Tensor UnfusedTower(const nn::Mlp& mlp, const Tensor& x) {
  const std::vector<ag::Variable> params = mlp.Parameters();
  Tensor h = x;
  for (size_t p = 0; p + 2 < params.size(); p += 2) {
    h = Relu(AddRowBroadcast(MatMul(h, params[p].value()),
                             params[p + 1].value()));
  }
  return AddRowBroadcast(MatMul(h, params[params.size() - 2].value()),
                         params.back().value());
}

struct GemmResult {
  std::string kernel;
  size_t n, k, m;
  double seconds = 0.0;
  double gflops = 0.0;
  // Name of the row this one is compared against, and the ratio.
  std::string baseline = "seed";
  double speedup = 1.0;
};

template <typename Fn>
double BestOf(size_t reps, const Fn& fn) {
  double best = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.ElapsedSeconds());
  }
  return best;
}

void AppendJson(std::ostringstream& json, const GemmResult& r, bool first) {
  if (!first) json << ",\n";
  json << "    {\"kernel\": \"" << r.kernel << "\", \"n\": " << r.n
       << ", \"k\": " << r.k << ", \"m\": " << r.m
       << ", \"seconds\": " << r.seconds << ", \"gflops\": " << r.gflops
       << ", \"speedup_vs_" << r.baseline << "\": " << r.speedup << "}";
}

void Report(std::ostringstream& json, const GemmResult& r, bool* first) {
  std::printf("%-12s %5zu %5zu %5zu %10.6f %12.2f %8.2fx vs %s\n",
              r.kernel.c_str(), r.n, r.k, r.m, r.seconds, r.gflops, r.speedup,
              r.baseline.c_str());
  AppendJson(json, r, *first);
  *first = false;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  STTR_CHECK_OK(flags.Parse(argc, argv));
  const BenchOptions opts = BenchOptions::Parse(argc, argv);
  const size_t reps = static_cast<size_t>(flags.GetInt("reps", 5));

  struct Shape {
    size_t n, k, m;
  };
  // 512^3 is the acceptance shape; the others are the MLP tower's first
  // layer on a ~100-candidate eval batch and a training-sized batch.
  const std::vector<Shape> shapes = {
      {106, 128, 128}, {640, 128, 128}, {256, 256, 256}, {512, 512, 512}};

  std::cout << "[micro_matmul] reps=" << reps << "\n";
  std::cout << "kernel          n     k     m    seconds      GFLOP/s  speedup\n";

  std::ostringstream json;
  json << "{\n  \"bench\": \"micro_matmul\",\n  \"results\": [\n";
  bool first = true;
  Rng rng(opts.seed == 0 ? 42 : opts.seed);
  // The volatile sink keeps the optimizer from discarding the products.
  volatile float sink = 0.0f;
  for (const Shape& s : shapes) {
    const Tensor a = Tensor::RandomNormal({s.n, s.k}, rng);
    const Tensor b = Tensor::RandomNormal({s.k, s.m}, rng);
    const double flops = 2.0 * static_cast<double>(s.n) *
                         static_cast<double>(s.k) * static_cast<double>(s.m);

    // Keep the comparison honest: both kernels must agree.
    STTR_CHECK(MatMul(a, b).AllClose(SeedMatMul(a, b), 1e-3, 1e-4));

    const double t_seed = BestOf(reps, [&] { sink = SeedMatMul(a, b)[0]; });
    const double t_blocked = BestOf(reps, [&] { sink = MatMul(a, b)[0]; });
    Report(json, {"seed_naive", s.n, s.k, s.m, t_seed, flops / t_seed / 1e9},
           &first);
    Report(json,
           {"blocked", s.n, s.k, s.m, t_blocked, flops / t_blocked / 1e9,
            "seed", t_seed / t_blocked},
           &first);
  }

  // The serving tower (paper Foursquare architecture, 64-d embeddings):
  // 351 rows is one /recommend miss's candidates, 4096 a large offline
  // batch. Biases are random so the fused ReLU sees both signs.
  const size_t input_dim = 128;
  const std::vector<size_t> dims = {128, 64, 32, 16};
  nn::Mlp mlp(input_dim, dims, 0.0f, rng);
  for (ag::Variable& p : mlp.Parameters()) {
    if (p.value().ndim() == 1) {
      p.mutable_value() = Tensor::RandomNormal(p.value().shape(), rng);
    }
  }
  double tower_macs = 0.0;
  size_t prev = input_dim;
  for (const size_t width : dims) {
    tower_macs += static_cast<double>(prev * width);
    prev = width;
  }
  tower_macs += static_cast<double>(prev);
  for (const size_t rows : {size_t{351}, size_t{4096}}) {
    const Tensor x = Tensor::RandomNormal({rows, input_dim}, rng);
    STTR_CHECK(mlp.InferenceForward(x).AllClose(UnfusedTower(mlp, x), 0, 0));
    const double flops = 2.0 * tower_macs * static_cast<double>(rows);
    const double t_unfused =
        BestOf(reps, [&] { sink = UnfusedTower(mlp, x)[0]; });
    const double t_fused =
        BestOf(reps, [&] { sink = mlp.InferenceForward(x)[0]; });
    Report(json,
           {"mlp_unfused", rows, input_dim, 1, t_unfused,
            flops / t_unfused / 1e9, "mlp_unfused"},
           &first);
    Report(json,
           {"mlp_tower", rows, input_dim, 1, t_fused, flops / t_fused / 1e9,
            "mlp_unfused", t_unfused / t_fused},
           &first);
  }
  (void)sink;
  json << "\n  ]\n}\n";

  if (!opts.out_prefix.empty()) {
    const std::string path = opts.out_prefix + "micro_matmul.json";
    std::ofstream out(path);
    out << json.str();
    std::cout << "wrote " << path << "\n";
  } else {
    std::cout << json.str();
  }
  return 0;
}

}  // namespace
}  // namespace sttr::bench

int main(int argc, char** argv) { return sttr::bench::Main(argc, argv); }
