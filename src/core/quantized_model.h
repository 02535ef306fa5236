#ifndef STTR_CORE_QUANTIZED_MODEL_H_
#define STTR_CORE_QUANTIZED_MODEL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/st_transrec.h"
#include "eval/protocol.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"
#include "util/fs.h"
#include "util/status.h"

namespace sttr {

/// Post-training quantization knobs.
struct QuantizationConfig {
  /// Scheme of the user/POI embedding tables. The layer-0 MLP weight is
  /// always symmetric: its per-output-column zero points would not cancel
  /// in the dot product the way the activation zero point does.
  QuantScheme embedding_scheme = QuantScheme::kAffine;
  /// Store the fp32 MLP tail as fp16 in the checkpoint (halves its bytes;
  /// relative error <= 2^-11 per weight). The tail is widened back to fp32
  /// at load time — scoring maths is unchanged, only storage shrinks.
  bool fp16_tail = true;
  /// Completed-epoch count recorded in the artifact. -1 takes
  /// model.loss_history().size(), which is correct when quantizing straight
  /// after Fit(); a tool quantizing a *loaded* checkpoint (where the loss
  /// history was not restored) passes the source checkpoint's meta epoch.
  int64_t epoch = -1;
};

/// An int8 serving-only snapshot of a fitted StTransRec.
///
/// What is quantized:
///   - user and POI embedding tables: per-row int8 (tensor/quant.h), the
///     dominant share of model bytes,
///   - the layer-0 MLP weight: per-output-column symmetric int8, stored
///     transposed so each output's column is a contiguous int8 row. Layer 0
///     is where the embeddings enter the tower, so its products can run
///     entirely in int8 (simd::DotI8) straight out of the quantized tables
///     — no dequantize-then-gather step exists at all.
/// The remaining tower (hidden layers 1.. and the output layer) stays fp32:
/// it is tiny next to the tables and keeping it exact confines quantization
/// error to one layer.
///
/// For an affine activation row u with scale s_u and zero point z_u, and
/// symmetric weight column w_j with scale s_j:
///   sum_c x_u[c] * w[c][j]
///     ~ s_u * s_j * (DotI8(q_u, q_wj) - z_u * sum_c q_wj[c])
/// The weight-column sums are precomputed once at quantization time
/// (w0_colsum_*_), so the zero point costs one multiply per output.
///
/// Scoring is deterministic: the int8 dot products are exact integer
/// arithmetic (bit-identical between the AVX2 kernel and the scalar
/// fallback — see tensor/simd.h), and the fp32 tail runs the same fused
/// MatMulBiasInto layers as the fp32 scorer, on the calling thread in its
/// ThreadActivationBuffer slots. Thread-safe after construction (all model
/// state is immutable; the activation buffers are per thread).
class QuantizedModel : public PoiScorer {
 public:
  /// Quantizes a fitted model. When config.fp16_tail is set the tail is
  /// round-tripped through fp16 immediately, so the returned scorer is
  /// bit-identical to one loaded back from its own checkpoint.
  static StatusOr<QuantizedModel> Quantize(const StTransRec& model,
                                           const QuantizationConfig& config = {});

  double Score(UserId user, PoiId poi) const override;
  std::vector<double> ScoreBatch(UserId user,
                                 std::span<const PoiId> pois) const override;
  std::vector<double> ScorePairs(std::span<const UserId> users,
                                 std::span<const PoiId> pois) const override;

  size_t num_users() const { return user_q_.rows; }
  size_t num_pois() const { return poi_q_.rows; }
  size_t embedding_dim() const { return dim_; }
  QuantScheme embedding_scheme() const { return user_q_.scheme; }
  bool fp16_tail() const { return fp16_tail_; }

  /// Completed training epochs of the source model (v1 "meta" semantics).
  uint64_t epoch() const { return epoch_; }

  /// ConfigFingerprint() of the source model, carried through the
  /// checkpoint so a quantized artifact can be matched against the config
  /// and dataset a server is configured for.
  const std::string& config_fingerprint() const { return fingerprint_; }

  /// Resident bytes of the two quantized embedding tables (the number to
  /// compare against fp32's 4 * rows * dim).
  size_t EmbeddingBytes() const;

  /// Approximate resident bytes of the whole scorer (tables + quantized
  /// layer 0 + fp32 tail).
  size_t ApproxBytes() const;

  /// Writes a v2 serving checkpoint (kQuantCheckpointFormatVersion):
  /// sections "meta" and "config" keep their v1 meaning; the model lives in
  /// "quant_user" / "quant_poi" / "quant_mlp0" / "quant_tail". No
  /// optimizer/RNG state — this artifact serves, it does not resume.
  Status WriteCheckpointFile(Env& env, const std::string& path) const;

  /// Rebuilds a scorer from an already-parsed v2 container.
  static StatusOr<QuantizedModel> FromReader(const CheckpointReader& reader);

  /// Open + FromReader.
  static StatusOr<QuantizedModel> LoadFromCheckpoint(Env& env,
                                                     const std::string& path);

 private:
  QuantizedModel() = default;

  std::vector<double> ScoreCore(std::span<const UserId> users,
                                std::span<const PoiId> pois) const;

  /// Shape/consistency checks shared by Quantize() and FromReader().
  Status Validate() const;

  RowQuantizedMatrix user_q_;
  RowQuantizedMatrix poi_q_;

  // Layer 0 of the tower: weight (2d, h0) stored TRANSPOSED as h0 int8 rows
  // of length 2d, symmetric per row (== per output column). colsum_top[j] /
  // colsum_bot[j] are the sums of the first / last d quantized entries of
  // output j's column — the zero-point correction terms.
  RowQuantizedMatrix w0t_;
  std::vector<int32_t> w0_colsum_top_;
  std::vector<int32_t> w0_colsum_bot_;
  std::vector<float> b0_;
  bool layer0_relu_ = true;  // false when hidden_dims is empty (layer 0 IS the output logit)

  // fp32 tail, alternating (in,out) weight and (out) bias, ending with the
  // 1-logit output layer. Empty when hidden_dims is empty.
  std::vector<Tensor> tail_weights_;
  std::vector<Tensor> tail_biases_;

  size_t dim_ = 0;
  uint64_t epoch_ = 0;
  std::string fingerprint_;
  bool fp16_tail_ = false;
};

}  // namespace sttr

#endif  // STTR_CORE_QUANTIZED_MODEL_H_
