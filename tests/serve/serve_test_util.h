#ifndef STTR_TESTS_SERVE_SERVE_TEST_UTIL_H_
#define STTR_TESTS_SERVE_SERVE_TEST_UTIL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../scratch_dir.h"
#include "core/recommender.h"
#include "core/st_transrec.h"
#include "data/split.h"
#include "data/synth/world_generator.h"
#include "serve/candidate_index.h"
#include "util/string_util.h"

namespace sttr::serve {

struct ServeFixture {
  synth::SynthWorld world;
  CrossCitySplit split;
};

inline ServeFixture MakeServeFixture() {
  auto cfg = synth::SynthWorldConfig::FoursquareLike(synth::Scale::kTiny);
  ServeFixture f{synth::GenerateWorld(cfg), {}};
  f.split = MakeCrossCitySplit(f.world.dataset, cfg.target_city);
  return f;
}

/// Small-and-deterministic model config (one in-process worker) that trains
/// on the tiny world in well under a second.
inline StTransRecConfig SmallServeModelConfig() {
  StTransRecConfig cfg;
  cfg.embedding_dim = 8;
  cfg.hidden_dims = {16};
  cfg.num_epochs = 2;
  cfg.batch_size = 32;
  cfg.mmd_batch = 8;
  cfg.num_train_workers = 1;
  return cfg;
}

/// Trains a model, writing checkpoints into `ckpt_dir` when non-empty.
inline std::shared_ptr<StTransRec> TrainSmallModel(
    const ServeFixture& f, const std::string& ckpt_dir = "") {
  StTransRecConfig cfg = SmallServeModelConfig();
  cfg.checkpoint_dir = ckpt_dir;
  auto model = std::make_shared<StTransRec>(cfg);
  STTR_CHECK_OK(model->Fit(f.world.dataset, f.split));
  return model;
}

/// The offline ranking a /recommend response must carry: the index's
/// candidates around `loc`, scored by the trained model, top-K by score.
inline std::vector<std::pair<PoiId, double>> OfflineTopK(
    const StTransRec& model, const CandidateIndex& index, CityId city,
    UserId user, const GeoPoint& loc, size_t k) {
  const std::vector<PoiId> candidates = index.Candidates(city, loc);
  const std::vector<double> scores =
      model.ScoreBatch(user, {candidates.data(), candidates.size()});
  return TopKByScore({candidates.data(), candidates.size()},
                     {scores.data(), scores.size()}, k);
}

/// Status line and headers around a JSON body: the exact bytes the server
/// writes. `status` is the code and reason phrase, e.g. "200 OK".
inline std::string JsonResponse(std::string_view status,
                                std::string_view body,
                                bool keep_alive = true) {
  return StrFormat("HTTP/1.1 %.*s\r\nContent-Type: application/json\r\n"
                   "Content-Length: %zu\r\nConnection: %s\r\n\r\n",
                   static_cast<int>(status.size()), status.data(),
                   body.size(), keep_alive ? "keep-alive" : "close") +
         std::string(body);
}

/// Everything a /recommend response reports besides its ranking.
struct RecommendHead {
  int64_t user = 0;
  int64_t city = 0;
  uint64_t cell = 0;
  size_t k = 0;
  bool cached = false;
  /// Present only on servers with a cold-start scorer.
  std::optional<bool> cold_start;
  uint64_t model_epoch = 0;
  uint64_t model_version = 0;
};

/// The exact 200 /recommend response of a server without an embedding store
/// for `head` and `ranking`; scores print as %.17g, which round-trips a
/// double.
inline std::string RecommendResponse(
    const RecommendHead& head,
    const std::vector<std::pair<PoiId, double>>& ranking) {
  const auto flag = [](bool b) { return b ? "true" : "false"; };
  std::string body = StrFormat(
      "{\"user\": %lld, \"city\": %lld, \"cell\": %llu, \"k\": %zu, "
      "\"cached\": %s",
      static_cast<long long>(head.user), static_cast<long long>(head.city),
      static_cast<unsigned long long>(head.cell), head.k, flag(head.cached));
  if (head.cold_start.has_value()) {
    body += StrFormat(", \"cold_start\": %s", flag(*head.cold_start));
  }
  body += StrFormat(", \"model_epoch\": %llu, \"model_version\": %llu, "
                    "\"results\": [",
                    static_cast<unsigned long long>(head.model_epoch),
                    static_cast<unsigned long long>(head.model_version));
  for (size_t i = 0; i < ranking.size(); ++i) {
    body += StrFormat("%s{\"poi\": %lld, \"score\": %.17g}",
                      i > 0 ? ", " : "",
                      static_cast<long long>(ranking[i].first),
                      ranking[i].second);
  }
  body += "]}";
  return JsonResponse("200 OK", body);
}

/// The exact 200 /healthz response of a server whose snapshot came from
/// `checkpoint` at `epoch`, loaded as reload `version`.
inline std::string HealthzResponse(const std::string& checkpoint,
                                   uint64_t epoch, uint64_t version,
                                   bool keep_alive = true) {
  return JsonResponse(
      "200 OK",
      StrFormat("{\"status\": \"ok\", \"checkpoint\": \"%s\", "
                "\"model_epoch\": %llu, \"model_version\": %llu}",
                checkpoint.c_str(), static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(version)),
      keep_alive);
}

}  // namespace sttr::serve

#endif  // STTR_TESTS_SERVE_SERVE_TEST_UTIL_H_
