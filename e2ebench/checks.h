// Output checkers. They share no code with the serving path: responses are
// parsed by the small JSON reader below, scores are recomputed one pair at
// a time with StTransRec::Score on a model loaded independently from a
// copy of the checkpoint, and rankings come from a plain full sort (score
// descending, ties to the smaller POI id). Candidate sets come from a
// CandidateIndex the checker builds itself with the served configuration.
#ifndef E2EBENCH_CHECKS_H_
#define E2EBENCH_CHECKS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/st_transrec.h"
#include "data/dataset.h"
#include "serve/candidate_index.h"

namespace e2e {

/// Minimal JSON value: enough for the server's response bodies.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;  ///< string value, or a number's source text
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  const Json* Get(const std::string& key) const;
};

/// Parses a complete JSON document; false (with `error`) on any defect,
/// trailing bytes included.
bool ParseJson(const std::string& text, Json* out, std::string* error);

struct RecommendQuery {
  int64_t user = 0;
  double lat = 0.0;
  double lon = 0.0;
  int64_t city = 0;
  size_t k = 10;

  std::string Target() const;  ///< "/recommend?user=..&lat=..&lon=..&k=.."
};

struct RecommendBody {
  int64_t user = -1;
  int64_t city = -1;
  int64_t k = -1;
  bool cached = false;
  uint64_t model_version = 0;
  std::vector<std::pair<int64_t, double>> results;
};

/// Shape check of one /recommend body: well formed, echoes the query, has
/// exactly k results, no duplicate POI, every POI in the requested city.
bool CheckRecommendShape(const sttr::Dataset& dataset,
                         const RecommendQuery& query, const std::string& body,
                         RecommendBody* parsed, std::string* error);

/// /checkin body: {"accepted": true, "seq": N}. Returns the seq.
bool CheckCheckinBody(const std::string& body, uint64_t* seq,
                      std::string* error);

/// Recomputes a response from scratch against a reference model.
class ReferenceRanker {
 public:
  /// `model` must be fitted (loaded); both must outlive the ranker.
  ReferenceRanker(const sttr::Dataset& dataset,
                  const sttr::serve::CandidateIndex& index,
                  const sttr::StTransRec& model);

  /// Expected top-k for `query`: every candidate scored with Score(), full
  /// sort, score descending, ties to the smaller POI id.
  std::vector<std::pair<int64_t, double>> Expected(
      const RecommendQuery& query) const;

  /// Shape check plus: each returned score equals Score(user, poi) bit for
  /// bit, and the list equals Expected(query).
  bool Check(const RecommendQuery& query, const std::string& body,
             std::string* error) const;

 private:
  const sttr::Dataset& dataset_;
  const sttr::serve::CandidateIndex& index_;
  const sttr::StTransRec& model_;
};

/// Loads the "model" section of a v1 training checkpoint into a freshly
/// Prepare()d model — the way IncrementalTrainer::Init reads a base — so
/// the reference never touches the serving bundle.
std::unique_ptr<sttr::StTransRec> LoadReferenceModel(
    const sttr::Dataset& dataset, const sttr::CrossCitySplit& split,
    const sttr::StTransRecConfig& config, const std::string& checkpoint);

/// The candidate index a checker builds for itself (served configuration).
std::unique_ptr<sttr::serve::CandidateIndex> MakeReferenceIndex(
    const sttr::Dataset& dataset, const sttr::CrossCitySplit& split);

}  // namespace e2e

#endif  // E2EBENCH_CHECKS_H_
