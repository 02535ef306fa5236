#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>

#include "core/checkpoint.h"
#include "util/check.h"
#include "util/fs.h"

namespace e2e {
namespace {

class JsonReader {
 public:
  explicit JsonReader(const std::string& s) : s_(s) {}

  bool Document(Json* out, std::string* error) {
    if (!Value(out, 0)) {
      *error = error_.empty() ? "malformed JSON" : error_;
      return false;
    }
    Ws();
    if (pos_ != s_.size()) {
      *error = "trailing bytes after JSON value";
      return false;
    }
    return true;
  }

 private:
  void Ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r' ||
            s_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool Fail(const std::string& why) {
    if (error_.empty()) error_ = why + " at byte " + std::to_string(pos_);
    return false;
  }
  bool Literal(const char* word) {
    const size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return Fail("bad literal");
    pos_ += n;
    return true;
  }
  bool String(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return Fail("expected string");
    ++pos_;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (pos_ + 1 >= s_.size()) return Fail("bad escape");
        ++pos_;
      }
      out->push_back(s_[pos_++]);
    }
    if (pos_ >= s_.size()) return Fail("unterminated string");
    ++pos_;
    return true;
  }
  bool Number(Json* out) {
    const size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    out->type = Json::Type::kNumber;
    out->text = s_.substr(start, pos_ - start);
    char* end = nullptr;
    out->number = std::strtod(out->text.c_str(), &end);
    if (out->text.empty() || end != out->text.c_str() + out->text.size()) {
      return Fail("bad number");
    }
    return true;
  }
  bool Value(Json* out, int depth) {
    if (depth > 32) return Fail("nesting too deep");
    Ws();
    if (pos_ >= s_.size()) return Fail("unexpected end");
    const char c = s_[pos_];
    if (c == '{') {
      out->type = Json::Type::kObject;
      ++pos_;
      Ws();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      for (;;) {
        Ws();
        std::pair<std::string, Json> field;
        if (!String(&field.first)) return false;
        Ws();
        if (pos_ >= s_.size() || s_[pos_] != ':') return Fail("expected ':'");
        ++pos_;
        if (!Value(&field.second, depth + 1)) return false;
        out->fields.push_back(std::move(field));
        Ws();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      out->type = Json::Type::kArray;
      ++pos_;
      Ws();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      for (;;) {
        out->items.emplace_back();
        if (!Value(&out->items.back(), depth + 1)) return false;
        Ws();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->text);
    }
    if (c == 't' || c == 'f') {
      out->type = Json::Type::kBool;
      out->boolean = c == 't';
      return Literal(c == 't' ? "true" : "false");
    }
    if (c == 'n') {
      out->type = Json::Type::kNull;
      return Literal("null");
    }
    return Number(out);
  }

  const std::string& s_;
  size_t pos_ = 0;
  std::string error_;
};

/// An integer field: a number whose text is all digits (optionally signed).
bool IntField(const Json& obj, const char* key, int64_t* out) {
  const Json* v = obj.Get(key);
  if (v == nullptr || v->type != Json::Type::kNumber) return false;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->text.c_str(), &end, 10);
  if (end != v->text.c_str() + v->text.size()) return false;
  *out = parsed;
  return true;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string Fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const Json* Json::Get(const std::string& key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool ParseJson(const std::string& text, Json* out, std::string* error) {
  *out = Json{};
  return JsonReader(text).Document(out, error);
}

std::string RecommendQuery::Target() const {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "/recommend?user=%lld&lat=%.17g&lon=%.17g&city=%lld&k=%zu",
                static_cast<long long>(user), lat, lon,
                static_cast<long long>(city), k);
  return buf;
}

bool CheckRecommendShape(const sttr::Dataset& dataset,
                         const RecommendQuery& query, const std::string& body,
                         RecommendBody* parsed, std::string* error) {
  Json doc;
  if (!ParseJson(body, &doc, error)) return false;
  if (doc.type != Json::Type::kObject) {
    *error = "body is not a JSON object";
    return false;
  }
  int64_t version = 0;
  if (!IntField(doc, "user", &parsed->user) ||
      !IntField(doc, "city", &parsed->city) ||
      !IntField(doc, "k", &parsed->k) ||
      !IntField(doc, "model_version", &version)) {
    *error = "missing or non-integer user/city/k/model_version";
    return false;
  }
  parsed->model_version = static_cast<uint64_t>(version);
  const Json* cached = doc.Get("cached");
  if (cached == nullptr || cached->type != Json::Type::kBool) {
    *error = "missing boolean \"cached\"";
    return false;
  }
  parsed->cached = cached->boolean;
  if (parsed->user != query.user || parsed->city != query.city ||
      parsed->k != static_cast<int64_t>(query.k)) {
    *error = "body does not echo the query's user/city/k";
    return false;
  }
  const Json* results = doc.Get("results");
  if (results == nullptr || results->type != Json::Type::kArray) {
    *error = "missing \"results\" array";
    return false;
  }
  if (results->items.size() != query.k) {
    *error = "expected " + std::to_string(query.k) + " results, got " +
             std::to_string(results->items.size());
    return false;
  }
  parsed->results.clear();
  std::set<int64_t> seen;
  for (const Json& item : results->items) {
    int64_t poi = -1;
    const Json* score = item.Get("score");
    if (item.type != Json::Type::kObject || !IntField(item, "poi", &poi) ||
        score == nullptr || score->type != Json::Type::kNumber) {
      *error = "malformed result entry";
      return false;
    }
    if (poi < 0 || static_cast<size_t>(poi) >= dataset.num_pois()) {
      *error = "unknown poi " + std::to_string(poi);
      return false;
    }
    if (dataset.poi(static_cast<sttr::PoiId>(poi)).city != query.city) {
      *error = "poi " + std::to_string(poi) + " is outside city " +
               std::to_string(query.city);
      return false;
    }
    if (!seen.insert(poi).second) {
      *error = "duplicate poi " + std::to_string(poi);
      return false;
    }
    parsed->results.emplace_back(poi, score->number);
  }
  return true;
}

bool CheckCheckinBody(const std::string& body, uint64_t* seq,
                      std::string* error) {
  Json doc;
  if (!ParseJson(body, &doc, error)) return false;
  const Json* accepted = doc.Get("accepted");
  int64_t s = 0;
  if (accepted == nullptr || accepted->type != Json::Type::kBool ||
      !accepted->boolean || !IntField(doc, "seq", &s) || s <= 0) {
    *error = "check-in body is not {\"accepted\": true, \"seq\": N>0}";
    return false;
  }
  *seq = static_cast<uint64_t>(s);
  return true;
}

ReferenceRanker::ReferenceRanker(const sttr::Dataset& dataset,
                                 const sttr::serve::CandidateIndex& index,
                                 const sttr::StTransRec& model)
    : dataset_(dataset), index_(index), model_(model) {}

std::vector<std::pair<int64_t, double>> ReferenceRanker::Expected(
    const RecommendQuery& query) const {
  const std::vector<sttr::PoiId> candidates = index_.Candidates(
      static_cast<sttr::CityId>(query.city), {query.lat, query.lon});
  std::vector<std::pair<int64_t, double>> all;
  all.reserve(candidates.size());
  for (sttr::PoiId poi : candidates) {
    all.emplace_back(poi, model_.Score(query.user, poi));
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  all.resize(std::min(all.size(), query.k));
  return all;
}

bool ReferenceRanker::Check(const RecommendQuery& query,
                            const std::string& body,
                            std::string* error) const {
  RecommendBody parsed;
  if (!CheckRecommendShape(dataset_, query, body, &parsed, error)) {
    return false;
  }
  for (const auto& [poi, score] : parsed.results) {
    const double expected = model_.Score(query.user, poi);
    if (!SameBits(score, expected)) {
      *error = "score of poi " + std::to_string(poi) + " is " + Fmt(score) +
               ", Score() gives " + Fmt(expected);
      return false;
    }
  }
  const std::vector<std::pair<int64_t, double>> expected = Expected(query);
  for (size_t i = 0; i < expected.size(); ++i) {
    if (parsed.results[i].first != expected[i].first) {
      *error = "rank " + std::to_string(i) + " is poi " +
               std::to_string(parsed.results[i].first) +
               ", the full sort puts poi " +
               std::to_string(expected[i].first) + " there";
      return false;
    }
  }
  return true;
}

std::unique_ptr<sttr::StTransRec> LoadReferenceModel(
    const sttr::Dataset& dataset, const sttr::CrossCitySplit& split,
    const sttr::StTransRecConfig& config, const std::string& checkpoint) {
  auto model = std::make_unique<sttr::StTransRec>(config);
  STTR_CHECK_OK(model->Prepare(dataset, split));
  sttr::StatusOr<sttr::CheckpointReader> reader =
      sttr::CheckpointReader::Open(*sttr::Env::Default(), checkpoint);
  STTR_CHECK(reader.ok()) << reader.status().ToString();
  sttr::StatusOr<std::string> params = reader->Section("model");
  STTR_CHECK(params.ok()) << params.status().ToString();
  std::istringstream in(*params, std::ios::binary);
  STTR_CHECK_OK(model->Load(in));
  return model;
}

std::unique_ptr<sttr::serve::CandidateIndex> MakeReferenceIndex(
    const sttr::Dataset& dataset, const sttr::CrossCitySplit& split) {
  sttr::serve::CandidateIndexConfig cfg;
  cfg.grid_rows = 16;
  cfg.grid_cols = 16;
  cfg.use_regions = true;
  cfg.min_candidates = 200;
  return std::make_unique<sttr::serve::CandidateIndex>(dataset, &split, cfg);
}

}  // namespace e2e
