// Byte-level contract of the serving core: every response — status line,
// headers and body — must equal the bytes pinned here. Responses without
// scores or paths (the parameter-error precedence matrix, unknown paths and
// methods, protocol errors, 408/431, Connection: close) are written out
// literally. Success responses carry %.17g scores and a checkpoint path, so
// their bytes are built by RecommendResponse/HealthzResponse from the
// offline ranking of the trained model and from the serving snapshot; the
// scalar, SIMD and sanitizer builds each check against their own arithmetic.
// Covers the success paths, cache hit/miss flags, keep-alive semantics,
// request timeouts and model hot-reload, plus shutdown under fire.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "serve/batcher.h"
#include "serve/candidate_index.h"
#include "serve/model_bundle.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "serve/stats.h"
#include "serve_test_util.h"
#include "test_http_client.h"
#include "util/check.h"
#include "util/fs.h"
#include "util/string_util.h"

namespace sttr::serve {
namespace {

/// One complete serving stack: bundle + cache + batcher + server.
struct Side {
  ServeStats stats;
  std::unique_ptr<ModelBundle> bundle;
  std::unique_ptr<ResultCache> cache;
  std::unique_ptr<ScoreBatcher> batcher;
  std::unique_ptr<RecommendServer> server;

  ~Side() {
    if (server != nullptr) server->Shutdown();
    if (batcher != nullptr) batcher->Stop();
  }
};

std::string Request(const std::string& method, const std::string& target) {
  return method + " " + target + " HTTP/1.1\r\nHost: t\r\n\r\n";
}

/// A /recommend target and the point the server parses out of it.
struct Query {
  std::string target;
  GeoPoint loc;
};

class EquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new ServeFixture(MakeServeFixture());
    ckpt_dir_ = new std::string(TestScratchDir());
    model_ = new std::shared_ptr<StTransRec>(
        TrainSmallModel(*fixture_, *ckpt_dir_));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete ckpt_dir_;
    delete fixture_;
    model_ = nullptr;
    ckpt_dir_ = nullptr;
    fixture_ = nullptr;
  }

  void SetUp() override {
    index_ = std::make_unique<CandidateIndex>(fixture_->world.dataset,
                                              &fixture_->split,
                                              CandidateIndexConfig{});
    side_ = MakeSide();
  }

  void TearDown() override { side_.reset(); }

  std::unique_ptr<Side> MakeSide(
      std::chrono::milliseconds timeout = std::chrono::milliseconds(5000)) {
    auto side = std::make_unique<Side>();
    ModelBundleConfig bundle_config;
    bundle_config.checkpoint_dir = *ckpt_dir_;
    bundle_config.model = SmallServeModelConfig();
    side->bundle = std::make_unique<ModelBundle>(
        fixture_->world.dataset, fixture_->split, bundle_config);
    STTR_CHECK_OK(side->bundle->LoadInitial());
    side->cache = std::make_unique<ResultCache>(ResultCacheConfig{});
    ResultCache* cache = side->cache.get();
    side->bundle->AddReloadListener(
        [cache](const ModelSnapshot&) { cache->InvalidateAll(); });
    side->batcher =
        std::make_unique<ScoreBatcher>(BatcherConfig{}, &side->stats);
    side->batcher->Start();
    ServerConfig config;
    config.num_workers = 4;
    config.request_timeout = timeout;
    config.default_city = fixture_->split.target_city;
    side->server = std::make_unique<RecommendServer>(
        config, fixture_->world.dataset, side->bundle.get(), index_.get(),
        side->batcher.get(), side->cache.get(), &side->stats);
    STTR_CHECK_OK(side->server->Start());
    return side;
  }

  /// A /recommend target at the i-th target-city POI.
  Query RecommendQuery(UserId user, size_t poi_index, size_t k,
                       const std::string& extra = "") {
    const auto& pois =
        fixture_->world.dataset.PoisInCity(fixture_->split.target_city);
    const GeoPoint poi =
        fixture_->world.dataset.poi(pois[poi_index % pois.size()]).location;
    const std::string lat = StrFormat("%.8f", poi.lat);
    const std::string lon = StrFormat("%.8f", poi.lon);
    return {"/recommend?user=" + std::to_string(user) + "&lat=" + lat +
                "&lon=" + lon + "&k=" + std::to_string(k) + extra,
            {std::strtod(lat.c_str(), nullptr),
             std::strtod(lon.c_str(), nullptr)}};
  }

  /// The bytes of a /recommend for (user, loc, k) in the target city. The
  /// "cached" flag follows the keys earlier cache-using requests filled.
  std::string ExpectRecommend(UserId user, const GeoPoint& loc, size_t k,
                              bool use_cache = true) {
    const CityId city = fixture_->split.target_city;
    const std::shared_ptr<const ModelSnapshot> snapshot =
        side_->bundle->snapshot();
    RecommendHead head;
    head.user = user;
    head.city = city;
    head.cell = index_->CellOf(city, loc);
    head.k = k;
    head.cached = use_cache && !filled_.emplace(user, head.cell, k).second;
    head.model_epoch = snapshot->epoch;
    head.model_version = snapshot->version;
    return RecommendResponse(
        head, OfflineTopK(**model_, *index_, city, user, loc, k));
  }

  std::string ExpectHealthz(bool keep_alive = true) {
    const std::shared_ptr<const ModelSnapshot> snapshot =
        side_->bundle->snapshot();
    return HealthzResponse(snapshot->checkpoint_path, snapshot->epoch,
                           snapshot->version, keep_alive);
  }

  static ServeFixture* fixture_;
  static std::string* ckpt_dir_;
  static std::shared_ptr<StTransRec>* model_;

  std::unique_ptr<CandidateIndex> index_;
  std::unique_ptr<Side> side_;
  /// (user, cell, k) keys the server's result cache holds.
  std::set<std::tuple<UserId, uint64_t, size_t>> filled_;
};

ServeFixture* EquivalenceTest::fixture_ = nullptr;
std::string* EquivalenceTest::ckpt_dir_ = nullptr;
std::shared_ptr<StTransRec>* EquivalenceTest::model_ = nullptr;

/// {raw request, raw response} for every keep-alive error the router
/// answers: one row per validation branch, in the order the branches are
/// checked (the order is part of the contract), plus precedence, unknown
/// paths and unsupported methods.
const std::vector<std::pair<std::string, std::string>> kErrorMatrix = {
    {"GET /recommend HTTP/1.1\r\nHost: t\r\n\r\n",
     "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
     "Content-Length: 38\r\nConnection: keep-alive\r\n\r\n"
     R"({"error": "missing or invalid 'user'"})"},
    {"GET /recommend?lat=1&lon=1 HTTP/1.1\r\nHost: t\r\n\r\n",
     "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
     "Content-Length: 38\r\nConnection: keep-alive\r\n\r\n"
     R"({"error": "missing or invalid 'user'"})"},
    {"GET /recommend?user=zzz&lat=1&lon=1 HTTP/1.1\r\nHost: t\r\n\r\n",
     "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
     "Content-Length: 38\r\nConnection: keep-alive\r\n\r\n"
     R"({"error": "missing or invalid 'user'"})"},
    {"GET /recommend?user=-3&lat=1&lon=1 HTTP/1.1\r\nHost: t\r\n\r\n",
     "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
     "Content-Length: 38\r\nConnection: keep-alive\r\n\r\n"
     R"({"error": "missing or invalid 'user'"})"},
    {"GET /recommend?user=99999999&lat=1&lon=1 HTTP/1.1\r\nHost: t\r\n\r\n",
     "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
     "Content-Length: 38\r\nConnection: keep-alive\r\n\r\n"
     R"({"error": "missing or invalid 'user'"})"},
    {"GET /recommend?user=1 HTTP/1.1\r\nHost: t\r\n\r\n",
     "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
     "Content-Length: 43\r\nConnection: keep-alive\r\n\r\n"
     R"({"error": "missing or invalid 'lat'/'lon'"})"},
    {"GET /recommend?user=1&lat=abc&lon=1 HTTP/1.1\r\nHost: t\r\n\r\n",
     "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
     "Content-Length: 43\r\nConnection: keep-alive\r\n\r\n"
     R"({"error": "missing or invalid 'lat'/'lon'"})"},
    {"GET /recommend?user=1&lat=1&lon= HTTP/1.1\r\nHost: t\r\n\r\n",
     "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
     "Content-Length: 43\r\nConnection: keep-alive\r\n\r\n"
     R"({"error": "missing or invalid 'lat'/'lon'"})"},
    {"GET /recommend?user=1&lat=1&lon=1&city=zz HTTP/1.1\r\nHost: t\r\n\r\n",
     "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
     "Content-Length: 27\r\nConnection: keep-alive\r\n\r\n"
     R"({"error": "invalid 'city'"})"},
    {"GET /recommend?user=1&lat=1&lon=1&city=-1 HTTP/1.1\r\nHost: t\r\n\r\n",
     "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
     "Content-Length: 27\r\nConnection: keep-alive\r\n\r\n"
     R"({"error": "invalid 'city'"})"},
    {"GET /recommend?user=1&lat=1&lon=1&city=99 HTTP/1.1\r\nHost: t\r\n\r\n",
     "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
     "Content-Length: 27\r\nConnection: keep-alive\r\n\r\n"
     R"({"error": "invalid 'city'"})"},
    {"GET /recommend?user=1&lat=1&lon=1&k=0 HTTP/1.1\r\nHost: t\r\n\r\n",
     "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
     "Content-Length: 24\r\nConnection: keep-alive\r\n\r\n"
     R"({"error": "invalid 'k'"})"},
    {"GET /recommend?user=1&lat=1&lon=1&k=-2 HTTP/1.1\r\nHost: t\r\n\r\n",
     "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
     "Content-Length: 24\r\nConnection: keep-alive\r\n\r\n"
     R"({"error": "invalid 'k'"})"},
    {"GET /recommend?user=1&lat=1&lon=1&k=100000 HTTP/1.1\r\nHost: t\r\n\r\n",
     "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
     "Content-Length: 24\r\nConnection: keep-alive\r\n\r\n"
     R"({"error": "invalid 'k'"})"},
    {"GET /recommend?user=1&lat=1&lon=1&k=abc HTTP/1.1\r\nHost: t\r\n\r\n",
     "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
     "Content-Length: 24\r\nConnection: keep-alive\r\n\r\n"
     R"({"error": "invalid 'k'"})"},
    // Precedence: the user error wins over the lat and k errors.
    {"GET /recommend?user=zzz&lat=abc&lon=1&k=0 HTTP/1.1\r\nHost: t\r\n\r\n",
     "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
     "Content-Length: 38\r\nConnection: keep-alive\r\n\r\n"
     R"({"error": "missing or invalid 'user'"})"},
    {"GET /nosuchpath HTTP/1.1\r\nHost: t\r\n\r\n",
     "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n"
     "Content-Length: 25\r\nConnection: keep-alive\r\n\r\n"
     R"({"error": "unknown path"})"},
    {"GET / HTTP/1.1\r\nHost: t\r\n\r\n",
     "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n"
     "Content-Length: 25\r\nConnection: keep-alive\r\n\r\n"
     R"({"error": "unknown path"})"},
    // Only GET and POST are routed; others are 400 and stay keep-alive.
    {"DELETE /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
     "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
     "Content-Length: 31\r\nConnection: keep-alive\r\n\r\n"
     R"({"error": "unsupported method"})"},
};

TEST_F(EquivalenceTest, AllEndpointsAndErrorsAreByteIdentical) {
  TestHttpClient client(side_->server->port());
  const auto expect = [&](const std::string& raw, const std::string& want) {
    EXPECT_EQ(client.Roundtrip(raw).raw, want) << "request: " << raw;
  };

  // Success paths: cold, cached (second hit of the same key), nocache,
  // varying user/location/k.
  for (UserId user = 0; user < 4; ++user) {
    const size_t k = 5 + static_cast<size_t>(user);
    const size_t at = static_cast<size_t>(user) * 3;
    const Query q = RecommendQuery(user, at, k);
    expect(Request("GET", q.target), ExpectRecommend(user, q.loc, k));
    expect(Request("GET", q.target), ExpectRecommend(user, q.loc, k));
    const Query bypass = RecommendQuery(user, at, k, "&nocache=1");
    expect(Request("GET", bypass.target),
           ExpectRecommend(user, bypass.loc, k, /*use_cache=*/false));
  }
  // Default k and city.
  expect(Request("GET", "/recommend?user=1&lat=0.5&lon=0.5"),
         ExpectRecommend(1, {0.5, 0.5}, 10));
  // The first occurrence of a duplicated parameter wins.
  expect(Request("GET", "/recommend?user=1&user=zzz&lat=1&lon=1"),
         ExpectRecommend(1, {1.0, 1.0}, 10));
  expect(Request("GET", "/recommend?user=2&lat=1&lat=abc&lon=1&k=5&k=0"),
         ExpectRecommend(2, {1.0, 1.0}, 5));
  // nocache=0 means "do use the cache".
  const Query nocache0 = RecommendQuery(2, 6, 7, "&nocache=0");
  expect(Request("GET", nocache0.target), ExpectRecommend(2, nocache0.loc, 7));

  for (const auto& [raw, want] : kErrorMatrix) expect(raw, want);

  // POST is routed like GET, and the connection is still usable after the
  // errors above.
  expect(Request("GET", "/healthz"), ExpectHealthz());
  expect(Request("POST", "/healthz"), ExpectHealthz());
}

TEST_F(EquivalenceTest, ProtocolErrorsAreByteIdenticalAndClose) {
  // A malformed request line is answered 400 and closes the connection.
  const std::string malformed =
      "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
      "Content-Length: 35\r\nConnection: close\r\n\r\n"
      R"({"error": "malformed request line"})";
  for (const std::string raw :
       {"NONSENSE\r\n\r\n", "GET /\r\n\r\n", "GET / toomany HTTP/1.1\r\n\r\n",
        "GET / SPDY/3\r\n\r\n"}) {
    TestHttpClient client(side_->server->port());
    EXPECT_EQ(client.Roundtrip(raw).raw, malformed) << raw;
    EXPECT_TRUE(client.WaitForClose());
  }
  // An oversized head without a terminator: 431, then close.
  TestHttpClient client(side_->server->port());
  EXPECT_EQ(client
                .Roundtrip("GET / HTTP/1.1\r\nX-Junk: " +
                           std::string(20'000, 'a'))
                .raw,
            "HTTP/1.1 431 Request Header Fields Too Large\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: 30\r\nConnection: close\r\n\r\n"
            R"({"error": "request too large"})");
  EXPECT_TRUE(client.WaitForClose());
}

TEST_F(EquivalenceTest, ConnectionCloseAndTimeoutsAreByteIdentical) {
  {
    TestHttpClient client(side_->server->port());
    EXPECT_EQ(client
                  .Roundtrip(
                      "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                  .raw,
              ExpectHealthz(/*keep_alive=*/false));
    EXPECT_TRUE(client.WaitForClose());
  }
  {
    // A stranded partial request gets a 408 once the read timeout fires.
    auto fast = MakeSide(std::chrono::milliseconds(200));
    TestHttpClient client(fast->server->port());
    EXPECT_EQ(client.Roundtrip("GET /part HTTP/1.1\r\nHost:").raw,
              "HTTP/1.1 408 Request Timeout\r\n"
              "Content-Type: application/json\r\n"
              "Content-Length: 28\r\nConnection: close\r\n\r\n"
              R"({"error": "request timeout"})");
    EXPECT_TRUE(client.WaitForClose());
  }
}

TEST_F(EquivalenceTest, HotReloadServesTheNewSnapshotsBytes) {
  TestHttpClient client(side_->server->port());
  const auto batch = [&](const char* phase) {
    for (UserId user = 0; user < 3; ++user) {
      const Query q = RecommendQuery(user, static_cast<size_t>(user) * 5, 8);
      EXPECT_EQ(client.Roundtrip(Request("GET", q.target)).raw,
                ExpectRecommend(user, q.loc, 8))
          << phase << ": " << q.target;
    }
    EXPECT_EQ(client.Roundtrip(Request("GET", "/healthz")).raw,
              ExpectHealthz())
        << phase;
  };

  batch("before reload");
  EXPECT_EQ(side_->bundle->snapshot()->version, 1u);

  // The trainer lands a newer checkpoint; the bundle swaps it in at an
  // explicit barrier (the watcher would do the same asynchronously), which
  // also invalidates the cache via the reload listener.
  const auto latest = FindLatestValidCheckpoint(*Env::Default(), *ckpt_dir_);
  STTR_CHECK_OK(latest.status());
  const std::filesystem::path newer =
      std::filesystem::path(*ckpt_dir_) / CheckpointFileName(/*epoch=*/7);
  std::filesystem::copy_file(*latest, newer);
  auto swapped = side_->bundle->ReloadIfNewer();
  STTR_CHECK_OK(swapped.status());
  ASSERT_TRUE(*swapped);
  filled_.clear();
  EXPECT_EQ(side_->bundle->snapshot()->version, 2u);
  EXPECT_EQ(side_->bundle->snapshot()->checkpoint_path, newer.string());

  batch("after reload");
}

TEST_F(EquivalenceTest, ShutdownUnderConcurrentTrafficIsGraceful) {
  // Robustness: shutting the server down while clients hammer it must
  // never crash, deadlock, or hand out a torn response — every response
  // that does arrive is complete and well-formed.
  constexpr int kClients = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> clients;
  const int port = side_->server->port();
  const std::string raw = Request("GET", RecommendQuery(1, 2, 5).target);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        // Tolerant client: the server may close at any point; the only
        // failure is a *partial* response (headers promising more body
        // bytes than arrive before EOF).
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) continue;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<uint16_t>(port));
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) != 0 ||
            ::send(fd, raw.data(), raw.size(), MSG_NOSIGNAL) !=
                static_cast<ssize_t>(raw.size())) {
          ::close(fd);
          continue;
        }
        std::string buf;
        char chunk[4096];
        ssize_t n;
        while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
          buf.append(chunk, static_cast<size_t>(n));
        }
        ::close(fd);
        const size_t head_end = buf.find("\r\n\r\n");
        if (buf.empty()) continue;  // rejected before a response: fine
        if (head_end == std::string::npos) {
          torn.fetch_add(1);
          continue;
        }
        const size_t cl = buf.find("Content-Length: ");
        if (cl == std::string::npos ||
            buf.size() - head_end - 4 != std::strtoull(buf.c_str() + cl + 16,
                                                       nullptr, 10)) {
          torn.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  side_->server->Shutdown();
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_FALSE(side_->server->running());
}

}  // namespace
}  // namespace sttr::serve
