#ifndef STTR_TESTS_SCRATCH_DIR_H_
#define STTR_TESTS_SCRATCH_DIR_H_

// The one scratch-directory helper for every test. gtest_discover_tests runs
// each test in its own process, so under `ctest -j` several processes of one
// suite run at the same time; a directory named only after the suite or the
// test would let them wipe each other's files. TestScratchDir() therefore
// names each directory after the process, a per-process counter and the
// running test, and removes it when that test ends (or, for a directory made
// in SetUpTestSuite, when the suite ends). sttr_lint bans direct
// ::testing::TempDir() calls everywhere else.

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace sttr {
namespace internal {

/// Removes tracked scratch directories at the end of the test or suite that
/// made them. gtest owns the listener once appended.
class ScratchDirReaper : public ::testing::EmptyTestEventListener {
 public:
  static ScratchDirReaper& Get() {
    static ScratchDirReaper* const reaper = [] {
      auto* r = new ScratchDirReaper;
      ::testing::UnitTest::GetInstance()->listeners().Append(r);
      return r;
    }();
    return *reaper;
  }

  /// Makes and tracks a fresh directory under the gtest temp dir.
  std::string Make() {
    const auto* unit = ::testing::UnitTest::GetInstance();
    const auto* test = unit->current_test_info();
    const auto* suite = unit->current_test_suite();
    std::string leaf = "global";
    std::vector<std::string>* owner = &program_dirs_;
    if (test != nullptr) {
      leaf = std::string(test->test_suite_name()) + "_" + test->name();
      owner = &test_dirs_;
    } else if (suite != nullptr) {
      leaf = std::string(suite->name()) + "_suite";
      owner = &suite_dirs_;
    }
    std::filesystem::path dir = ::testing::TempDir();
    dir /= "sttr_" + std::to_string(::getpid()) + "_" +
           std::to_string(next_id_++) + "_" + leaf;
    // A crashed earlier process with the same pid may have left it behind.
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    owner->push_back(dir.string());
    return dir.string();
  }

  void OnTestEnd(const ::testing::TestInfo&) override { RemoveAll(test_dirs_); }
  void OnTestSuiteEnd(const ::testing::TestSuite&) override {
    RemoveAll(suite_dirs_);
  }
  void OnTestProgramEnd(const ::testing::UnitTest&) override {
    RemoveAll(program_dirs_);
  }

 private:
  static void RemoveAll(std::vector<std::string>& dirs) {
    std::error_code ec;  // best effort: a leftover dir fails no test
    for (const std::string& dir : dirs) std::filesystem::remove_all(dir, ec);
    dirs.clear();
  }

  size_t next_id_ = 0;
  std::vector<std::string> test_dirs_;
  std::vector<std::string> suite_dirs_;
  std::vector<std::string> program_dirs_;
};

}  // namespace internal

/// A fresh, empty scratch directory, unique to this process, test and call,
/// removed when the calling test (or suite, from SetUpTestSuite) ends.
/// Call it from the test's own thread.
inline std::string TestScratchDir() {
  return internal::ScratchDirReaper::Get().Make();
}

}  // namespace sttr

#endif  // STTR_TESTS_SCRATCH_DIR_H_
