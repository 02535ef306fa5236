// lint-fixture-as: tests/core/checkpoint_test.cc
// expect-violation: raw-tempdir
//
// A test building its own path under ::testing::TempDir() shares it with
// every other ctest process of the suite, so `ctest -j` runs wipe each
// other's files. (This comment names the call and must not fire.)
#include <string>

#include <gtest/gtest.h>

std::string OwnDir() {
  return ::testing::TempDir() + "/ckpt";  // violation: raw-tempdir
}
