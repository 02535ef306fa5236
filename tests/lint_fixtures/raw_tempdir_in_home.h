// lint-fixture-as: tests/scratch_dir.h
//
// The scratch helper itself is the one place allowed to ask gtest for its
// temp dir; nothing may fire.
#include <string>

#include <gtest/gtest.h>

inline std::string ScratchRoot() { return ::testing::TempDir(); }
