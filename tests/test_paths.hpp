// Scratch-file paths unique to the running test. ctest runs every
// gtest-discovered test as its own process, in parallel under `ctest -j`, so
// a fixed file name under TempDir() would let two tests overwrite each
// other's outputs. The path carries the suite name, the test name and the
// pid.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace perdnn {

inline std::string unique_temp_path(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info != nullptr ? std::string(info->test_suite_name()) +
                                           "." + info->name()
                                     : "no_test";
  std::replace(test.begin(), test.end(), '/', '_');
  return ::testing::TempDir() + test + "." +
         std::to_string(::getpid()) + "." + name;
}

}  // namespace perdnn
