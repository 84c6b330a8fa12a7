/**
 * @file
 * Scratch-file paths for tests that write files.
 */

#ifndef GRAPHABCD_TESTS_TEMP_PATH_HH
#define GRAPHABCD_TESTS_TEMP_PATH_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace graphabcd {

/**
 * @return `name` in the test temp directory, prefixed with this
 * process's id: test binaries of several build trees (the sanitizer
 * legs, a second checkout) run at the same time, and a shared fixed
 * name lets one run truncate or delete another's file mid-test.
 */
inline std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "abcd_" + std::to_string(::getpid()) +
           "_" + name;
}

} // namespace graphabcd

#endif // GRAPHABCD_TESTS_TEMP_PATH_HH
