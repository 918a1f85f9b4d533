/**
 * @file
 * Scratch file paths that concurrent test processes cannot share.
 *
 * ctest runs every test case in its own process, and `ctest -j` runs
 * them side by side: a fixed name under the temp dir (or one suffixed
 * with a per-process counter, which restarts at 1 in every process)
 * lets one test unlink or rebind another's socket or file.
 */

#ifndef EV8_TESTS_TEMP_PATH_HH
#define EV8_TESTS_TEMP_PATH_HH

#include <unistd.h>

#include <atomic>
#include <string>

#include <gtest/gtest.h>

namespace ev8
{

/** TempDir()/<stem>_<pid>_<n><suffix>, unique per process and call. */
inline std::string
uniqueTempPath(const std::string &stem, const std::string &suffix)
{
    static std::atomic<unsigned> counter{0};
    return ::testing::TempDir() + stem + "_" + std::to_string(::getpid())
        + "_" + std::to_string(++counter) + suffix;
}

} // namespace ev8

#endif // EV8_TESTS_TEMP_PATH_HH
