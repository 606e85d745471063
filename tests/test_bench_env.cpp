/**
 * @file
 * Tests for the environment edge of the benches and golden tests
 * (bench/bench_util.hpp): ERMS_RUNNER_THREADS and ERMS_SHARDS are
 * parsed strictly into RunnerOptions and a shard count, and anything
 * but a whole decimal integer in range throws instead of silently
 * becoming a different experiment. The library itself reads no
 * environment (ParallelRunner.DefaultIgnoresEnvironment).
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "runner/parallel_runner.hpp"

namespace erms {
namespace {

using bench::runnerOptionsFromEnv;
using bench::shardsRequested;

TEST(BenchEnv, RunnerThreadsReadsEnvironment)
{
    ASSERT_EQ(setenv("ERMS_RUNNER_THREADS", "2", 1), 0);
    EXPECT_EQ(runnerOptionsFromEnv().workers, 2);
    EXPECT_EQ(ParallelRunner(runnerOptionsFromEnv()).workerCount(), 2);
    // Anything but a whole positive decimal integer is an error, never
    // a silent fallback to the hardware count.
    for (const char *bad : {"not-a-number", "abc", "2x", "0", "-3", "+2",
                            " 2", "1.5", "99999999999"}) {
        ASSERT_EQ(setenv("ERMS_RUNNER_THREADS", bad, 1), 0);
        EXPECT_THROW(runnerOptionsFromEnv(), ErmsError) << bad;
        EXPECT_EQ(resolveWorkerCount(4), 4) << bad; // explicit request
    }
    // Unset or empty keeps the hardware default.
    ASSERT_EQ(setenv("ERMS_RUNNER_THREADS", "", 1), 0);
    EXPECT_EQ(runnerOptionsFromEnv().workers, 0);
    EXPECT_GE(ParallelRunner(runnerOptionsFromEnv()).workerCount(), 1);
    ASSERT_EQ(unsetenv("ERMS_RUNNER_THREADS"), 0);
    EXPECT_EQ(runnerOptionsFromEnv().workers, 0);
    EXPECT_GE(ParallelRunner(runnerOptionsFromEnv()).workerCount(), 1);
}

TEST(BenchEnv, ShardsRequestedReadsEnvironment)
{
    unsetenv("ERMS_SHARDS");
    EXPECT_EQ(shardsRequested(), 0);
    setenv("ERMS_SHARDS", "", 1);
    EXPECT_EQ(shardsRequested(), 0);
    setenv("ERMS_SHARDS", "4", 1);
    EXPECT_EQ(shardsRequested(), 4);
    setenv("ERMS_SHARDS", "0", 1);
    EXPECT_EQ(shardsRequested(), 0); // explicit off
    // Anything but a whole non-negative decimal integer is an error,
    // never a silent fallback to unsharded execution.
    for (const char *bad : {"garbage", "x", "2x", "-1", "+2", " 2", "2 ",
                            "1.5", "99999999999"}) {
        setenv("ERMS_SHARDS", bad, 1);
        EXPECT_THROW(shardsRequested(), ErmsError) << bad;
    }
    unsetenv("ERMS_SHARDS");
}

} // namespace
} // namespace erms
