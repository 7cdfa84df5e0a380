/**
 * @file
 * Command-line contract of tools/dcl1run: numeric flags parse in full
 * or the run stops with exit code 1 before any simulation, like every
 * environment knob (common/env.hh). `--cycles=` used to run 0 measured
 * cycles and print all-zero metrics.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <vector>

namespace
{

/** Replace the death-test child with dcl1run @p args. */
void
execDcl1run(std::vector<const char *> args)
{
    args.insert(args.begin(), DCL1RUN_PATH);
    args.push_back(nullptr);
    execv(DCL1RUN_PATH, const_cast<char *const *>(args.data()));
    _exit(127); // exec failed
}

TEST(Dcl1runDeathTest, EmptyCyclesIsRejected)
{
    EXPECT_EXIT(execDcl1run({"--cycles=", "--warmup=10"}),
                ::testing::ExitedWithCode(1), "--cycles: empty value");
}

TEST(Dcl1runDeathTest, TrailingGarbageInCoresIsRejected)
{
    EXPECT_EXIT(execDcl1run({"--cores=8x", "--cycles=100"}),
                ::testing::ExitedWithCode(1),
                "--cores: trailing garbage in '8x'");
}

TEST(Dcl1runDeathTest, EveryPlatformAndBudgetFlagIsStrict)
{
    EXPECT_EXIT(execDcl1run({"--warmup=1e3"}),
                ::testing::ExitedWithCode(1), "--warmup: trailing garbage");
    EXPECT_EXIT(execDcl1run({"--seed=-1"}), ::testing::ExitedWithCode(1),
                "--seed: -1 out of range");
    EXPECT_EXIT(execDcl1run({"--slices=zero"}),
                ::testing::ExitedWithCode(1), "--slices: 'zero' is not");
    EXPECT_EXIT(execDcl1run({"--channels=0"}),
                ::testing::ExitedWithCode(1), "--channels: 0 out of range");
    EXPECT_EXIT(execDcl1run({"--cycles=0"}), ::testing::ExitedWithCode(1),
                "--cycles: 0 out of range");
}

} // anonymous namespace
