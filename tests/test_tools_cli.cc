/**
 * @file
 * The command-line tools' option tables (tools/cli.hh): bare and
 * valued entries, strict numbers, unknown options, generated --help;
 * then the built dcl1serve and dcl1sweep, exec'd, stop with exit code
 * 1 before simulating when a flag is malformed.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <vector>

#include "exec/crash_record.hh"
#include "exec/exit_codes.hh"
#include "tools/cli.hh"

namespace dcl1::cli
{
namespace
{

/** Parse @p args (argv[0] supplied) through @p flags. */
bool
parse(Flags &flags, std::vector<const char *> args)
{
    args.insert(args.begin(), "tool");
    return flags.parse(static_cast<int>(args.size()), args.data());
}

TEST(ToolsCli, BareAndValuedEntriesShareAName)
{
    std::string trace_out;
    std::string replay;
    Flags f("probe");
    f.bare("--trace", "export", [&] { trace_out = "trace.json"; });
    f.text("--trace=FILE", "replay", replay);

    ASSERT_TRUE(parse(f, {"--trace"}));
    EXPECT_EQ(trace_out, "trace.json");
    EXPECT_EQ(replay, "");

    trace_out.clear();
    ASSERT_TRUE(parse(f, {"--trace=my.trace"}));
    EXPECT_EQ(trace_out, "");
    EXPECT_EQ(replay, "my.trace");
}

TEST(ToolsCli, EntriesApplyInCommandLineOrder)
{
    std::uint32_t cores = 80;
    std::vector<std::string> apps;
    bool drain = false;
    Flags f("probe");
    f.integer("--cores=N", "cores", cores, 1, kMaxU32);
    f.list("--apps=A,B", "apps", apps);
    f.flag("--drain", "drain", drain);

    ASSERT_TRUE(parse(f, {"--cores=4", "--apps=a,,b,", "--cores=8",
                          "--drain"}));
    EXPECT_EQ(cores, 8u);
    EXPECT_EQ(apps, (std::vector<std::string>{"a", "b"}));
    EXPECT_TRUE(drain);
}

TEST(ToolsCli, IntegerBoundsAreInclusive)
{
    int n = 0;
    Flags f("probe");
    f.integer("--n=N", "n", n, 1, 10);
    ASSERT_TRUE(parse(f, {"--n=10"}));
    EXPECT_EQ(n, 10);
    ASSERT_TRUE(parse(f, {"--n=1"}));
    EXPECT_EQ(n, 1);
}

TEST(ToolsCliDeathTest, IntegerOutsideItsBoundsIsFatal)
{
    int n = 0;
    Flags f("probe");
    f.integer("--n=N", "n", n, 1, 10);
    EXPECT_EXIT(parse(f, {"--n=0"}), ::testing::ExitedWithCode(1),
                "--n: 0 out of range \\[1, 10\\]");
    EXPECT_EXIT(parse(f, {"--n=11"}), ::testing::ExitedWithCode(1),
                "--n: 11 out of range");
    EXPECT_EXIT(parse(f, {"--n=5x"}), ::testing::ExitedWithCode(1),
                "--n: trailing garbage in '5x'");
    EXPECT_EXIT(parse(f, {"--n="}), ::testing::ExitedWithCode(1),
                "--n: empty value");
}

TEST(ToolsCliDeathTest, BoundsWiderThanTheTargetPanic)
{
    std::uint32_t n = 0;
    Flags f("probe");
    EXPECT_DEATH(f.integer("--n=N", "n", n, 0, kMaxI64),
                 "option --n=N: bounds exceed its target type");
}

TEST(ToolsCli, RealParsesFiniteValuesInRange)
{
    double x = 1.0;
    Flags f("probe");
    f.real("--x=X", "x", x, 0.0, kMaxReal);
    ASSERT_TRUE(parse(f, {"--x=0.25"}));
    EXPECT_EQ(x, 0.25);
    ASSERT_TRUE(parse(f, {"--x=2e3"}));
    EXPECT_EQ(x, 2000.0);
    ASSERT_TRUE(parse(f, {"--x=0"}));
    EXPECT_EQ(x, 0.0);
}

TEST(ToolsCliDeathTest, NonFiniteOrMalformedRealIsFatal)
{
    for (const char *text : {"nan", "NAN", "inf", "-infinity", "1e999"})
        EXPECT_EXIT(parseReal("--x", text, 0.0, kMaxReal),
                    ::testing::ExitedWithCode(1),
                    "--x: '.*' is not a finite number")
            << text;
    EXPECT_EXIT(parseReal("--x", "", 0.0, 1.0),
                ::testing::ExitedWithCode(1), "--x: empty value");
    EXPECT_EXIT(parseReal("--x", "fast", 0.0, 1.0),
                ::testing::ExitedWithCode(1), "--x: 'fast' is not a number");
    EXPECT_EXIT(parseReal("--x", "0.5s", 0.0, 1.0),
                ::testing::ExitedWithCode(1),
                "--x: trailing garbage in '0.5s'");
    EXPECT_EXIT(parseReal("--x", "-1", 0.0, 1.0),
                ::testing::ExitedWithCode(1), "--x: -1 out of range");
}

TEST(ToolsCliDeathTest, UnknownOptionIsFatal)
{
    bool drain = false;
    std::string out;
    Flags f("probe");
    f.flag("--drain", "drain", drain);
    f.text("--out=FILE", "out", out);
    EXPECT_EXIT(parse(f, {"--bogus"}), ::testing::ExitedWithCode(1),
                "unknown option '--bogus'");
    // A bare entry has no valued form, and a valued entry no bare one.
    EXPECT_EXIT(parse(f, {"--drain=1"}), ::testing::ExitedWithCode(1),
                "unknown option '--drain=1'");
    EXPECT_EXIT(parse(f, {"--out"}), ::testing::ExitedWithCode(1),
                "unknown option '--out'");
    EXPECT_EXIT(parse(f, {"out=x"}), ::testing::ExitedWithCode(1),
                "unknown option 'out=x'");
}

TEST(ToolsCliDeathTest, DeclaringAnEntryTwicePanics)
{
    bool a = false;
    Flags f("probe");
    f.flag("--a", "a", a);
    EXPECT_DEATH(f.flag("--a", "again", a), "option --a declared twice");
}

TEST(ToolsCli, RealsSplitAndParseEveryItem)
{
    std::vector<double> lambdas = {0.5};
    Flags f("probe");
    f.reals("--lambda=R[,R..]", "loads", lambdas, 0.0, kMaxReal);
    ASSERT_TRUE(parse(f, {"--lambda=0.2,,1,4e0"}));
    EXPECT_EQ(lambdas, (std::vector<double>{0.2, 1.0, 4.0}));
    EXPECT_EXIT(parse(f, {"--lambda=0.5,inf"}), ::testing::ExitedWithCode(1),
                "--lambda: 'inf' is not a finite number");
}

TEST(ToolsCli, HelpListsEveryEntryWithItsDefault)
{
    bool drain = false;
    std::string out = "-";
    std::string none;
    double x = 0.5;
    std::vector<std::string> designs = {"Baseline", "Sh40"};
    exec::CrashConfig cell; // 80 cores, 32 slices, 16 channels, seed 1
    Flags f("probe — a test tool");
    f.flag("--drain", "drain traffic", drain);
    f.text("--out=FILE", "output file", out);
    f.text("--log=FILE", "log file", none);
    f.real("--x=X", "a real", x, 0.0, 1.0);
    f.list("--designs=A,B", "designs", designs);
    addPlatformFlags(f, cell);

    const std::string help = f.help();
    EXPECT_EQ(help.rfind("probe — a test tool\n\n", 0), 0u) << help;
    for (const char *line :
         {"  --drain        drain traffic\n",
          "  --out=FILE     output file (default -)\n",
          "  --log=FILE     log file\n",
          "  --x=X          a real (default 0.5)\n",
          "  --designs=A,B  designs (default Baseline,Sh40)\n",
          "  --cores=N      GPU cores (default 80)\n",
          "  --slices=N     L2 slices (default 32)\n",
          "  --channels=N   DRAM channels (default 16)\n",
          "  --seed=N       random seed (default 1)\n"})
        EXPECT_NE(help.find(line), std::string::npos) << line << help;
    EXPECT_NE(help.find(exec::kExitCodeContract), std::string::npos);

    for (const char *flag : {"--help", "-h"}) {
        ::testing::internal::CaptureStdout();
        EXPECT_FALSE(parse(f, {flag, "--bogus"}));
        EXPECT_EQ(::testing::internal::GetCapturedStdout(), help);
    }
}

TEST(ToolsCli, PlatformFlagsSetTheSameNamedMembers)
{
    exec::CrashConfig cell;
    Flags f("probe");
    addPlatformFlags(f, cell);
    ASSERT_TRUE(parse(f, {"--cores=40", "--slices=16", "--channels=8",
                          "--seed=7"}));
    EXPECT_EQ(cell.cores, 40u);
    EXPECT_EQ(cell.slices, 16u);
    EXPECT_EQ(cell.channels, 8u);
    EXPECT_EQ(cell.seed, 7u);
}

/** Replace the death-test child with the tool at @p path, @p args. */
void
execTool(const char *path, std::vector<const char *> args)
{
    args.insert(args.begin(), path);
    args.push_back(nullptr);
    execv(path, const_cast<char *const *>(args.data()));
    _exit(127); // exec failed
}

TEST(Dcl1serveDeathTest, MalformedNumbersAreRejected)
{
    const auto serve = [](std::vector<const char *> args) {
        execTool(DCL1SERVE_PATH, std::move(args));
    };
    EXPECT_EXIT(serve({"--equivalence-check", "--seed=7x"}),
                ::testing::ExitedWithCode(1),
                "--seed: trailing garbage in '7x'");
    EXPECT_EXIT(serve({"--seed="}), ::testing::ExitedWithCode(1),
                "--seed: empty value");
    EXPECT_EXIT(serve({"--cores=0"}), ::testing::ExitedWithCode(1),
                "--cores: 0 out of range");
    EXPECT_EXIT(serve({"--budget-scale=nan"}), ::testing::ExitedWithCode(1),
                "--budget-scale: 'nan' is not a finite number");
    EXPECT_EXIT(serve({"--lambda=0.5,inf"}), ::testing::ExitedWithCode(1),
                "--lambda: 'inf' is not a finite number");
}

TEST(Dcl1sweepDeathTest, BadFlagsAreRejected)
{
    EXPECT_EXIT(execTool(DCL1SWEEP_PATH, {"--jobs=0"}),
                ::testing::ExitedWithCode(1), "--jobs: 0 out of range");
    EXPECT_EXIT(execTool(DCL1SWEEP_PATH, {"--design=Sh40"}),
                ::testing::ExitedWithCode(1),
                "unknown option '--design=Sh40'");
}

} // anonymous namespace
} // namespace dcl1::cli
