/**
 * @file
 * Tests for `bench/figures` and its registry: every registered figure's
 * printed output is pinned across commits, and the harness's cell
 * lookups fail loudly.
 *
 * The digests are FNV-1a over each figure's stdout at a tiny budget
 * (300 measured + 100 warmup cycles) on one replication-sensitive app,
 * T-AlexNet, and one insensitive app that is poor under Sh40,
 * P-2DCONV. C-NN stays out of the app set, so fig18 reads its C-NN
 * cells only if it declares them. A dropped declaration panics and a
 * changed key_suffix either panics or moves a digest. A deliberate
 * change to a figure's output re-records its digest and says why in
 * CHANGES.md.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <ios>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "common/log.hh"
#include "exec/determinism.hh"
#include "exec/job_set.hh"
#include "exec/run_manifest.hh"

namespace dcl1::bench
{
namespace
{

struct FigurePin
{
    const char *name;
    std::uint64_t digest; ///< fnv1a of the figure's stdout
};

void
PrintTo(const FigurePin &p, std::ostream *os)
{
    *os << '"' << p.name << '"';
}

/** Registry order; recorded from the figures' output at this budget. */
const FigurePin kPins[] = {
    {"tab1_noc_configs", 0x3628c9f51b458252ull},
    {"fig01_motivation", 0xe369afdd0fae6887ull},
    {"fig02_utilization", 0x80a641ed98489009ull},
    {"fig04_private_dcl1", 0xd201b90ba8540434ull},
    {"fig06_private_area_power", 0x429f37e0c96b6fc6ull},
    {"fig08_shared_sensitive", 0x29a864592dfec375ull},
    {"fig09_shared_insensitive", 0x1d114c9972a15927ull},
    {"fig11_clustered", 0x8756a030d00aee32ull},
    {"fig12_clustered_area_power", 0xfb6a0cd77b968ecbull},
    {"fig13_boost", 0x9f0cc1bd9eff6ac8ull},
    {"fig14_overall_ipc", 0x7ff5e37d46ceb9d1ull},
    {"fig15_scurve", 0x36e57e3977f0a8d6ull},
    {"fig16_missrate_replicas", 0x8d5cb30d687e46a2ull},
    {"fig17_port_utilization", 0xb4f23021d3f08f03ull},
    {"fig18_energy_area", 0xd02a2d4718907bfbull},
    {"fig19_sensitivity", 0x62f84e7a4381f052ull},
    {"sens_misc", 0xa53a88893ca0c7cfull},
    {"ablate_design", 0x574d6dec9fe3c90aull},
    {"ext_scaling", 0xda81599c1dc126fdull},
};

/** Digest of every figure's output concatenated in registry order. */
constexpr std::uint64_t kAllFiguresDigest = 0x674c1d68d9b264b0ull;

/** The pinned budget and app set; no durable or telemetry side files. */
void
setTinyBudget()
{
    setenv("DCL1_CYCLES", "300", 1);
    setenv("DCL1_WARMUP", "100", 1);
    setenv("DCL1_APPS", "T-AlexNet,P-2DCONV", 1);
    setenv("DCL1_JOBS", "2", 1);
    for (const char *name : {"DCL1_RUN_DIR", "DCL1_TIMELINE", "DCL1_JOBS_LOG"})
        unsetenv(name);
}

std::string
renderFigures(const std::vector<std::string> &names)
{
    ::testing::internal::CaptureStdout();
    runFigures(names);
    return ::testing::internal::GetCapturedStdout();
}

class FigureDigestTest : public ::testing::TestWithParam<FigurePin>
{
  protected:
    void SetUp() override { setTinyBudget(); }
};

TEST_P(FigureDigestTest, MatchesRecordedOutput)
{
    const std::string out = renderFigures({GetParam().name});
    EXPECT_EQ(exec::fnv1a(out), GetParam().digest)
        << std::hex << "digest 0x" << exec::fnv1a(out) << "\n"
        << out;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, FigureDigestTest, ::testing::ValuesIn(kPins),
    [](const ::testing::TestParamInfo<FigurePin> &info) {
        return std::string(info.param.name);
    });

TEST(Figures, RegistryIsPinnedInOrder)
{
    const auto &registry = figureRegistry();
    ASSERT_EQ(registry.size(), std::size(kPins));
    for (std::size_t i = 0; i < registry.size(); ++i)
        EXPECT_STREQ(registry[i].name, kPins[i].name);
}

TEST(Figures, AllFiguresConcatenateInRegistryOrder)
{
    setTinyBudget();
    const std::string out = renderFigures({});
    EXPECT_EQ(exec::fnv1a(out), kAllFiguresDigest)
        << std::hex << "digest 0x" << exec::fnv1a(out);
}

TEST(FiguresDeathTest, UndeclaredCellPanicsNamingFigureAndCell)
{
    setTinyBudget();
    EXPECT_DEATH(
        {
            Harness h;
            h.setFigure("probe");
            h.declare({}, {workload::appByName("T-AlexNet")});
            h.simulate(1);
            h.run(core::sharedDcl1(40), workload::appByName("T-AlexNet"));
        },
        "figure probe reads cell Sh40/T-AlexNet that it never declared");
}

TEST(FiguresDeathTest, CellDeclaredByAnotherFigurePanics)
{
    setTinyBudget();
    EXPECT_DEATH(
        {
            Harness h;
            h.setFigure("owner");
            h.declare({}, {workload::appByName("T-AlexNet")});
            h.setFigure("reader");
            h.simulate(2);
            h.baseline(workload::appByName("T-AlexNet"));
        },
        "figure reader reads cell Baseline/T-AlexNet that it never "
        "declared");
}

TEST(FiguresDeathTest, FailedCellIsFatalWithItsError)
{
    setTinyBudget();
    const std::string dir =
        ::testing::TempDir() +
        csprintf("dcl1-figures-%d-quarantined", int(getpid()));
    std::filesystem::remove_all(dir);
    EXPECT_EXIT(
        {
            // A quarantined record in the run directory's WAL resumes
            // as a failed cell without simulating it.
            exec::JobSet probe;
            probe.addCell(core::SystemConfig{}, core::baselineDesign(),
                          workload::appByName("T-AlexNet").params,
                          core::ExperimentOptions::fromEnv());
            exec::JobRecord rec;
            rec.key = probe.specs()[0].key;
            rec.label = probe.label(0);
            rec.quarantined = true;
            rec.kind = exec::FailureKind::SimBug;
            rec.error = "deadlock at cycle 42";
            exec::RunManifest::openOrCreate(dir, "bench")->append(rec);
            setenv("DCL1_RUN_DIR", dir.c_str(), 1);
            Harness h;
            h.setFigure("probe");
            h.declare({}, {workload::appByName("T-AlexNet")});
            h.simulate(1);
            h.baseline(workload::appByName("T-AlexNet"));
        },
        ::testing::ExitedWithCode(1),
        "figure probe: cell Baseline/T-AlexNet failed: deadlock at cycle 42");
    std::filesystem::remove_all(dir);
}

TEST(FiguresDeathTest, UnknownFigureIsFatal)
{
    setTinyBudget();
    EXPECT_EXIT(runFigures({"fig99_missing"}), ::testing::ExitedWithCode(1),
                "unknown figure 'fig99_missing'");
}

TEST(FiguresDeathTest, UnknownAppIsFatal)
{
    setTinyBudget();
    EXPECT_EXIT(
        {
            // A misspelt name used to be dropped, leaving an empty app
            // set whose averages printed as -nan.
            setenv("DCL1_APPS", "T-Alexnet", 1);
            runFigures({"fig14_overall_ipc"});
        },
        ::testing::ExitedWithCode(1),
        "unknown application 'T-Alexnet'; the catalog is: .*T-AlexNet");
}

} // anonymous namespace
} // namespace dcl1::bench
