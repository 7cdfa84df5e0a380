/**
 * @file
 * Tests for the parallel experiment-execution engine: deterministic
 * result ordering, fault isolation, retry with quarantine, memoization
 * and the observability sinks.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "exec/determinism.hh"
#include "common/log.hh"
#include "core/design.hh"
#include "exec/exit_codes.hh"
#include "exec/job_runner.hh"
#include "exec/job_set.hh"
#include "exec/result_sink.hh"
#include "workload/app_catalog.hh"

namespace
{

using namespace dcl1;
using namespace dcl1::exec;

ExecOptions
quietOpts(unsigned jobs)
{
    ExecOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    return opts;
}

core::ExperimentOptions
shortRun()
{
    core::ExperimentOptions opts;
    opts.measureCycles = 2000;
    opts.warmupCycles = 500;
    return opts;
}

TEST(Exec, ResolveWorkers)
{
    JobRunner serial(quietOpts(1));
    EXPECT_EQ(serial.resolveWorkers(100), 1u);

    JobRunner four(quietOpts(4));
    EXPECT_EQ(four.resolveWorkers(100), 4u);
    // Never more workers than jobs.
    EXPECT_EQ(four.resolveWorkers(2), 2u);
    EXPECT_EQ(four.resolveWorkers(0), 1u);

    JobRunner defaulted(quietOpts(0));
    EXPECT_EQ(defaulted.resolveWorkers(1000),
              ExecOptions::hardwareConcurrency());
}

TEST(Exec, ResultsLandByIndexNotCompletionOrder)
{
    // Jobs with wildly uneven runtimes: results must still come back
    // in submission order with each job's own payload.
    const std::size_t n = 64;
    std::vector<JobSpec> specs;
    for (std::size_t i = 0; i < n; ++i) {
        specs.push_back(
            {csprintf("job%zu", i), [i, n](JobContext &ctx) {
                 // Earlier jobs spin longer, so with several workers
                 // later jobs finish first.
                 volatile double sink = 0;
                 for (std::size_t k = 0; k < (n - i) * 2000; ++k)
                     sink = sink + double(k);
                 core::RunMetrics rm;
                 rm.ipc = double(i);
                 rm.cycles = ctx.index();
                 return rm;
             }});
    }
    JobRunner runner(quietOpts(4));
    const auto results = runner.run(specs);
    ASSERT_EQ(results.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(results[i].index, i);
        EXPECT_EQ(results[i].label, csprintf("job%zu", i));
        EXPECT_TRUE(results[i].ok);
        EXPECT_DOUBLE_EQ(results[i].metrics.ipc, double(i));
        EXPECT_EQ(results[i].metrics.cycles, i);
    }
}

TEST(Exec, FaultIsolation)
{
    // A throwing job, a panicking job and a fatal()ing job must all be
    // captured as failed records; the healthy jobs still complete.
    std::vector<JobSpec> specs;
    specs.push_back({"throws", [](JobContext &) -> core::RunMetrics {
                         throw std::runtime_error("broken model");
                     }});
    specs.push_back({"panics", [](JobContext &) -> core::RunMetrics {
                         panic("deadlock at cycle %d", 42);
                     }});
    specs.push_back({"fatals", [](JobContext &) -> core::RunMetrics {
                         fatal("bad config");
                     }});
    for (int i = 0; i < 4; ++i)
        specs.push_back({csprintf("ok%d", i), [](JobContext &) {
                             core::RunMetrics rm;
                             rm.ipc = 1.0;
                             return rm;
                         }});

    JobRunner runner(quietOpts(3));
    const auto results = runner.run(specs);
    ASSERT_EQ(results.size(), 7u);

    EXPECT_FALSE(results[0].ok);
    EXPECT_NE(results[0].error.find("broken model"), std::string::npos);
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("deadlock at cycle 42"),
              std::string::npos);
    EXPECT_FALSE(results[2].ok);
    EXPECT_NE(results[2].error.find("bad config"), std::string::npos);
    for (std::size_t i = 3; i < 7; ++i)
        EXPECT_TRUE(results[i].ok) << results[i].error;
}

TEST(Exec, PanicStillAbortsOutsideTheEngine)
{
    // The error trap is scoped to engine jobs; elsewhere panic()
    // remains fatal (death tests across the suite depend on this).
    EXPECT_EXIT(panic("untrapped"), ::testing::KilledBySignal(SIGABRT),
                "untrapped");
}

TEST(Exec, JobSetMemoization)
{
    core::SystemConfig sys;
    const auto &app = workload::appCatalog().front();
    const auto opts = shortRun();
    JobSet set;

    const std::size_t a =
        set.addCell(sys, core::baselineDesign(), app.params, opts);
    const std::size_t b =
        set.addCell(sys, core::baselineDesign(), app.params, opts);
    EXPECT_EQ(a, b);
    EXPECT_EQ(set.size(), 1u);

    // A different design is a different job...
    const std::size_t c =
        set.addCell(sys, core::sharedDcl1(40), app.params, opts);
    EXPECT_NE(c, a);

    // ...and so is the same cell with a distinguishing key suffix
    // (caller mutated something the memo key cannot see).
    const std::size_t d = set.addCell(sys, core::baselineDesign(),
                                      app.params, opts, "q8");
    EXPECT_NE(d, a);

    EXPECT_EQ(set.cellsRequested(), 4u);
    EXPECT_EQ(set.cellsDeduped(), 1u);
    EXPECT_EQ(set.size(), 3u);
}

TEST(Exec, SerialAndParallelRunsAreIdentical)
{
    // The acceptance property: the same grid run at --jobs=1 and
    // --jobs=4 yields identical stat digests, computed on the worker
    // thread that owns each simulation.
    core::SystemConfig sys;
    const auto opts = shortRun();
    const std::vector<core::DesignConfig> designs = {
        core::baselineDesign(), core::sharedDcl1(40)};

    auto digests = [&](unsigned jobs) {
        std::vector<JobSpec> specs;
        std::vector<std::uint64_t> out;
        std::size_t i = 0;
        for (const auto &design : designs) {
            for (const auto &app :
                 {workload::appByName("C-BFS"),
                  workload::appByName("T-AlexNet")}) {
                specs.push_back(
                    {csprintf("cell%zu", i++),
                     [&, design, app, slot = out.size()](JobContext &) {
                         core::GpuSystem gpu(sys, design, app.params);
                         gpu.run(opts.measureCycles, opts.warmupCycles);
                         out[slot] = exec::statDigest(gpu);
                         return gpu.metrics();
                     }});
                out.push_back(0);
            }
        }
        JobRunner runner(quietOpts(jobs));
        const auto results = runner.run(specs);
        for (const auto &r : results)
            EXPECT_TRUE(r.ok) << r.label << ": " << r.error;
        return out;
    };

    const auto serial = digests(1);
    const auto parallel = digests(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_NE(serial[i], 0u);
        EXPECT_EQ(serial[i], parallel[i]) << "cell " << i;
    }
}

TEST(Exec, SinksObserveEveryJob)
{
    struct CountingSink : ResultSink
    {
        std::size_t starts = 0, dones = 0, failed = 0;
        RunSummary last;
        void onJobStart(std::size_t, const std::string &,
                        unsigned) override
        {
            ++starts;
        }
        void onJobDone(const JobResult &r) override
        {
            ++dones;
            failed += r.ok ? 0 : 1;
        }
        void onRunEnd(const RunSummary &summary,
                      const std::vector<JobResult> &) override
        {
            last = summary;
        }
    };

    std::vector<JobSpec> specs;
    for (int i = 0; i < 9; ++i)
        specs.push_back({csprintf("j%d", i), [i](JobContext &) {
                             if (i == 4)
                                 throw std::runtime_error("x");
                             core::RunMetrics rm;
                             rm.ipc = 1.0;
                             return rm;
                         }});
    CountingSink sink;
    JobRunner runner(quietOpts(3));
    runner.addSink(&sink);
    const auto results = runner.run(specs);
    (void)results;

    EXPECT_EQ(sink.starts, 9u);
    EXPECT_EQ(sink.dones, 9u);
    EXPECT_EQ(sink.failed, 1u);
    EXPECT_EQ(sink.last.totalJobs, 9u);
    EXPECT_EQ(sink.last.failedJobs, 1u);
    EXPECT_EQ(sink.last.workers, 3u);
    EXPECT_GT(sink.last.cpuMs, 0.0);
    EXPECT_LE(sink.last.slowest.size(), 5u);
}

TEST(Exec, JsonlSinkWritesOneRecordPerJob)
{
    const std::string path = ::testing::TempDir() + "/exec_jobs.jsonl";
    std::remove(path.c_str());
    {
        std::vector<JobSpec> specs;
        specs.push_back({"good \"quoted\"", [](JobContext &) {
                             core::RunMetrics rm;
                             rm.ipc = 1.5;
                             rm.cycles = 2000;
                             return rm;
                         }});
        specs.push_back({"bad", [](JobContext &) -> core::RunMetrics {
                             throw std::runtime_error("line1\nline2");
                         }});
        ExecOptions opts = quietOpts(2);
        opts.jsonlPath = path; // the runner installs the JsonlSink
        JobRunner(opts).run(specs);
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    // Two job records plus the summary record.
    ASSERT_EQ(lines.size(), 3u);

    std::string all = lines[0] + "\n" + lines[1];
    EXPECT_NE(all.find("\"label\":\"good \\\"quoted\\\"\""),
              std::string::npos);
    EXPECT_NE(all.find("\"ok\":true"), std::string::npos);
    EXPECT_NE(all.find("\"ok\":false"), std::string::npos);
    // Newlines in error text must be escaped, not break the framing.
    EXPECT_NE(all.find("line1\\nline2"), std::string::npos);
    EXPECT_NE(lines[2].find("\"summary\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(Exec, JsonEscape)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(Exec, FromEnvStrictParsing)
{
    setenv("DCL1_JOBS", "3", 1);
    EXPECT_EQ(ExecOptions::fromEnv().jobs, 3u);
    setenv("DCL1_JOBS", "many", 1);
    EXPECT_EXIT(ExecOptions::fromEnv(), ::testing::ExitedWithCode(1),
                "is not a number");
    setenv("DCL1_JOBS", "-2", 1);
    EXPECT_EXIT(ExecOptions::fromEnv(), ::testing::ExitedWithCode(1),
                "out of range");
    unsetenv("DCL1_JOBS");

    setenv("DCL1_RETRIES", "7", 1);
    EXPECT_EQ(ExecOptions::fromEnv().maxRetries, 7u);
    setenv("DCL1_RETRIES", "lots", 1);
    EXPECT_EXIT(ExecOptions::fromEnv(), ::testing::ExitedWithCode(1),
                "is not a number");
    unsetenv("DCL1_RETRIES");

    setenv("DCL1_CRASH_DIR", "/tmp/crash", 1);
    EXPECT_EQ(ExecOptions::fromEnv().crashDir, "/tmp/crash");
    unsetenv("DCL1_CRASH_DIR");
}

TEST(Exec, ExitCodeContractIsPinned)
{
    // The numeric contract is documented in --help, the README and CI
    // scripts; a silent renumbering would break all of them.
    EXPECT_EQ(kExitOk, 0);
    EXPECT_EQ(kExitConfigError, 1);
    EXPECT_EQ(kExitRunFailed, 2);
    EXPECT_EQ(kExitFailedCells, 3);
    EXPECT_EQ(kExitResumable, 4);
    EXPECT_EQ(kExitQuarantined, 5);
    EXPECT_EQ(kExitIncompatibleRunDir, 6);
}

TEST(Exec, FailureKindNamesAreStable)
{
    // Serialized into WAL records and crash files; renames would make
    // old run directories unreadable.
    EXPECT_STREQ(failureKindName(FailureKind::None), "none");
    EXPECT_STREQ(failureKindName(FailureKind::SimBug), "sim-bug");
    EXPECT_STREQ(failureKindName(FailureKind::ConfigError),
                 "config-error");
    EXPECT_STREQ(failureKindName(FailureKind::WorkerException),
                 "worker-exception");
}

TEST(Exec, DeterministicFailuresAreQuarantinedWithoutRetry)
{
    ExecOptions opts = quietOpts(1);
    opts.maxRetries = 5; // must NOT be spent on deterministic failures

    int panic_runs = 0, fatal_runs = 0;
    std::vector<JobSpec> specs;
    specs.push_back({"panics", [&](JobContext &) -> core::RunMetrics {
                         ++panic_runs;
                         panic("invariant violated");
                     }});
    specs.push_back({"fatals", [&](JobContext &) -> core::RunMetrics {
                         ++fatal_runs;
                         fatal("impossible configuration");
                     }});
    const auto results = JobRunner(opts).run(specs);

    EXPECT_FALSE(results[0].ok);
    EXPECT_TRUE(results[0].quarantined);
    EXPECT_EQ(results[0].kind, FailureKind::SimBug);
    EXPECT_EQ(results[0].attempts, 1u);
    EXPECT_EQ(panic_runs, 1);

    EXPECT_FALSE(results[1].ok);
    EXPECT_TRUE(results[1].quarantined);
    EXPECT_EQ(results[1].kind, FailureKind::ConfigError);
    EXPECT_EQ(results[1].attempts, 1u);
    EXPECT_EQ(fatal_runs, 1);
}

TEST(Exec, WorkerExceptionsRetryUpToMaxRetries)
{
    ExecOptions opts = quietOpts(1);
    opts.maxRetries = 2;

    int flaky_runs = 0, broken_runs = 0;
    std::vector<JobSpec> specs;
    specs.push_back({"flaky", [&](JobContext &) -> core::RunMetrics {
                         if (++flaky_runs < 3)
                             throw std::runtime_error("transient");
                         core::RunMetrics rm;
                         rm.ipc = 1.0;
                         return rm;
                     }});
    specs.push_back({"broken", [&](JobContext &) -> core::RunMetrics {
                         ++broken_runs;
                         throw std::runtime_error("persistent");
                     }});
    const auto results = JobRunner(opts).run(specs);

    // Two failures, then success on the last allowed attempt.
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(results[0].attempts, 3u);
    EXPECT_EQ(flaky_runs, 3);

    // Retries exhausted: failed, retryable, never quarantined.
    EXPECT_FALSE(results[1].ok);
    EXPECT_EQ(results[1].kind, FailureKind::WorkerException);
    EXPECT_FALSE(results[1].quarantined);
    EXPECT_EQ(results[1].attempts, 3u);
    EXPECT_EQ(broken_runs, 3);
}

TEST(Exec, SummaryCountsQuarantinedJobs)
{
    class CaptureSink : public ResultSink
    {
      public:
        RunSummary last;
        void
        onRunEnd(const RunSummary &summary,
                 const std::vector<JobResult> &) override
        {
            last = summary;
        }
    };

    std::vector<JobSpec> specs;
    specs.push_back({"ok", [](JobContext &) {
                         core::RunMetrics rm;
                         rm.ipc = 1.0;
                         return rm;
                     }});
    specs.push_back({"panics", [](JobContext &) -> core::RunMetrics {
                         panic("bug");
                     }});
    specs.push_back({"throws", [](JobContext &) -> core::RunMetrics {
                         throw std::runtime_error("flake");
                     }});

    ExecOptions opts = quietOpts(1);
    opts.maxRetries = 0;
    CaptureSink sink;
    JobRunner runner(opts);
    runner.addSink(&sink);
    runner.run(specs);

    EXPECT_EQ(sink.last.totalJobs, 3u);
    EXPECT_EQ(sink.last.failedJobs, 2u);
    EXPECT_EQ(sink.last.quarantinedJobs, 1u);
    EXPECT_EQ(sink.last.resumedJobs, 0u);
    EXPECT_EQ(sink.last.skippedJobs, 0u);
    EXPECT_FALSE(sink.last.interrupted);
}

} // anonymous namespace
