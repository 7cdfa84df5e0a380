/**
 * @file
 * Tests for the durable-run layer: crash-safe result-file writers,
 * WAL record round-trips, run-manifest identity checking, crash
 * records, and the kill-and-resume path that must reproduce an
 * uninterrupted run's output byte for byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/log.hh"
#include "core/design.hh"
#include "core/gpu_system.hh"
#include "exec/atomic_file.hh"
#include "exec/crash_record.hh"
#include "exec/exit_codes.hh"
#include "exec/interrupt.hh"
#include "exec/job_runner.hh"
#include "exec/job_set.hh"
#include "exec/result_sink.hh"
#include "exec/run_manifest.hh"
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

/**
 * Per-test scratch directory, wiped of any durable-run files a
 * previous (possibly killed) test run left behind.
 */
std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() +
                            csprintf("dcl1-durable-%d-", int(getpid())) +
                            name;
    ensureDirectory(dir);
    std::remove((dir + "/manifest.json").c_str());
    std::remove(csprintf("%s/manifest.json.tmp.%d", dir.c_str(),
                         int(getpid()))
                    .c_str());
    std::remove((dir + "/jobs.jsonl").c_str());
    return dir;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::string text;
    for (std::string line; std::getline(in, line);) {
        text += line;
        text += '\n';
    }
    return text;
}

bool
fileExists(const std::string &path)
{
    return bool(std::ifstream(path));
}

core::RunMetrics
awkwardMetrics()
{
    core::RunMetrics rm;
    rm.cycles = 123456789;
    rm.instructions = 987654321;
    rm.ipc = 1.0 / 3.0; // not representable in any finite decimal
    rm.l1Accesses = 11;
    rm.l1Misses = 7;
    rm.l1MissRate = 0.1;
    rm.replicationRatio = 2.5e-10;
    rm.avgReplicas = 1.0000000000000002; // one ulp above 1.0
    rm.maxL1PortUtil = 0.7654321987654321;
    rm.maxCoreReplyLinkUtil = 1e300;
    rm.maxMemReplyLinkUtil = 0.0;
    rm.avgReadLatency = 417.66666666666669;
    rm.noc1Flits = 1;
    rm.noc2Flits = 2;
    rm.l2Accesses = 3;
    rm.l2Misses = 4;
    rm.dramReads = 5;
    rm.dramWrites = 6;
    return rm;
}

TEST(Durable, RunMetricsJsonRoundTripsDoublesExactly)
{
    // %.17g must reproduce every IEEE double bit for bit; anything
    // less and a resumed CSV would differ from an uninterrupted one.
    const core::RunMetrics rm = awkwardMetrics();
    core::RunMetrics back;
    ASSERT_TRUE(parseRunMetricsJson(runMetricsJson(rm), back));
    EXPECT_EQ(back.cycles, rm.cycles);
    EXPECT_EQ(back.instructions, rm.instructions);
    EXPECT_EQ(back.ipc, rm.ipc);
    EXPECT_EQ(back.l1MissRate, rm.l1MissRate);
    EXPECT_EQ(back.replicationRatio, rm.replicationRatio);
    EXPECT_EQ(back.avgReplicas, rm.avgReplicas);
    EXPECT_EQ(back.maxL1PortUtil, rm.maxL1PortUtil);
    EXPECT_EQ(back.maxCoreReplyLinkUtil, rm.maxCoreReplyLinkUtil);
    EXPECT_EQ(back.maxMemReplyLinkUtil, rm.maxMemReplyLinkUtil);
    EXPECT_EQ(back.avgReadLatency, rm.avgReadLatency);
    EXPECT_EQ(back.dramWrites, rm.dramWrites);

    core::RunMetrics rejected;
    EXPECT_FALSE(parseRunMetricsJson("{\"cycles\":1}", rejected));
}

TEST(Durable, JobRecordRoundTripsThroughJsonl)
{
    JobRecord rec;
    rec.key = "design=A|app=\"quoted\"|seed=1"; // escaping required
    rec.label = "A/back\\slash";
    rec.ok = true;
    rec.attempts = 2;
    rec.metrics = awkwardMetrics();

    JobRecord back;
    ASSERT_TRUE(JobRecord::fromJsonLine(rec.toJsonLine(), back));
    EXPECT_EQ(back.key, rec.key);
    EXPECT_EQ(back.label, rec.label);
    EXPECT_TRUE(back.ok);
    EXPECT_FALSE(back.quarantined);
    EXPECT_EQ(back.attempts, 2u);
    EXPECT_EQ(back.kind, FailureKind::None);
    EXPECT_EQ(back.metrics.ipc, rec.metrics.ipc);

    JobRecord quar;
    quar.key = "k2";
    quar.label = "bad";
    quar.quarantined = true;
    quar.kind = FailureKind::SimBug;
    quar.error = "panic: q1 overflow\nat cycle 42";
    ASSERT_TRUE(JobRecord::fromJsonLine(quar.toJsonLine(), back));
    EXPECT_FALSE(back.ok);
    EXPECT_TRUE(back.quarantined);
    EXPECT_EQ(back.kind, FailureKind::SimBug);
    EXPECT_EQ(back.error, quar.error);

    // Malformed input never half-parses.
    EXPECT_FALSE(JobRecord::fromJsonLine("", back));
    EXPECT_FALSE(JobRecord::fromJsonLine("{\"key\":\"torn", back));
    EXPECT_FALSE(JobRecord::fromJsonLine(
        "{\"key\":\"k\",\"label\":\"l\",\"ok\":true,"
        "\"quarantined\":false,\"attempts\":1}", // ok but no metrics
        back));
}

TEST(Durable, AtomicWriterPublishesAllOrNothing)
{
    const std::string dir = freshDir("atomic");
    const std::string path = dir + "/out.csv";
    std::remove(path.c_str());

    {
        AtomicFileWriter w(path);
        w.stream() << "design,ipc\nA,1.5\n";
        EXPECT_FALSE(fileExists(path)); // nothing until commit
        w.commit();
    }
    EXPECT_EQ(readFile(path), "design,ipc\nA,1.5\n");
    EXPECT_FALSE(fileExists(
        csprintf("%s.tmp.%d", path.c_str(), int(getpid())))); // no debris

    {
        // Abandoned writer (simulates dying mid-batch): the old file
        // must survive untouched.
        AtomicFileWriter w(path);
        w.stream() << "half-writ";
    }
    EXPECT_EQ(readFile(path), "design,ipc\nA,1.5\n");

    {
        AtomicFileWriter w(path);
        w.stream() << "v2\n";
        w.commit();
    }
    EXPECT_EQ(readFile(path), "v2\n");
}

TEST(Durable, AppendLogExtendsAcrossReopens)
{
    const std::string dir = freshDir("append");
    const std::string path = dir + "/log.jsonl";
    std::remove(path.c_str());

    {
        AppendLog log(path);
        EXPECT_TRUE(log.appendLine("{\"a\":1}"));
        EXPECT_TRUE(log.appendLine("{\"b\":2}"));
    }
    {
        // A second run must append, never truncate: that is what makes
        // the WAL a write-ahead log.
        AppendLog log(path);
        EXPECT_TRUE(log.appendLine("{\"c\":3}"));
    }
    EXPECT_EQ(readFile(path), "{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n");
}

TEST(Durable, ManifestRecordsAndReloadsCompletedJobs)
{
    const std::string dir = freshDir("manifest");

    auto m = RunManifest::openOrCreate(dir, "unit-test grid=2x2");
    EXPECT_EQ(m->completedCount(), 0u);
    EXPECT_EQ(m->crashDir(), dir + "/crash");

    JobRecord ok;
    ok.key = "cell-1";
    ok.label = "A/app1";
    ok.ok = true;
    ok.metrics = awkwardMetrics();
    m->append(ok);

    JobRecord quar;
    quar.key = "cell-2";
    quar.label = "B/app1";
    quar.quarantined = true;
    quar.kind = FailureKind::ConfigError;
    m->append(quar);

    JobRecord keyless; // keyless jobs are not durable; must be ignored
    keyless.label = "adhoc";
    keyless.ok = true;
    m->append(keyless);

    m->finalize("complete");
    m.reset();

    auto re = RunManifest::openOrCreate(dir, "unit-test grid=2x2");
    EXPECT_EQ(re->completedCount(), 2u);
    ASSERT_NE(re->find("cell-1"), nullptr);
    EXPECT_TRUE(re->find("cell-1")->ok);
    EXPECT_EQ(re->find("cell-1")->metrics.ipc, ok.metrics.ipc);
    ASSERT_NE(re->find("cell-2"), nullptr);
    EXPECT_TRUE(re->find("cell-2")->quarantined);
    EXPECT_EQ(re->find("cell-2")->kind, FailureKind::ConfigError);
    EXPECT_EQ(re->find("cell-3"), nullptr);

    const std::string manifest = readFile(dir + "/manifest.json");
    EXPECT_NE(manifest.find("\"status\":\"running\""),
              std::string::npos);
    EXPECT_NE(manifest.find("\"completed\":2"), std::string::npos);
}

TEST(Durable, ManifestToleratesTornWalTail)
{
    const std::string dir = freshDir("torn");
    {
        auto m = RunManifest::openOrCreate(dir, "torn-test");
        JobRecord rec;
        rec.key = "survivor";
        rec.label = "ok";
        rec.ok = true;
        m->append(rec);
        m->finalize("interrupted");
    }
    {
        // A hard kill mid-append leaves a torn final line; the reopen
        // must keep every earlier record and just re-run that job.
        std::ofstream out(dir + "/jobs.jsonl", std::ios::app);
        out << "{\"key\":\"torn-victim\",\"label\":\"ha";
    }
    auto re = RunManifest::openOrCreate(dir, "torn-test");
    EXPECT_EQ(re->completedCount(), 1u);
    EXPECT_NE(re->find("survivor"), nullptr);
    EXPECT_EQ(re->find("torn-victim"), nullptr);
}

/** @p line with the raw value of its first `"field":` replaced. */
std::string
withRawField(std::string line, const char *field, const std::string &value)
{
    const std::string needle = csprintf("\"%s\":", field);
    const std::size_t at = line.find(needle);
    EXPECT_NE(at, std::string::npos) << field;
    line.replace(at + needle.size(), jsonFieldRaw(line, field).size(),
                 value);
    return line;
}

TEST(Durable, ManifestDropsRecordsWithNonNumericTokens)
{
    // A number that does not parse in full must reject its record, not
    // resume as 0: a resumed sweep would print that 0 into the CSV.
    JobRecord rec;
    rec.label = "cell";
    rec.ok = true;
    rec.attempts = 1;
    rec.metrics = awkwardMetrics();
    rec.key = "good";
    const std::string good = rec.toJsonLine();
    rec.key = "bad-metric";
    const std::string bad_metric =
        withRawField(rec.toJsonLine(), "ipc", "garbage");
    rec.key = "bad-attempts";
    const std::string bad_attempts =
        withRawField(rec.toJsonLine(), "attempts", "two");

    JobRecord back;
    ASSERT_TRUE(JobRecord::fromJsonLine(good, back));
    EXPECT_FALSE(JobRecord::fromJsonLine(bad_metric, back));
    EXPECT_FALSE(JobRecord::fromJsonLine(bad_attempts, back));
    // Numeric prefixes, signs and out-of-range values are no better.
    EXPECT_FALSE(JobRecord::fromJsonLine(
        withRawField(good, "avg_read_latency", "1.5x"), back));
    EXPECT_FALSE(
        JobRecord::fromJsonLine(withRawField(good, "cycles", "-1"), back));
    EXPECT_FALSE(JobRecord::fromJsonLine(
        withRawField(good, "dram_reads", "99999999999999999999"), back));
    EXPECT_FALSE(JobRecord::fromJsonLine(
        withRawField(good, "attempts", "4294967296"), back));
    EXPECT_FALSE(
        JobRecord::fromJsonLine(withRawField(good, "ok", "yes"), back));

    const std::string dir = freshDir("nonnumeric");
    RunManifest::openOrCreate(dir, "nonnumeric-test")
        ->finalize("interrupted");
    {
        std::ofstream out(dir + "/jobs.jsonl", std::ios::app);
        out << good << '\n' << bad_metric << '\n' << bad_attempts << '\n';
    }
    auto manifest = RunManifest::openOrCreate(dir, "nonnumeric-test");
    EXPECT_EQ(manifest->completedCount(), 1u);
    EXPECT_NE(manifest->find("good"), nullptr);
    EXPECT_EQ(manifest->find("bad-metric"), nullptr);
    EXPECT_EQ(manifest->find("bad-attempts"), nullptr);

    // On resume the two dropped cells run again; the good one does not.
    std::size_t executed = 0;
    const JobFn fn = [&executed](JobContext &) {
        ++executed;
        return awkwardMetrics();
    };
    const std::vector<JobSpec> specs = {{"good", fn, "good"},
                                        {"bad-metric", fn, "bad-metric"},
                                        {"bad-attempts", fn,
                                         "bad-attempts"}};
    clearInterrupt();
    JobRunner runner(quietOpts(1));
    runner.attachManifest(manifest.get());
    const auto results = runner.run(specs);
    EXPECT_EQ(executed, 2u);
    EXPECT_TRUE(results[0].resumed);
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_FALSE(results[i].resumed) << results[i].label;
        EXPECT_TRUE(results[i].ok) << results[i].label;
        EXPECT_EQ(results[i].metrics.ipc, awkwardMetrics().ipc);
    }
    EXPECT_EQ(manifest->completedCount(), 3u);
}

TEST(DurableDeathTest, ManifestRefusesForeignRunDirectory)
{
    const std::string dir = freshDir("mismatch");
    RunManifest::openOrCreate(dir, "sweep designs=A apps=x")
        ->finalize("interrupted");

    // Resuming with different grid options would silently mix
    // incompatible results into one complete-looking CSV.
    EXPECT_EXIT(RunManifest::openOrCreate(dir, "sweep designs=B apps=x"),
                ::testing::ExitedWithCode(1), "different batch");

    // Not a dcl1 manifest at all: the pinned incompatible-run-dir
    // code (6), so a script can tell "wrong build for this directory"
    // apart from a bad flag (1).
    const std::string bogus = freshDir("bogus");
    {
        std::ofstream out(bogus + "/manifest.json");
        out << "not json at all\n";
    }
    EXPECT_EXIT(RunManifest::openOrCreate(bogus, "anything"),
                ::testing::ExitedWithCode(kExitIncompatibleRunDir),
                "unreadable manifest");

    // A manifest from an incompatible build signature (WAL schema /
    // DCL1_CHECK mode) exits the same way.
    const std::string old = freshDir("oldbuild");
    {
        std::ofstream out(old + "/manifest.json");
        out << "{\"signature\":\"wal-schema=0 check=0\","
               "\"config\":\"anything\",\"status\":\"complete\","
               "\"completed\":0}\n";
    }
    EXPECT_EXIT(RunManifest::openOrCreate(old, "anything"),
                ::testing::ExitedWithCode(kExitIncompatibleRunDir),
                "incompatible build");
}

TEST(Durable, CrashRecordRoundTripsReplayConfig)
{
    const std::string dir = freshDir("crash");

    JobResult result;
    result.index = 3;
    result.label = "Private-40/LeNet";
    result.kind = FailureKind::Timeout;
    result.attempts = 3;
    result.error = "cycle budget exceeded: 8000 > 4000";
    const std::string context =
        "\"design\":\"Private-40\",\"app\":\"LeNet\",\"cores\":40,"
        "\"slices\":16,\"channels\":8,\"seed\":7,\"measure\":2000,"
        "\"warmup\":500";
    writeCrashRecord(dir, result, context);

    // Labels contain '/', which must not become a path component.
    EXPECT_EQ(crashRecordName(3, "Private-40/LeNet"),
              "job003-Private-40_LeNet.json");
    const std::string path =
        dir + "/" + crashRecordName(result.index, result.label);
    ASSERT_TRUE(fileExists(path));

    const CrashConfig cfg = loadCrashRecord(path);
    EXPECT_EQ(cfg.design, "Private-40");
    EXPECT_EQ(cfg.app, "LeNet");
    EXPECT_TRUE(cfg.trace.empty());
    EXPECT_EQ(cfg.cores, 40u);
    EXPECT_EQ(cfg.slices, 16u);
    EXPECT_EQ(cfg.channels, 8u);
    EXPECT_EQ(cfg.seed, 7u);
    EXPECT_EQ(cfg.measure, 2000u);
    EXPECT_EQ(cfg.warmup, 500u);
    EXPECT_EQ(cfg.label, "Private-40/LeNet");
    EXPECT_EQ(cfg.error, result.error);
}

TEST(DurableDeathTest, ConfiglessCrashRecordCannotReplay)
{
    const std::string dir = freshDir("crash-bare");
    JobResult result;
    result.index = 0;
    result.label = "uncooperative";
    result.kind = FailureKind::WorkerException;
    writeCrashRecord(dir, result, ""); // job never set a crash context

    const std::string path =
        dir + "/" + crashRecordName(result.index, result.label);
    ASSERT_TRUE(fileExists(path));
    EXPECT_EXIT(loadCrashRecord(path), ::testing::ExitedWithCode(1),
                "no replayable config");
}

TEST(DurableDeathTest, CrashRecordWithNonNumericFieldCannotReplay)
{
    const std::string dir = freshDir("crash-garbage");
    JobResult result;
    result.index = 0;
    result.label = "Baseline/T-AlexNet";
    result.kind = FailureKind::Timeout;
    writeCrashRecord(dir, result,
                     "\"design\":\"Baseline\",\"app\":\"T-AlexNet\","
                     "\"measure\":garbage,\"warmup\":1000");
    const std::string path =
        dir + "/" + crashRecordName(result.index, result.label);
    EXPECT_EXIT(loadCrashRecord(path), ::testing::ExitedWithCode(1),
                "field measure: 'garbage' is not a number");

    // Trailing garbage and an empty value are rejected the same way.
    writeCrashRecord(dir, result,
                     "\"design\":\"Baseline\",\"app\":\"T-AlexNet\","
                     "\"cores\":8x");
    EXPECT_EXIT(loadCrashRecord(path), ::testing::ExitedWithCode(1),
                "field cores: trailing garbage in '8x'");
    writeCrashRecord(dir, result,
                     "\"design\":\"Baseline\",\"app\":\"T-AlexNet\","
                     "\"seed\":,\"warmup\":10");
    EXPECT_EXIT(loadCrashRecord(path), ::testing::ExitedWithCode(1),
                "field seed: empty value");
}

TEST(Durable, InterruptFlagIsCooperative)
{
    clearInterrupt();
    EXPECT_FALSE(interruptRequested());
    requestInterrupt();
    EXPECT_TRUE(interruptRequested());
    clearInterrupt();
    EXPECT_FALSE(interruptRequested());

    // A real SIGINT must only raise the flag, never kill the process.
    installSignalHandlers();
    std::raise(SIGINT);
    EXPECT_TRUE(interruptRequested());
    clearInterrupt();

    // SIGTERM — what `kill` and job schedulers send — drains the same
    // way instead of killing the process mid-record.
    std::raise(SIGTERM);
    EXPECT_TRUE(interruptRequested());
    clearInterrupt();
}

/** Injects an interrupt after N fresh completions (deterministic
 *  stand-in for Ctrl-C at an exact point in the batch). */
class InterruptAfterSink : public ResultSink
{
  public:
    explicit InterruptAfterSink(std::size_t after) : after_(after) {}

    void
    onJobDone(const JobResult &result) override
    {
        if (result.resumed || result.skipped)
            return;
        if (++done_ >= after_)
            requestInterrupt();
    }

  private:
    std::size_t after_;
    std::size_t done_ = 0;
};

/** Captures the end-of-run summary for assertions. */
class SummarySink : public ResultSink
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

std::string
csvOf(const std::vector<JobResult> &results)
{
    // %.17g on purpose: byte-identity catches any round-trip loss in
    // the WAL, not just "close enough" agreement.
    std::string csv = "label,ipc,l1_miss_rate,avg_read_latency\n";
    for (const auto &r : results)
        csv += csprintf("%s,%.17g,%.17g,%.17g\n", r.label.c_str(),
                        r.metrics.ipc, r.metrics.l1MissRate,
                        r.metrics.avgReadLatency);
    return csv;
}

/** Two designs by two catalog apps: the 4-cell keyed sweep that the
 *  resume tests cut short and then resume. */
JobSet
fourCellSweep()
{
    const auto catalog = workload::appCatalog();
    core::ExperimentOptions eopts;
    eopts.measureCycles = 2000;
    eopts.warmupCycles = 500;

    JobSet set;
    const core::SystemConfig sys;
    for (const auto &design :
         {core::baselineDesign(), core::privateDcl1(40)})
        for (std::size_t a = 0; a < std::min<std::size_t>(2, catalog.size());
             ++a)
            set.addCell(sys, design, catalog[a].params, eopts);
    return set;
}

/** CSV of @p set run start to finish in a fresh run directory. */
std::string
uninterruptedCsv(const JobSet &set, const std::string &config,
                 const std::string &dir_name)
{
    clearInterrupt();
    auto manifest = RunManifest::openOrCreate(freshDir(dir_name), config);
    JobRunner runner(quietOpts(1));
    runner.attachManifest(manifest.get());
    const auto results = runner.run(set.specs());
    for (const auto &r : results)
        EXPECT_TRUE(r.ok) << r.label << ": " << r.error;
    return csvOf(results);
}

/**
 * The ISSUE-level contract: kill a 4-job sweep after 2 completions,
 * resume it, and the combined output is byte-identical to a run that
 * was never interrupted.
 */
TEST(Durable, InterruptedSweepResumesByteIdentically)
{
    const JobSet set = fourCellSweep();
    ASSERT_EQ(set.size(), 4u);
    const std::string config = "test-sweep designs=2 apps=2";

    // Reference: the same batch, never interrupted.
    const std::string clean_csv =
        uninterruptedCsv(set, config, "resume-clean");

    // Interrupted: the injected Ctrl-C lands after two completions.
    const std::string dir = freshDir("resume-killed");
    {
        auto manifest = RunManifest::openOrCreate(dir, config);
        JobRunner runner(quietOpts(1));
        runner.attachManifest(manifest.get());
        InterruptAfterSink interrupter(2);
        SummarySink summary;
        runner.addSink(&interrupter);
        runner.addSink(&summary);
        const auto results = runner.run(set.specs());

        EXPECT_TRUE(summary.last.interrupted);
        EXPECT_EQ(summary.last.skippedJobs, 2u);
        EXPECT_TRUE(results[0].ok);
        EXPECT_TRUE(results[1].ok);
        EXPECT_TRUE(results[2].skipped);
        EXPECT_TRUE(results[3].skipped);
        EXPECT_EQ(manifest->completedCount(), 2u);

        const std::string manifest_json =
            readFile(dir + "/manifest.json");
        EXPECT_NE(manifest_json.find("\"status\":\"interrupted\""),
                  std::string::npos);
    }

    // Resume: first two cells come from the WAL, the rest simulate.
    clearInterrupt();
    {
        auto manifest = RunManifest::openOrCreate(dir, config);
        EXPECT_EQ(manifest->completedCount(), 2u);
        JobRunner runner(quietOpts(1));
        runner.attachManifest(manifest.get());
        SummarySink summary;
        runner.addSink(&summary);
        const auto results = runner.run(set.specs());

        EXPECT_TRUE(results[0].resumed);
        EXPECT_TRUE(results[1].resumed);
        EXPECT_FALSE(results[2].resumed);
        EXPECT_FALSE(results[3].resumed);
        for (const auto &r : results)
            ASSERT_TRUE(r.ok) << r.label << ": " << r.error;
        EXPECT_EQ(summary.last.resumedJobs, 2u);
        EXPECT_FALSE(summary.last.interrupted);
        EXPECT_EQ(manifest->completedCount(), 4u);

        EXPECT_EQ(csvOf(results), clean_csv);

        const std::string manifest_json =
            readFile(dir + "/manifest.json");
        EXPECT_NE(manifest_json.find("\"status\":\"complete\""),
                  std::string::npos);
    }
}

/**
 * A hard kill mid-cell — no drain, no finalize, no destructors, the
 * way SIGKILL or an out-of-memory kill ends a sweep — loses only the
 * cell in flight: the WAL keeps every record appended before it, and
 * a resume reproduces the uninterrupted CSV byte for byte.
 */
TEST(Durable, HardKilledSweepResumesByteIdentically)
{
    const JobSet set = fourCellSweep();
    ASSERT_EQ(set.size(), 4u);
    const std::string config = "test-sweep designs=2 apps=2 hard-kill";
    const std::string clean_csv =
        uninterruptedCsv(set, config, "hardkill-clean");

    // The third cell dies at its first run-loop heartbeat (cycle 4096),
    // mid-simulation, by _Exit: nothing is flushed, drained or
    // finalized after the two records already in the WAL.
    std::vector<JobSpec> specs = set.specs();
    specs[2].fn = [](JobContext &) -> core::RunMetrics {
        core::GpuSystem gpu(core::SystemConfig{}, core::privateDcl1(40),
                            workload::appCatalog()[0].params);
        gpu.run(Cycle(1) << 20, 0, [](Cycle) { std::_Exit(137); });
        return gpu.metrics();
    };
    const std::string dir = freshDir("hardkill");
    clearInterrupt();
    EXPECT_EXIT(
        {
            auto manifest = RunManifest::openOrCreate(dir, config);
            JobRunner runner(quietOpts(1));
            runner.attachManifest(manifest.get());
            runner.run(specs);
        },
        ::testing::ExitedWithCode(137), "");

    EXPECT_NE(readFile(dir + "/manifest.json")
                  .find("\"status\":\"running\""),
              std::string::npos);
    auto manifest = RunManifest::openOrCreate(dir, config);
    EXPECT_EQ(manifest->completedCount(), 2u);

    JobRunner runner(quietOpts(1));
    runner.attachManifest(manifest.get());
    SummarySink summary;
    runner.addSink(&summary);
    const auto results = runner.run(set.specs());
    EXPECT_TRUE(results[0].resumed);
    EXPECT_TRUE(results[1].resumed);
    EXPECT_FALSE(results[2].resumed);
    EXPECT_FALSE(results[3].resumed);
    for (const auto &r : results)
        ASSERT_TRUE(r.ok) << r.label << ": " << r.error;
    EXPECT_EQ(summary.last.resumedJobs, 2u);
    EXPECT_EQ(manifest->completedCount(), 4u);
    EXPECT_EQ(csvOf(results), clean_csv);
    EXPECT_NE(readFile(dir + "/manifest.json")
                  .find("\"status\":\"complete\""),
              std::string::npos);
}

} // anonymous namespace
