/**
 * @file
 * dcl1run — command-line simulator driver.
 *
 * Run one (design, workload) simulation on the Table II platform and
 * print headline metrics; optionally dump the full statistics tree.
 *
 *   dcl1run --design=Sh40+C10+Boost --app=T-AlexNet
 *   dcl1run --design=Baseline --trace=my.trace --cycles=100000
 *   dcl1run --list-apps
 *   dcl1run --list-designs
 *
 * `dcl1run --help` lists every option (tools/cli.hh).
 *
 * The simulation executes as a single job of the src/exec engine: a
 * panic inside the model is reported as a failed run (exit 2) with
 * its message instead of aborting, and host wall time is measured.
 * On failure the job's crash context (configuration, last cycle,
 * queue depths, recent ledger events under DCL1_CHECK) lands in
 * --crash-dir, and `--replay-crash=<that file>` turns the forensic
 * record back into a live simulation.
 */

#include <cstdio>
#include <iostream>

#include "common/env.hh"
#include "common/log.hh"
#include "core/experiment.hh"
#include "core/gpu_system.hh"
#include "exec/atomic_file.hh"
#include "exec/crash_record.hh"
#include "exec/exit_codes.hh"
#include "exec/job_runner.hh"
#include "exec/job_set.hh"
#include "stats/prof_trace.hh"
#include "tools/cli.hh"
#include "workload/app_catalog.hh"
#include "workload/trace_file.hh"

using namespace dcl1;

namespace
{

struct Options
{
    /// The simulated cell: exactly what a crash record replays.
    exec::CrashConfig cell;
    std::string statsFile;
    std::string statsJsonFile;
    std::string timelineFile;
    Cycle timelineInterval = 0;    ///< 0 = DCL1_TIMELINE_INTERVAL
    std::string traceOutFile;
    std::uint32_t latencyEvery = 0; ///< 0 = attribution disabled
    std::string jsonlFile;
    std::string crashDir;
    std::string replayCrash;
    bool profile = false;
    std::string profileFile;
    bool drain = false;
    bool listApps = false;
    bool listDesigns = false;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options o;
    o.cell.design = "Sh40+C10+Boost";
    o.cell.app = "T-AlexNet";
    using cli::kMaxI64;
    cli::Flags f("dcl1run — run one (design, workload) simulation");
    f.text("--design=NAME", "Baseline | PrY | ShY | ShY+CZ[+Boost] | CDXBar*",
           o.cell.design);
    f.text("--app=NAME", "catalog application (--list-apps)", o.cell.app);
    f.text("--trace=FILE", "replay a trace file instead of --app",
           o.cell.trace);
    f.integer("--cycles=N", "measured cycles", o.cell.measure, 1, kMaxI64);
    f.integer("--warmup=N", "warmup cycles", o.cell.warmup, 0, kMaxI64);
    cli::addPlatformFlags(f, o.cell);
    f.text("--stats=FILE", "statistics tree ('-' = stdout)", o.statsFile);
    // std::string("-"): a one-char literal assigned here trips GCC 12's
    // false-positive -Wrestrict in optimized builds.
    f.bare("--stats-json", "statistics tree as JSON on stdout",
           [&o] { o.statsJsonFile = std::string("-"); });
    f.text("--stats-json=FILE", "statistics tree as JSON", o.statsJsonFile);
    f.bare("--timeline", "interval timeline JSONL to timeline.jsonl",
           [&o] { o.timelineFile = "timeline.jsonl"; });
    f.text("--timeline=FILE", "interval timeline JSONL", o.timelineFile);
    f.integer("--timeline-interval=N",
              "cycles per row (DCL1_TIMELINE_INTERVAL)", o.timelineInterval,
              1, kMaxI64);
    f.bare("--latency", "latency attribution of every read",
           [&o] { o.latencyEvery = 1; });
    f.integer("--latency=N", "latency attribution, 1-in-N reads",
              o.latencyEvery, 1, cli::kMaxU32);
    f.bare("--trace", "Chrome trace to trace.json; implies --latency",
           [&o] { o.traceOutFile = "trace.json"; });
    f.text("--trace-out=FILE", "Chrome trace to FILE", o.traceOutFile);
    f.flag("--drain", "drain in-flight traffic and report", o.drain);
    f.flag("--profile", "host phase profile on stderr (DCL1_PROF)", o.profile);
    f.valued("--profile=FILE", "host phase profile, JSON also to FILE",
             [&o](const std::string &file) {
                 o.profile = true;
                 o.profileFile = file;
             });
    f.text("--jsonl=FILE", "append a JSON run record", o.jsonlFile);
    f.text("--crash-dir=DIR", "crash record on failure (DCL1_CRASH_DIR)",
           o.crashDir);
    f.text("--replay-crash=FILE", "re-run the cell a crash record holds",
           o.replayCrash);
    f.flag("--list-apps", "print the application catalog", o.listApps);
    f.flag("--list-designs", "print the design presets", o.listDesigns);
    if (!f.parse(argc, argv))
        return exec::kExitOk;

    if (!o.replayCrash.empty()) {
        // Forensic replay: rebuild exactly the cell the crash record
        // describes. The record replaces the cell options (design,
        // app, trace, platform, cycles, warmup) wherever they appear
        // on the command line; every other option applies.
        o.cell = exec::loadCrashRecord(o.replayCrash);
        inform("replaying crash record '%s' (%s): %s",
               o.replayCrash.c_str(), o.cell.label.c_str(),
               o.cell.error.empty() ? "no recorded error"
                                    : o.cell.error.c_str());
    }
    const exec::CrashConfig &cell = o.cell;

    if (o.listApps) {
        for (const auto &app : workload::appCatalog())
            std::printf("%-14s suite %s %s\n", app.params.name.c_str(),
                        app.params.suite.c_str(),
                        app.replicationSensitive
                            ? "(replication-sensitive)"
                            : "");
        return 0;
    }
    if (o.listDesigns) {
        std::printf("Baseline  PrY (Y in 80/40/20/10)  ShY  ShY+CZ  "
                    "ShY+CZ+Boost  CDXBar  CDXBar+2xNoC1  "
                    "CDXBar+2xNoC\n");
        return 0;
    }

    core::SystemConfig sys =
        core::SystemConfig::scaled(cell.cores, cell.slices, cell.channels);
    sys.seed = cell.seed;
    const core::DesignConfig design = core::designByName(cell.design);

    std::unique_ptr<core::GpuSystem> gpu;
    if (!cell.trace.empty()) {
        // Trace mode: the parsed trace is the workload; a params shell
        // carries its name and warp count.
        auto source = std::make_unique<workload::TraceFileSource>(
            cell.trace, cell.cores);
        workload::WorkloadParams shell;
        shell.name = cell.trace;
        shell.warpsPerCore = source->warpsPerCore(0);
        inform("trace '%s': %llu instructions, %u warps/core",
               cell.trace.c_str(),
               static_cast<unsigned long long>(source->instructionCount()),
               shell.warpsPerCore);
        gpu = std::make_unique<core::GpuSystem>(sys, design, shell,
                                                std::move(source));
    } else {
        const auto &app = workload::appByName(cell.app);
        gpu = std::make_unique<core::GpuSystem>(sys, design, app.params);
    }

    // Telemetry, all opt-in: attribution first (trace slices come from
    // attributed requests), then the timeline, then the trace sink.
    if (!o.traceOutFile.empty() && o.latencyEvery == 0)
        o.latencyEvery = 1;
    if (o.latencyEvery > 0)
        gpu->enableLatency(o.latencyEvery);
    std::unique_ptr<exec::AppendLog> timeline_log;
    if (!o.timelineFile.empty()) {
        timeline_log = std::make_unique<exec::AppendLog>(o.timelineFile);
        exec::AppendLog *log = timeline_log.get();
        const Cycle interval = o.timelineInterval != 0
                                   ? o.timelineInterval
                                   : core::timelineIntervalFromEnv();
        gpu->enableTimeline(interval, [log](const std::string &row) {
            log->appendLine(row);
        });
    }
    std::unique_ptr<stats::TraceExport> trace_export;
    if (!o.traceOutFile.empty()) {
        trace_export = std::make_unique<stats::TraceExport>();
        gpu->enableTrace(trace_export.get());
    }

    // One job on the execution engine (inline on this thread, so
    // drain/stats below stay on the thread that built the machine):
    // faults become a reported failure, and the record carries host
    // wall time.
    exec::ExecOptions eopts;
    eopts.jobs = 1;
    eopts.maxRetries = 0; // interactive single shot; no silent re-runs
    eopts.crashDir = o.crashDir;
    if (eopts.crashDir.empty())
        eopts.crashDir = envStrOr("DCL1_CRASH_DIR", "");
    eopts.jsonlPath = o.jsonlFile;
    eopts.profile = o.profile || envIsSet("DCL1_PROF");
    exec::JobRunner runner(eopts);
    std::vector<exec::JobSpec> specs(1);
    specs[0].label =
        design.name + "/" + (cell.trace.empty() ? cell.app : cell.trace);
    exec::CrashConfig replay = cell;
    replay.design = design.name;
    specs[0].fn = [&](exec::JobContext &ctx) {
        return exec::runSimulation(*gpu, replay, ctx);
    };
    const std::vector<exec::JobResult> results = runner.run(specs);
    if (!results[0].ok) {
        std::fprintf(stderr, "dcl1run: simulation failed (%s): %s\n",
                     exec::failureKindName(results[0].kind),
                     results[0].error.c_str());
        if (!eopts.crashDir.empty())
            std::fprintf(
                stderr,
                "dcl1run: crash record: %s/%s (replay with "
                "--replay-crash)\n",
                eopts.crashDir.c_str(),
                exec::crashRecordName(0, results[0].label).c_str());
        return exec::kExitRunFailed;
    }
    const core::RunMetrics &rm = results[0].metrics;

    std::printf("design     %s\n", design.name.c_str());
    std::printf("platform   %s\n", sys.summary().c_str());
    std::printf("workload   %s\n",
                cell.trace.empty() ? cell.app.c_str() : cell.trace.c_str());
    std::printf("cycles     %llu (+%llu warmup)\n",
                static_cast<unsigned long long>(rm.cycles),
                static_cast<unsigned long long>(cell.warmup));
    std::printf("IPC        %.3f\n", rm.ipc);
    std::printf("L1 miss    %.3f\n", rm.l1MissRate);
    std::printf("replratio  %.3f (avg replicas %.2f)\n",
                rm.replicationRatio, rm.avgReplicas);
    std::printf("read RTT   %.1f cycles\n", rm.avgReadLatency);
    std::printf("L2 miss    %.3f\n",
                rm.l2Accesses ? double(rm.l2Misses) / rm.l2Accesses
                              : 0.0);
    std::printf("DRAM       %llu reads, %llu writes\n",
                static_cast<unsigned long long>(rm.dramReads),
                static_cast<unsigned long long>(rm.dramWrites));
    if (gpu->latency()) {
        std::fflush(stdout);
        gpu->latency()->printBreakdown(std::cout);
        std::cout.flush();
    }
    // Host timing is observability, not simulation output: stderr, so
    // same-seed stdout stays byte-identical across runs.
    std::fprintf(stderr, "host time  %.1f ms\n", results[0].wallMs);
    if (results[0].prof.enabled) {
        results[0].prof.writeTable(stderr);
        if (!o.profileFile.empty()) {
            exec::AtomicFileWriter out(o.profileFile);
            out.stream() << results[0].prof.json() << "\n";
            out.commit();
            inform("profile written to %s", o.profileFile.c_str());
        }
    }

    if (o.drain) {
        const bool ok = gpu->drain();
        std::printf("drain      %s\n", ok ? "clean" : "TIMED OUT");
        if (!ok)
            return exec::kExitRunFailed;
    }

    if (!o.statsFile.empty()) {
        if (o.statsFile == "-") {
            gpu->dumpStats(std::cout);
        } else {
            exec::AtomicFileWriter out(o.statsFile);
            gpu->dumpStats(out.stream());
            out.commit();
            inform("stats written to %s", o.statsFile.c_str());
        }
    }
    if (!o.statsJsonFile.empty()) {
        if (o.statsJsonFile == "-") {
            gpu->dumpStatsJson(std::cout);
        } else {
            exec::AtomicFileWriter out(o.statsJsonFile);
            gpu->dumpStatsJson(out.stream());
            out.commit();
            inform("stats JSON written to %s", o.statsJsonFile.c_str());
        }
    }
    if (trace_export) {
        // Host phase slices ride along on their own track when both
        // --trace and --profile are on.
        if (results[0].prof.enabled)
            stats::exportHostPhases(*trace_export, results[0].prof);
        exec::AtomicFileWriter out(o.traceOutFile);
        trace_export->writeJson(out.stream());
        out.commit();
        inform("trace written to %s (%zu events, %zu dropped)",
               o.traceOutFile.c_str(), trace_export->events(),
               trace_export->dropped());
    }
    if (timeline_log)
        inform("timeline written to %s (%llu rows)",
               o.timelineFile.c_str(),
               static_cast<unsigned long long>(
                   gpu->timeline() ? gpu->timeline()->rows() : 0));
    return exec::kExitOk;
}
