/**
 * @file
 * dcl1sweep — parallel grid runner emitting CSV for external
 * analysis/plotting.
 *
 *   dcl1sweep --designs=Baseline,Pr40,Sh40+C10+Boost \
 *             --apps=T-AlexNet,C-BFS --out=results.csv --jobs=8
 *   dcl1sweep --run-dir=runs/main --out=results.csv   # durable
 *   dcl1sweep --resume=runs/main  --out=results.csv   # continue it
 *
 * Omitting --apps sweeps the whole 28-app catalog; omitting --designs
 * sweeps the paper's main five. Columns: design, app, ipc, speedup,
 * l1_missrate, repl_ratio, avg_replicas, read_rtt, noc1_flits,
 * noc2_flits, dram_reads. `dcl1sweep --help` lists every option
 * (tools/cli.hh).
 *
 * The grid runs on the src/exec engine: independent cells execute
 * concurrently (--jobs=N or DCL1_JOBS; default one worker per
 * hardware thread), each app's Baseline run is simulated once and
 * reused as the speedup denominator (and as the Baseline row when
 * Baseline is listed in --designs), and rows are written in grid
 * order after the batch — CSV output is byte-identical for any
 * --jobs value, and (via the run manifest's "%.17g" metric
 * round-trip) for any interrupt/resume split of the batch.
 *
 * Failures follow the retry-with-quarantine policy: a cell that
 * exceeds --budget retries up to --retries times with a doubling
 * budget; a panic/fatal inside the model is deterministic and is
 * quarantined immediately with a structured crash record under
 * <run-dir>/crash/ (or --crash-dir). The sweep always completes with
 * partial results; see --help for the exit-code contract. SIGINT or
 * SIGTERM drains in-flight cells, finalizes the manifest, and exits
 * resumable. --jsonl=FILE (or DCL1_JOBS_LOG) appends per-job wall
 * time and outcome records.
 *
 * With --timeline-dir, each job's timeline path is surfaced in the
 * end-of-run report and recorded in jobs.jsonl, so a resumed run can
 * find the partial timelines of cells it skips.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "common/env.hh"
#include "common/log.hh"
#include "core/experiment.hh"
#include "exec/exit_codes.hh"
#include "exec/interrupt.hh"
#include "exec/job_runner.hh"
#include "exec/job_set.hh"
#include "exec/run_manifest.hh"
#include "tools/cli.hh"
#include "workload/app_catalog.hh"

using namespace dcl1;

namespace
{

/**
 * Deterministic interrupt injection for the kill-and-resume tests and
 * the CI smoke job: raises the same flag a real SIGINT would, after N
 * freshly simulated jobs have completed.
 */
class InterruptAfterSink : public exec::ResultSink
{
  public:
    explicit InterruptAfterSink(std::size_t after) : after_(after) {}

    void
    onJobDone(const exec::JobResult &result) override
    {
        if (result.resumed || result.skipped)
            return;
        if (++done_ >= after_)
            exec::requestInterrupt();
    }

  private:
    std::size_t after_;
    std::size_t done_ = 0;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> design_names = {
        "Baseline", "Pr40", "Sh40", "Sh40+C10", "Sh40+C10+Boost"};
    std::vector<std::string> app_names;
    std::string out_path = "-";
    std::string run_dir = envStrOr("DCL1_RUN_DIR", "");
    bool resume_only = false;
    std::size_t interrupt_after = 0;
    bool timeline_requested = false;
    std::string timeline_dir;
    Cycle timeline_interval = 0;
    exec::ExecOptions eopts = exec::ExecOptions::fromEnv();

    cli::Flags f("dcl1sweep — parallel (design, app) grid runner -> CSV");
    f.list("--designs=A,B,..", "designs", design_names);
    f.list("--apps=A,B,..", "catalog apps (default: all 28)", app_names);
    f.text("--out=FILE", "CSV output ('-' = stdout)", out_path);
    f.integer("--jobs=N", "worker threads (DCL1_JOBS; 0: one per core)",
              eopts.jobs, 1, 4096);
    f.flag("--profile", "host phase profiling (DCL1_PROF)", eopts.profile);
    f.integer("--budget=N", "per-cell cycle watchdog (DCL1_JOB_BUDGET)",
              eopts.cycleBudget, 1, cli::kMaxI64);
    f.integer("--retries=N", "retries of retryable failures (DCL1_RETRIES)",
              eopts.maxRetries, 0, 100);
    f.text("--run-dir=DIR", "durable run directory (DCL1_RUN_DIR)",
           run_dir);
    f.valued("--resume=DIR", "continue the run in DIR, which must exist",
             [&](const std::string &dir) {
                 run_dir = dir;
                 resume_only = true;
             });
    f.text("--crash-dir=DIR", "crash records (DCL1_CRASH_DIR)",
           eopts.crashDir);
    f.text("--jsonl=FILE", "per-job JSON records (DCL1_JOBS_LOG)",
           eopts.jsonlPath);
    f.flag("--timeline-dir", "one timeline per cell in <run-dir>/timeline",
           timeline_requested);
    f.valued("--timeline-dir=DIR", "one timeline per cell in DIR",
             [&](const std::string &dir) {
                 timeline_dir = dir;
                 timeline_requested = true;
             });
    f.integer("--timeline-interval=N", "cycles per timeline row",
              timeline_interval, 1, cli::kMaxI64);
    f.integer("--interrupt-after=N", "testing: SIGINT after N cells",
              interrupt_after, 1, cli::kMaxI64);
    if (!f.parse(argc, argv))
        return exec::kExitOk;
    if (app_names.empty())
        for (const auto &app : workload::appCatalog())
            app_names.push_back(app.params.name);

    core::SystemConfig sys;
    const auto opts = core::ExperimentOptions::fromEnv();

    // Declare the grid. Memoization makes the per-app Baseline run and
    // a "Baseline" entry in --designs the same job.
    exec::JobSet set;
    if (timeline_requested) {
        if (timeline_dir.empty())
            timeline_dir =
                run_dir.empty() ? "timeline" : run_dir + "/timeline";
        set.setTimelineDir(timeline_dir, timeline_interval);
    }
    struct Row
    {
        std::size_t jobIndex;
        std::size_t baseIndex;
        std::string design;
        std::string app;
    };
    std::vector<Row> rows;
    for (const auto &app_name : app_names) {
        const auto &app = workload::appByName(app_name);
        const std::size_t base_index = set.addCell(
            sys, core::baselineDesign(), app.params, opts);
        for (const auto &dn : design_names) {
            const auto design = core::designByName(dn);
            const std::size_t index =
                set.addCell(sys, design, app.params, opts);
            rows.push_back({index, base_index, dn, app_name});
        }
    }

    // Durable-run identity: everything that determines the grid and
    // its results. Runtime knobs (--jobs, --budget, --retries) are
    // deliberately absent — resuming with a larger budget to recover
    // timed-out cells is the point of the retry policy.
    std::unique_ptr<exec::RunManifest> manifest;
    if (!run_dir.empty()) {
        const std::string config = csprintf(
            "dcl1sweep designs=%s apps=%s cycles=%llu/%llu "
            "platform=[%s] seed=%llu",
            joinList(design_names).c_str(), joinList(app_names).c_str(),
            static_cast<unsigned long long>(opts.measureCycles),
            static_cast<unsigned long long>(opts.warmupCycles),
            sys.summary().c_str(),
            static_cast<unsigned long long>(sys.seed));
        if (resume_only && !std::ifstream(run_dir + "/manifest.json"))
            fatal("--resume=%s: no manifest.json there — start the "
                  "batch with --run-dir=%s first",
                  run_dir.c_str(), run_dir.c_str());
        manifest = exec::RunManifest::openOrCreate(run_dir, config);
        if (manifest->completedCount() > 0)
            std::fprintf(stderr,
                         "[sweep] resuming '%s': %zu completed "
                         "record(s) on file\n",
                         run_dir.c_str(), manifest->completedCount());
    }

    exec::installSignalHandlers();

    exec::JobRunner runner(eopts);
    if (manifest)
        runner.attachManifest(manifest.get());
    exec::ProgressSink progress;
    if (eopts.progress)
        runner.addSink(&progress);
    std::unique_ptr<exec::JsonlSink> jsonl;
    if (!eopts.jsonlPath.empty()) {
        jsonl = std::make_unique<exec::JsonlSink>(eopts.jsonlPath);
        runner.addSink(jsonl.get());
    }
    std::unique_ptr<InterruptAfterSink> injector;
    if (interrupt_after > 0) {
        injector = std::make_unique<InterruptAfterSink>(interrupt_after);
        runner.addSink(injector.get());
    }

    const std::vector<exec::JobResult> results = runner.run(set.specs());

    // Interrupted: no CSV — a partial file that looks complete is the
    // exact failure mode the durable layer exists to prevent.
    bool interrupted = false;
    for (const exec::JobResult &r : results)
        interrupted = interrupted || r.skipped;
    if (exec::interruptRequested())
        interrupted = true;
    if (interrupted) {
        std::fprintf(stderr,
                     "[sweep] interrupted; %s\n",
                     run_dir.empty()
                         ? "no run directory, progress was not saved "
                           "(use --run-dir=DIR)"
                         : csprintf("resume with --resume=%s",
                                    run_dir.c_str())
                               .c_str());
        return exec::kExitResumable;
    }

    // Emit rows in grid order: output is independent of completion
    // order and therefore of --jobs and of any interrupt/resume split.
    std::ostringstream csv;
    std::size_t failed_rows = 0;
    csv << "design,app,ipc,speedup,l1_missrate,repl_ratio,avg_replicas,"
           "read_rtt,noc1_flits,noc2_flits,dram_reads\n";
    for (const Row &row : rows) {
        const exec::JobResult &r = results[row.jobIndex];
        const exec::JobResult &base = results[row.baseIndex];
        if (!r.ok || !base.ok) {
            ++failed_rows;
            std::fprintf(stderr, "[sweep] dropping row %s,%s: %s\n",
                         row.design.c_str(), row.app.c_str(),
                         (!r.ok ? r.error : base.error).c_str());
            continue;
        }
        const core::RunMetrics &rm = r.metrics;
        const double base_ipc = base.metrics.ipc;
        csv << row.design << ',' << row.app << ',' << rm.ipc << ','
            << (base_ipc > 0 ? rm.ipc / base_ipc : 0.0) << ','
            << rm.l1MissRate << ',' << rm.replicationRatio << ','
            << rm.avgReplicas << ',' << rm.avgReadLatency << ','
            << rm.noc1Flits << ',' << rm.noc2Flits << ','
            << rm.dramReads << '\n';
    }

    if (out_path == "-") {
        std::cout << csv.str();
    } else {
        // Atomic publish: the CSV either keeps its previous content or
        // gains the complete new one; a kill mid-write cannot leave a
        // plausible-looking truncated file.
        exec::AtomicFileWriter out(out_path);
        out.stream() << csv.str();
        out.commit();
    }

    // Quarantine report + exit-code contract (see exec/exit_codes.hh).
    std::size_t failed_cells = 0, quarantined_cells = 0;
    for (const exec::JobResult &r : results) {
        if (r.ok)
            continue;
        ++failed_cells;
        if (r.quarantined)
            ++quarantined_cells;
    }
    if (quarantined_cells > 0) {
        std::fprintf(stderr,
                     "[sweep] quarantined (deterministic failures; "
                     "retry/resume cannot recover them):\n");
        for (const exec::JobResult &r : results)
            if (r.quarantined)
                std::fprintf(stderr, "[sweep]   %-28s %s: %s\n",
                             r.label.c_str(),
                             exec::failureKindName(r.kind),
                             r.error.c_str());
    }
    if (failed_rows > 0)
        std::fprintf(stderr, "[sweep] %zu row(s) dropped\n",
                     failed_rows);
    if (failed_cells == 0)
        return exec::kExitOk;
    return failed_cells == quarantined_cells ? exec::kExitQuarantined
                                             : exec::kExitFailedCells;
}
