/**
 * @file
 * dcl1serve — multi-tenant serving driver: open-loop kernel-job
 * traffic over one shared GPU, tail-latency and fairness metrics.
 *
 *   dcl1serve --apps=mix.json --lambda=0.5 --policy=fcfs --seed=7
 *   dcl1serve --apps=T-AlexNet,C-BFS --lambda=0.2,0.5,1.0,2.0 \
 *             --policy=fcfs,sjf,rr --design=Baseline,Sh40+C10+Boost \
 *             --csv=sweep.csv
 *   dcl1serve --equivalence-check --app=T-AlexNet --design=Baseline
 *
 * `dcl1serve --help` lists every option (tools/cli.hh).
 * --equivalence-check verifies that one serve job granted every core
 * reproduces the classic path (--app, --design, --cycles, --seed) and
 * exits 2 on a digest mismatch.
 *
 * Determinism: the same flags and seed give byte-identical stdout,
 * CSV, and job logs for any --jobs value — job-log lines are emitted
 * at simulated completion cycles, summary rows in cell order after
 * the batch. Host wall time goes to stderr only.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "common/log.hh"
#include "core/experiment.hh"
#include "exec/atomic_file.hh"
#include "exec/exit_codes.hh"
#include "exec/job_runner.hh"
#include "exec/result_sink.hh"
#include "serve/serve_sim.hh"
#include "stats/stats.hh"
#include "tools/cli.hh"
#include "workload/app_catalog.hh"

using namespace dcl1;

namespace
{

struct Options
{
    std::string apps = "T-AlexNet";
    std::string arrivalsFile;
    std::vector<double> lambdas = {0.5};
    std::vector<std::string> policies = {"fcfs"};
    std::vector<std::string> designs = {"Baseline"};
    std::uint32_t cores = 80;
    std::uint32_t slices = 32;
    std::uint32_t channels = 16;
    std::uint64_t seed = 1;
    serve::ServeOptions run;  ///< per-cell policy and load unset
    exec::ExecOptions engine; ///< worker count
    std::string jobLogFile;
    std::string jobLogDir;
    std::string csvFile;
    bool equivalenceCheck = false;
    std::string eqApp = "T-AlexNet";
    Cycle eqCycles = 20000;
};

/** One (design, policy, lambda) point of the sweep. */
struct Cell
{
    std::string design;
    serve::Policy policy = serve::Policy::Fcfs;
    double lambda = 0.0;
    serve::ServeSummary summary;
};

std::string
csvRow(const Cell &c, std::uint64_t seed)
{
    using stats::formatDouble;
    const serve::ServeSummary &s = c.summary;
    std::string row = c.design + ',' + serve::policyName(c.policy);
    for (const std::string &field :
         {formatDouble(c.lambda), std::to_string(seed),
          std::to_string(s.offered), std::to_string(s.started),
          std::to_string(s.completed), std::to_string(s.censored),
          std::to_string(s.endCycle), formatDouble(s.offeredPerKcycle),
          formatDouble(s.completedPerKcycle), formatDouble(s.meanLatency),
          formatDouble(s.p50Latency), formatDouble(s.p95Latency),
          formatDouble(s.p99Latency), formatDouble(s.meanQueueDelay),
          formatDouble(s.jainFairness), formatDouble(s.machine.ipc),
          formatDouble(s.machine.l1MissRate)})
        row += ',' + field;
    return row;
}

std::string
jobLogPathFor(const std::string &dir, const Cell &c)
{
    std::string lam = stats::formatDouble(c.lambda);
    for (char &ch : lam)
        if (ch == '.')
            ch = 'p';
    return dir + "/" + c.design + "_" + serve::policyName(c.policy) +
           "_" + lam + ".jsonl";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options o;
    using cli::kMaxI64;
    cli::Flags f("dcl1serve — multi-tenant serving: job traffic, tail "
                 "latency");
    f.text("--apps=X", "job mix: a .json mix file or a comma list of apps",
           o.apps);
    f.text("--arrivals=FILE", "trace-driven arrivals JSONL (no --lambda)",
           o.arrivalsFile);
    f.reals("--lambda=R[,R..]", "offered loads, jobs per 1000 cycles",
            o.lambdas, 0.0, cli::kMaxReal);
    f.list("--policy=P[,P..]", "fcfs | sjf | rr", o.policies);
    f.list("--design=D[,D..]", "design presets", o.designs);
    f.integer("--num-jobs=N", "offered jobs per cell", o.run.numJobs, 1,
              1'000'000'000);
    f.integer("--horizon=N", "hard cycle cap", o.run.horizon, 1, kMaxI64);
    cli::addPlatformFlags(f, o);
    f.integer("--default-cores=N", "cores per job the mix does not size",
              o.run.defaultCores, 1, 1'000'000);
    f.real("--budget-scale=X", "scale every job's instruction budget",
           o.run.budgetScale, 0.0, cli::kMaxReal);
    f.text("--job-log=FILE", "per-job JSONL (single cell)", o.jobLogFile);
    f.text("--job-log-dir=DIR", "per-job JSONL per cell", o.jobLogDir);
    f.text("--csv=FILE", "summary CSV, one row per cell", o.csvFile);
    f.integer("--jobs=N", "worker threads", o.engine.jobs, 1, 4096);
    f.flag("--equivalence-check", "one serve job == the classic run",
           o.equivalenceCheck);
    f.text("--app=NAME", "--equivalence-check app", o.eqApp);
    f.integer("--cycles=N", "--equivalence-check cycles", o.eqCycles, 1,
              kMaxI64);
    if (!f.parse(argc, argv))
        return exec::kExitOk;

    core::SystemConfig sys =
        core::SystemConfig::scaled(o.cores, o.slices, o.channels);
    sys.seed = o.seed;

    if (o.equivalenceCheck) {
        bool all_ok = true;
        for (const std::string &dname : o.designs) {
            const core::DesignConfig design = core::designByName(dname);
            const serve::EquivalenceReport rep =
                serve::checkSingleJobEquivalence(sys, design, o.eqApp,
                                                 o.eqCycles);
            std::printf("%-18s %-14s classic %016llx serve %016llx  %s\n",
                        dname.c_str(), o.eqApp.c_str(),
                        static_cast<unsigned long long>(rep.classicDigest),
                        static_cast<unsigned long long>(rep.serveDigest),
                        rep.match ? "MATCH" : "MISMATCH");
            all_ok = all_ok && rep.match;
        }
        return all_ok ? exec::kExitOk : exec::kExitRunFailed;
    }

    // Job mix: a .json mix file or a comma list of catalog apps.
    const bool mixIsFile =
        o.apps.size() > 5 &&
        o.apps.compare(o.apps.size() - 5, 5, ".json") == 0;
    const serve::JobMix mix = mixIsFile ? serve::loadMixFile(o.apps)
                                        : serve::mixFromAppList(o.apps);

    if (!o.arrivalsFile.empty())
        o.run.trace = serve::loadJobTrace(o.arrivalsFile);

    // Trace-driven arrivals make one load point, labelled 0.
    const std::vector<double> lambdas =
        o.run.trace.empty() ? o.lambdas : std::vector<double>{0.0};
    if (o.run.trace.empty())
        for (const double l : lambdas)
            if (!(l > 0.0))
                fatal("--lambda: '%s' is not a positive rate",
                      stats::formatDouble(l).c_str());
    if (o.designs.empty() || o.policies.empty() || lambdas.empty())
        fatal("need at least one design, policy, and lambda");

    std::vector<Cell> cells;
    for (const std::string &d : o.designs)
        for (const std::string &p : o.policies)
            for (const double l : lambdas) {
                Cell c;
                c.design = d;
                c.policy = serve::policyByName(p);
                c.lambda = l;
                cells.push_back(std::move(c));
            }

    if (!o.jobLogFile.empty() && cells.size() > 1)
        fatal("--job-log needs a single cell (%zu configured); "
              "use --job-log-dir",
              cells.size());

    o.engine.maxRetries = 0;
    exec::JobRunner runner(o.engine);
    std::vector<exec::JobSpec> specs(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        Cell &cell = cells[i];
        specs[i].label = cell.design + "/" +
                         serve::policyName(cell.policy) + "/" +
                         stats::formatDouble(cell.lambda);
        specs[i].fn = [&, i](exec::JobContext &) {
            Cell &me = cells[i];
            const core::DesignConfig design =
                core::designByName(me.design);
            serve::ServeOptions sopts = o.run;
            sopts.policy = me.policy;
            sopts.lambdaJobsPerKcycle = me.lambda; // unused with a trace
            sopts.seed = o.seed;
            serve::ServeSim sim(sys, design, mix, sopts);
            std::unique_ptr<exec::AppendLog> log;
            std::string path = o.jobLogFile;
            if (path.empty() && !o.jobLogDir.empty())
                path = jobLogPathFor(o.jobLogDir, me);
            if (!path.empty()) {
                log = std::make_unique<exec::AppendLog>(path);
                exec::AppendLog *raw = log.get();
                sim.setJobLogSink([raw](const std::string &line) {
                    raw->appendLine(line);
                });
            }
            me.summary = sim.run();
            return me.summary.machine;
        };
    }
    const std::vector<exec::JobResult> results = runner.run(specs);

    bool failed = false;
    for (const exec::JobResult &r : results) {
        if (r.ok)
            continue;
        failed = true;
        std::fprintf(stderr, "dcl1serve: cell %s failed (%s): %s\n",
                     r.label.c_str(), exec::failureKindName(r.kind),
                     r.error.c_str());
    }

    std::printf("platform   %s\n", sys.summary().c_str());
    std::printf("mix        %s (%zu entr%s)%s\n", o.apps.c_str(),
                mix.entries.size(),
                mix.entries.size() == 1 ? "y" : "ies",
                o.run.trace.empty() ? "" : " [trace-driven arrivals]");
    std::printf("%-18s %-5s %7s %6s %6s %5s %9s %9s %9s %7s %6s\n",
                "design", "pol", "lambda", "jobs", "done", "cens",
                "p50", "p95", "p99", "goodput", "jain");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!results[i].ok) {
            std::printf("%-18s %-5s %7s  FAILED\n",
                        cells[i].design.c_str(),
                        serve::policyName(cells[i].policy),
                        stats::formatDouble(cells[i].lambda).c_str());
            continue;
        }
        const serve::ServeSummary &s = cells[i].summary;
        std::printf(
            "%-18s %-5s %7s %6zu %6zu %5zu %9.0f %9.0f %9.0f %7.3f "
            "%6.3f\n",
            cells[i].design.c_str(), serve::policyName(cells[i].policy),
            stats::formatDouble(cells[i].lambda).c_str(), s.offered,
            s.completed, s.censored, s.p50Latency, s.p95Latency,
            s.p99Latency, s.completedPerKcycle, s.jainFairness);
    }

    if (!o.csvFile.empty()) {
        exec::AtomicFileWriter out(o.csvFile);
        out.stream() << "design,policy,lambda,seed,offered,started,"
                        "completed,censored,end_cycle,"
                        "offered_per_kcycle,goodput_per_kcycle,"
                        "mean_latency,p50_latency,p95_latency,"
                        "p99_latency,mean_queue_delay,jain_fairness,"
                        "ipc,l1_missrate\n";
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (!results[i].ok)
                continue;
            out.stream() << csvRow(cells[i], o.seed) << "\n";
        }
        out.commit();
        inform("summary CSV written to %s", o.csvFile.c_str());
    }

    double total_ms = 0.0;
    for (const exec::JobResult &r : results)
        total_ms += r.wallMs;
    std::fprintf(stderr, "host time  %.1f ms over %zu cells\n",
                 total_ms, cells.size());

    return failed ? exec::kExitRunFailed : exec::kExitOk;
}
