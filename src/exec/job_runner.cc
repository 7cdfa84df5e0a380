#include "exec/job_runner.hh"

#include <algorithm>
#include <chrono>
#include <deque>
#include <filesystem>
#include <memory>
#include <thread>

#include "common/env.hh"
#include "common/log.hh"
#include "common/mutex.hh"
#include "common/thread_annotations.hh"
#include "exec/crash_record.hh"
#include "exec/interrupt.hh"
#include "exec/run_manifest.hh"

namespace dcl1::exec
{

namespace
{

// Host-side timing of the execution engine, never of simulated
// behavior; audited exception to the simulation no-wallclock rule.
using HostClock = std::chrono::steady_clock; // lint: wallclock-ok

double
msSince(HostClock::time_point start)
{
    return std::chrono::duration<double, std::milli>(HostClock::now() -
                                                     start)
        .count();
}

/** One worker's mutex-guarded job queue. */
struct WorkerDeque
{
    Mutex mutex;
    std::deque<std::size_t> jobs DCL1_GUARDED_BY(mutex);

    void
    pushBack(std::size_t index) DCL1_EXCLUDES(mutex)
    {
        MutexLock lock(mutex);
        jobs.push_back(index);
    }

    bool
    popFront(std::size_t &out) DCL1_EXCLUDES(mutex)
    {
        MutexLock lock(mutex);
        if (jobs.empty())
            return false;
        out = jobs.front();
        jobs.pop_front();
        return true;
    }

    bool
    stealBack(std::size_t &out) DCL1_EXCLUDES(mutex)
    {
        MutexLock lock(mutex);
        if (jobs.empty())
            return false;
        out = jobs.back();
        jobs.pop_back();
        return true;
    }
};

/** Whether @p a and @p b name one file (symlinks and "./" resolved). */
bool
samePath(const std::string &a, const std::string &b)
{
    std::error_code ec_a, ec_b;
    const auto canon_a = std::filesystem::weakly_canonical(a, ec_a);
    const auto canon_b = std::filesystem::weakly_canonical(b, ec_b);
    return !ec_a && !ec_b && canon_a == canon_b;
}

} // anonymous namespace

const char *
failureKindName(FailureKind kind)
{
    switch (kind) {
      case FailureKind::None:
        return "none";
      case FailureKind::SimBug:
        return "sim-bug";
      case FailureKind::ConfigError:
        return "config-error";
      case FailureKind::WorkerException:
        return "worker-exception";
    }
    return "unknown";
}

unsigned
ExecOptions::hardwareConcurrency()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ExecOptions
ExecOptions::fromEnv()
{
    ExecOptions opts;
    opts.jobs = static_cast<unsigned>(
        envIntOr("DCL1_JOBS", 0, /*min_value=*/0, /*max_value=*/4096));
    opts.maxRetries = static_cast<unsigned>(
        envIntOr("DCL1_RETRIES", 2, /*min_value=*/0, /*max_value=*/100));
    opts.crashDir = envStrOr("DCL1_CRASH_DIR", opts.crashDir);
    opts.jsonlPath = envStrOr("DCL1_JOBS_LOG", opts.jsonlPath);
    opts.profile = envIsSet("DCL1_PROF");
    return opts;
}

JobRunner::JobRunner(ExecOptions opts) : opts_(std::move(opts))
{
    if (!opts_.jsonlPath.empty()) {
        jsonl_ = std::make_unique<JsonlSink>(opts_.jsonlPath);
        sinks_.add(jsonl_.get());
    }
}

void
JobRunner::addSink(ResultSink *sink)
{
    sinks_.add(sink);
}

void
JobRunner::attachManifest(RunManifest *manifest)
{
    if (manifest && jsonl_ && samePath(opts_.jsonlPath, manifest->walPath()))
        fatal("per-job JSONL log '%s' is the write-ahead log of run "
              "directory '%s'; write it elsewhere",
              opts_.jsonlPath.c_str(), manifest->dir().c_str());
    manifest_ = manifest;
}

unsigned
JobRunner::resolveWorkers(std::size_t num_jobs) const
{
    const unsigned requested =
        opts_.jobs == 0 ? ExecOptions::hardwareConcurrency() : opts_.jobs;
    const unsigned cap =
        static_cast<unsigned>(std::min<std::size_t>(num_jobs, 4096));
    return std::max(1u, std::min(requested, std::max(1u, cap)));
}

std::vector<JobResult>
JobRunner::run(const std::vector<JobSpec> &specs)
{
    const std::size_t n = specs.size();
    const unsigned workers = resolveWorkers(n);

    std::vector<JobResult> results(n);

    const HostClock::time_point batch_start = HostClock::now();
    sinks_.runStart(n, workers);

    // Resume prefill: jobs whose key already carries a terminal record
    // (ok or quarantined — retryable failures are never recorded) are
    // satisfied from the manifest without simulating. Runs in index
    // order on the calling thread, so resumed output is deterministic.
    std::vector<char> pending(n, 1);
    if (manifest_) {
        for (std::size_t i = 0; i < n; ++i) {
            if (specs[i].key.empty())
                continue;
            const JobRecord *rec = manifest_->find(specs[i].key);
            if (!rec || (!rec->ok && !rec->quarantined))
                continue;
            JobResult r;
            r.index = i;
            r.label = specs[i].label;
            r.key = specs[i].key;
            r.ok = rec->ok;
            r.error = rec->error;
            r.kind = rec->kind;
            r.attempts = rec->attempts;
            r.quarantined = rec->quarantined;
            r.resumed = true;
            r.metrics = rec->metrics;
            r.timelinePath = rec->timeline;
            results[i] = std::move(r);
            pending[i] = 0;
            sinks_.jobDone(results[i]);
        }
    }

    const std::string crash_dir =
        !opts_.crashDir.empty()
            ? opts_.crashDir
            : (manifest_ ? manifest_->crashDir() : std::string());

    // Executes one job with fault isolation and the retry-with-
    // quarantine policy; the only writer of results[index], so workers
    // never touch the same element.
    auto execute = [&](std::size_t index, unsigned worker) {
        const JobSpec &spec = specs[index];

        JobResult r;
        r.index = index;
        r.label = spec.label;
        r.key = spec.key;
        r.worker = worker;

        sinks_.jobStart(index, spec.label, worker);
        const HostClock::time_point job_start = HostClock::now();

        std::string crash_context;
        for (unsigned attempt = 0;; ++attempt) {
            JobContext ctx(index, worker);
            r.kind = FailureKind::None;
            r.error.clear();
            // Fresh profiler per attempt: a retried job reports the
            // profile of the attempt that produced its result, not a
            // blend of failed ones.
            std::unique_ptr<prof::Profiler> profiler;
            if (opts_.profile)
                profiler = std::make_unique<prof::Profiler>();
            try {
                prof::TlsGuard prof_guard(profiler.get());
                SimErrorTrap trap;
                r.metrics = spec.fn(ctx);
                r.ok = true;
            } catch (const SimAbort &e) {
                r.error = e.what();
                r.kind = e.isPanic ? FailureKind::SimBug
                                   : FailureKind::ConfigError;
            } catch (const std::exception &e) {
                r.error = e.what();
                r.kind = FailureKind::WorkerException;
            } catch (...) {
                r.error = "unknown exception";
                r.kind = FailureKind::WorkerException;
            }
            r.attempts = attempt + 1;
            if (profiler)
                r.prof = profiler->report();
            if (!ctx.crashContext().empty())
                crash_context = ctx.crashContext();
            if (!ctx.timelinePath().empty())
                r.timelinePath = ctx.timelinePath();
            if (r.ok)
                break;
            if (r.kind == FailureKind::SimBug ||
                r.kind == FailureKind::ConfigError) {
                // Deterministic: the simulator is a pure function of
                // its configuration, so a retry cannot change anything.
                r.quarantined = true;
                break;
            }
            if (attempt >= opts_.maxRetries)
                break;
        }
        r.wallMs = msSince(job_start);
        if (r.prof.enabled)
            r.prof.wallNs = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    HostClock::now() - job_start)
                    .count());

        if (!r.ok && !crash_dir.empty())
            writeCrashRecord(crash_dir, r, crash_context);

        if (manifest_ && !spec.key.empty() && (r.ok || r.quarantined)) {
            JobRecord rec;
            rec.key = spec.key;
            rec.label = spec.label;
            rec.ok = r.ok;
            rec.quarantined = r.quarantined;
            rec.attempts = r.attempts;
            rec.kind = r.kind;
            rec.error = r.error;
            rec.metrics = r.metrics;
            rec.timeline = r.timelinePath;
            // RunManifest::append is internally synchronized.
            manifest_->append(rec);
        }

        results[index] = std::move(r);
        sinks_.jobDone(results[index]);
    };

    if (workers == 1) {
        // Inline serial mode: no threads, deterministic job order —
        // exactly the historical behavior of the serial tools.
        for (std::size_t i = 0; i < n; ++i) {
            if (interruptRequested())
                break;
            if (pending[i])
                execute(i, 0);
        }
    } else {
        std::vector<std::unique_ptr<WorkerDeque>> deques;
        for (unsigned w = 0; w < workers; ++w)
            deques.push_back(std::make_unique<WorkerDeque>());
        for (std::size_t i = 0; i < n; ++i)
            if (pending[i])
                deques[i % workers]->pushBack(i);

        auto worker_loop = [&](unsigned w) {
            std::size_t index = 0;
            for (;;) {
                // Cooperative SIGINT drain: the in-flight job finished
                // (or never started); stop pulling new ones.
                if (interruptRequested())
                    return;
                if (deques[w]->popFront(index)) {
                    execute(index, w);
                    continue;
                }
                bool stole = false;
                for (unsigned off = 1; off < workers && !stole; ++off)
                    stole = deques[(w + off) % workers]->stealBack(index);
                if (!stole)
                    return; // every deque empty: batch is finished
                execute(index, w);
            }
        };

        std::vector<std::thread> threads;
        for (unsigned w = 1; w < workers; ++w)
            threads.emplace_back(worker_loop, w);
        worker_loop(0); // the calling thread is worker 0
        for (std::thread &t : threads)
            t.join();
    }

    // Anything still pending after the pool drained was cut off by the
    // interrupt: mark it skipped so consumers can tell "never ran"
    // apart from "ran and failed".
    const bool interrupted = interruptRequested();
    for (std::size_t i = 0; i < n; ++i) {
        if (!pending[i] || results[i].attempts > 0)
            continue;
        results[i].index = i;
        results[i].label = specs[i].label;
        results[i].key = specs[i].key;
        results[i].skipped = true;
    }

    RunSummary summary;
    summary.totalJobs = n;
    summary.workers = workers;
    summary.interrupted = interrupted;
    summary.wallMs = msSince(batch_start);
    std::vector<std::size_t> by_time(n);
    for (std::size_t i = 0; i < n; ++i) {
        by_time[i] = i;
        summary.cpuMs += results[i].wallMs;
        if (results[i].skipped) {
            ++summary.skippedJobs;
            continue;
        }
        if (results[i].resumed)
            ++summary.resumedJobs;
        if (!results[i].ok) {
            ++summary.failedJobs;
            if (results[i].quarantined)
                ++summary.quarantinedJobs;
        }
    }
    summary.utilization =
        summary.wallMs > 0.0
            ? summary.cpuMs / (summary.wallMs * double(workers))
            : 0.0;
    std::sort(by_time.begin(), by_time.end(),
              [&](std::size_t a, std::size_t b) {
                  return results[a].wallMs > results[b].wallMs;
              });
    by_time.resize(std::min<std::size_t>(n, 5));
    summary.slowest = std::move(by_time);

    if (manifest_)
        manifest_->finalize(interrupted ? "interrupted" : "complete");

    sinks_.runEnd(summary, results);
    return results;
}

} // namespace dcl1::exec
