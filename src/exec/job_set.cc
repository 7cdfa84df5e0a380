#include "exec/job_set.hh"

#include <cctype>

#include "check/check.hh"
#include "common/log.hh"
#include "exec/atomic_file.hh"
#include "exec/crash_record.hh"
#include "exec/result_sink.hh"

namespace dcl1::exec
{

namespace
{

/** "<dir>/job007-Sh40_T-AlexNet.jsonl" (crash-record sanitization). */
std::string
timelineFileName(std::size_t index, const std::string &label)
{
    std::string safe;
    for (const char c : label)
        safe += (std::isalnum(static_cast<unsigned char>(c)) ||
                 c == '-' || c == '+' || c == '.')
                    ? c
                    : '_';
    return csprintf("job%03zu-%s.jsonl", index, safe.c_str());
}

} // anonymous namespace

core::RunMetrics
runCell(const GridCell &cell, JobContext &ctx)
{
    // Crash-diagnostic cooperation: hand the engine a replayable
    // description of this cell up front, so even a death during
    // construction leaves a usable record.
    CrashConfig replay;
    replay.design = cell.design.name;
    replay.app = cell.app.name;
    replay.cores = cell.sys.numCores;
    replay.slices = cell.sys.numL2Slices;
    replay.channels = cell.sys.numChannels;
    replay.seed = cell.sys.seed;
    replay.measure = cell.opts.measureCycles;
    replay.warmup = cell.opts.warmupCycles;
    const std::string config = crashConfigJson(replay);
    ctx.setCrashContext(config);

    // Fail a mis-budgeted cell before paying for construction.
    if (ctx.cycleBudget() != 0)
        ctx.checkCycleBudget(cell.opts.warmupCycles +
                             cell.opts.measureCycles);

    core::GpuSystem gpu(cell.sys, cell.design, cell.app);

    // Per-cell timeline: rows land line-atomically, so even the
    // timeline of a job killed mid-run parses up to its last sample.
    std::unique_ptr<AppendLog> timeline_log;
    if (!cell.timelinePath.empty()) {
        timeline_log = std::make_unique<AppendLog>(cell.timelinePath);
        const Cycle interval = cell.timelineInterval != 0
                                   ? cell.timelineInterval
                                   : core::timelineIntervalFromEnv();
        AppendLog *log = timeline_log.get();
        gpu.enableTimeline(interval, [log](const std::string &row) {
            log->appendLine(row);
        });
        ctx.setTimelinePath(cell.timelinePath);
    }

    core::GpuSystem::CycleHeartbeat heartbeat;
    if (ctx.cycleBudget() != 0)
        heartbeat = [&ctx](Cycle now) { ctx.checkCycleBudget(now); };
    try {
        gpu.run(cell.opts.measureCycles, cell.opts.warmupCycles,
                heartbeat);
        gpu.finishTelemetry();
        // Full audit at the end of the measured interval, exactly like
        // core::runOnce; run() itself audits on a power-of-two cadence.
        DCL1_CHECK_ONLY(gpu.checkInvariants("exec::runCell"));
    } catch (...) {
        // The machine is still alive here: snapshot cycle, queue
        // depths, and (DCL1_CHECK) recent ledger events into the
        // crash context. Best-effort — never mask the real failure.
        try {
            ctx.setCrashContext(config + "," + crashSnapshotJson(gpu));
        } catch (...) {
        }
        throw;
    }
    return gpu.metrics();
}

std::size_t
JobSet::addCell(const core::SystemConfig &sys,
                const core::DesignConfig &design,
                const workload::WorkloadParams &app,
                const core::ExperimentOptions &opts,
                const std::string &key_suffix)
{
    ++cellsRequested_;
    const std::string key = csprintf(
        "%s|%s|%llu|%llu|%s|%llu|%s", design.name.c_str(),
        app.name.c_str(),
        static_cast<unsigned long long>(opts.measureCycles),
        static_cast<unsigned long long>(opts.warmupCycles),
        sys.summary().c_str(), static_cast<unsigned long long>(sys.seed),
        key_suffix.c_str());
    const auto it = keyToIndex_.find(key);
    if (it != keyToIndex_.end())
        return it->second;

    // Front-door validation: an impossible platform or design is a
    // config error at grid-build time, not a mid-batch worker death.
    sys.validate();
    design.validate(sys);

    GridCell cell{sys, design, app, opts, "", 0};
    JobSpec spec;
    spec.label = design.name + "/" + app.name;
    spec.key = key;
    if (!timelineDir_.empty()) {
        cell.timelinePath =
            timelineDir_ + "/" +
            timelineFileName(specs_.size(), spec.label);
        cell.timelineInterval = timelineInterval_;
    }
    spec.fn = [cell = std::move(cell)](JobContext &ctx) {
        return runCell(cell, ctx);
    };
    specs_.push_back(std::move(spec));
    ++cellsScheduled_;
    const std::size_t index = specs_.size() - 1;
    keyToIndex_.emplace(key, index);
    return index;
}

void
JobSet::setTimelineDir(std::string dir, Cycle interval)
{
    if (!dir.empty())
        ensureDirectory(dir);
    timelineDir_ = std::move(dir);
    timelineInterval_ = interval;
}

std::size_t
JobSet::add(std::string label, JobFn fn)
{
    JobSpec spec;
    spec.label = std::move(label);
    spec.fn = std::move(fn);
    specs_.push_back(std::move(spec));
    return specs_.size() - 1;
}

} // namespace dcl1::exec
