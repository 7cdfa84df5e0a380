/**
 * @file
 * ServeSim: the GPU as a shared service under open-loop traffic.
 *
 * One GpuSystem is built idle (no workload bound); a seed-derived
 * arrival schedule offers kernel jobs drawn from a JobMix (or an
 * explicit JobTrace), a Scheduler assigns free cores, and each started
 * job gets its own JobStream — a per-job SyntheticSource remapped onto
 * the granted physical cores and offset into a job-private address
 * window. A job completes when its cores have issued its instruction
 * budget and every in-flight request has drained; the completion cycle
 * is stamped, the cores are unbound and returned to the pool.
 *
 * Everything is a pure function of (platform, design, mix, options):
 * the same seed gives a byte-identical job log, and a single job
 * granted the whole machine reproduces the classic single-app path
 * bit for bit (checkSingleJobEquivalence proves it).
 */

#ifndef DCL1_SERVE_SERVE_SIM_HH
#define DCL1_SERVE_SERVE_SIM_HH

#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "core/gpu_system.hh"
#include "serve/job_mix.hh"
#include "serve/scheduler.hh"
#include "stats/stats.hh"
#include "stats/timeline.hh"
#include "workload/workload.hh"

namespace dcl1::serve
{

/**
 * Per-job trace adapter: wraps a job-private inner source built for
 * the job's granted core count, maps physical core ids to job-local
 * ones, and adds a job-private address offset so concurrent tenants
 * never alias in the caches. Job 0 with an identity core map and zero
 * offset is transparent — the single-job equivalence guarantee.
 */
class JobStream : public workload::TraceSource
{
  public:
    JobStream(std::unique_ptr<workload::TraceSource> inner,
              const std::vector<CoreId> &physCores,
              std::uint32_t numPhysCores, Addr addrOffset);

    void nextInstr(CoreId core, WarpId warp, Cycle now,
                   workload::WarpInstr &out) override;
    std::uint32_t warpsPerCore(CoreId core) const override;

  private:
    CoreId localOf(CoreId phys) const;

    std::unique_ptr<workload::TraceSource> inner_;
    std::vector<CoreId> localOf_; ///< phys -> job-local, npos-free
    Addr offset_;
};

/** Final record of one offered job. */
struct JobOutcome
{
    std::size_t id = 0;
    std::string app;
    std::uint32_t tenant = 0;
    std::uint32_t coresRequested = 0;
    std::uint32_t coresGranted = 0;
    std::uint64_t budget = 0;
    std::uint64_t instructions = 0; ///< issued under this job's binding
    Cycle arrival = 0;
    Cycle start = 0;    ///< valid when started
    Cycle complete = 0; ///< valid when completed
    bool started = false;
    bool completed = false;
    /**
     * complete - arrival for completed jobs; for censored jobs the
     * end-of-run lower bound (endCycle - arrival), which keeps tail
     * percentiles honest past saturation instead of dropping exactly
     * the slowest jobs.
     */
    Cycle latency = 0;
    Cycle queueDelay = 0; ///< start - arrival (lower bound if waiting)
};

/** Aggregate results of a serve run. */
struct ServeSummary
{
    std::size_t offered = 0;
    std::size_t started = 0;
    std::size_t completed = 0;
    std::size_t censored = 0;
    Cycle endCycle = 0;
    double offeredPerKcycle = 0.0;
    double completedPerKcycle = 0.0; ///< goodput
    double meanLatency = 0.0;
    double p50Latency = 0.0;
    double p95Latency = 0.0;
    double p99Latency = 0.0;
    double meanQueueDelay = 0.0;
    /**
     * Jain fairness index over per-tenant goodput efficiency (the
     * inverse of each tenant's mean slowdown); 1.0 = perfectly fair,
     * 1/numTenants = one tenant monopolizes. Tenants with no completed
     * jobs are excluded; 1.0 when fewer than two tenants completed.
     */
    double jainFairness = 1.0;
    core::RunMetrics machine;
};

/** Knobs of a serve run (see ServeSim). */
struct ServeOptions
{
    Policy policy = Policy::Fcfs;
    double lambdaJobsPerKcycle = 1.0;
    std::size_t numJobs = 100;    ///< offered-job cap (Poisson mode)
    Cycle horizon = 1'000'000;    ///< hard cycle cap
    std::uint64_t seed = 1;       ///< arrival/mix/job-stream seed
    double budgetScale = 1.0;     ///< scales every job's budget
    std::uint32_t defaultCores = 0; ///< 0 = footprint-class default
    std::vector<TraceJob> trace;  ///< non-empty = trace-driven load
};

/** See file comment. */
class ServeSim
{
  public:
    ServeSim(const core::SystemConfig &sys,
             const core::DesignConfig &design, const JobMix &mix,
             const ServeOptions &opts);
    ~ServeSim();

    ServeSim(const ServeSim &) = delete;
    ServeSim &operator=(const ServeSim &) = delete;

    /**
     * One JSONL line per job, emitted at its completion cycle
     * (censored jobs follow at end of run, in job order). Set before
     * run().
     */
    void setJobLogSink(stats::LineSink sink) { jobLog_ = std::move(sink); }

    /** Run to completion of all offered jobs or the horizon. */
    ServeSummary run();

    /** Outcomes of every offered job, by job id. Valid after run(). */
    const std::vector<JobOutcome> &outcomes() const { return outcomes_; }

    core::GpuSystem &gpu() { return *gpu_; }
    stats::StatGroup &statGroup() { return statGroup_; }

  private:
    struct PlannedJob
    {
        Cycle arrival = 0;
        std::uint32_t tenant = 0;
        std::uint32_t cores = 1;
        std::uint64_t budget = 1;
        std::string app;
    };

    struct RunningJob
    {
        std::size_t id = 0;
        std::vector<CoreId> cores;
        std::unique_ptr<JobStream> stream;
        bool closing = false;
    };

    void planArrivals();
    std::uint32_t defaultCoresFor(const std::string &app) const;
    bool onCycle(Cycle now);
    void admitArrivals(Cycle now);
    void reapCompletions(Cycle now);
    void startJobs(Cycle now);
    void emitJobLog(const JobOutcome &o);
    ServeSummary summarize(Cycle endCycle);

    core::SystemConfig sys_;
    core::DesignConfig design_;
    JobMix mix_;
    ServeOptions opts_;

    std::unique_ptr<core::GpuSystem> gpu_;
    std::unique_ptr<Scheduler> sched_;
    CoreMap coreMap_;

    std::vector<PlannedJob> plan_;
    std::size_t nextPlanned_ = 0;
    std::vector<QueuedJob> waiting_;
    std::vector<RunningJob> running_;
    std::vector<JobOutcome> outcomes_;
    std::size_t finished_ = 0;

    stats::LineSink jobLog_;

    stats::StatGroup statGroup_;
    stats::Scalar statOffered_;
    stats::Scalar statStarted_;
    stats::Scalar statCompleted_;
    stats::Scalar statCensored_;
    stats::Distribution latencyDist_;
    stats::Distribution queueDist_;
};

/** Result of the single-job-equals-single-app determinism check. */
struct EquivalenceReport
{
    std::uint64_t classicDigest = 0;
    std::uint64_t serveDigest = 0;
    bool match = false;
};

/**
 * Run @p appName for @p cycles the classic way (GpuSystem with the
 * built-in source) and as a one-job serve run granted every core, and
 * compare full stat digests. The refactor's honesty check: both paths
 * must be bit-identical.
 */
EquivalenceReport checkSingleJobEquivalence(
    const core::SystemConfig &sys, const core::DesignConfig &design,
    const std::string &appName, Cycle cycles);

} // namespace dcl1::serve

#endif // DCL1_SERVE_SERVE_SIM_HH
