/**
 * @file
 * The benchmark's workloads and how one pass over a workload's cells
 * is run and measured.
 *
 * A *cell* is one (design, app) simulation; it is the benchmark's unit
 * of work and of failure. A *pass* runs every cell of a workload once
 * through exec::JobSet / exec::JobRunner, from the first cell's build
 * to the last cell's result. A run repeats passes until its time is up
 * and reports statistics over them (see README.md for why).
 */
#ifndef PERFBENCH_CELLS_HH
#define PERFBENCH_CELLS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/gpu_system.hh"
#include "prof/prof.hh"
#include "workload/workload.hh"

namespace perfbench
{

using dcl1::Cycle;

/** A named set of cells and how to run them. */
struct Workload
{
    std::string name;
    std::vector<std::string> designs;
    std::vector<std::string> apps;
    Cycle warmup = 0;
    Cycle measure = 0;
    /** JobRunner workers; 1 runs every cell inline on the main thread. */
    unsigned workers = 1;
    /**
     * Also add each app's Baseline cell as the speedup denominator, as
     * the figure benches do; JobSet memoises it against the Baseline
     * row, so it is simulated once per app.
     */
    bool baselineDenominator = false;
};

/** The benchmark's workloads, in a fixed order. */
const std::vector<Workload> &workloads();

/** Lookup by name; nullptr when unknown. */
const Workload *workloadByName(const std::string &name);

/**
 * Catalog app by name, plus W-STREAM: C-BLK's private streaming
 * footprint (larger than the L1s and the L2) with 40 % of accesses
 * being writes, so writebacks and DRAM writes run beside reads.
 */
dcl1::workload::WorkloadParams appParams(const std::string &name);

/** Number of distinct generated inputs; --seed is taken modulo this. */
inline constexpr std::uint64_t kSeedSlots = 16;

/** Platform seed of seed slot @p slot (slot < kSeedSlots). */
inline std::uint64_t
platformSeed(std::uint64_t slot)
{
    return 1 + slot;
}

/** Delivered traffic of one crossbar over the measured interval. */
struct XbarObs
{
    std::uint32_t inputs = 0;
    std::uint32_t outputs = 0;
    std::uint64_t flits = 0;
    std::uint64_t packets = 0;
};

/**
 * One stretch of GpuSystem::run between heartbeats: its simulated
 * cycles, the thread-CPU time they took, and the reference loop's step
 * time measured right after it on the same thread (0 on traced
 * passes, which do not sample the reference).
 */
struct Block
{
    Cycle cycles = 0;
    std::uint64_t cpuNs = 0;
    double refNs = 0.0;
};

/**
 * The host reference: three fixed loops of the kinds of work the
 * simulator does on the host (random read-modify-writes over a 4 MiB
 * table, heap allocate/free of 64-512 B objects, push/pop across 2560
 * deques), 8000 steps each. Their step times rise and fall with the
 * host's memory-hierarchy contention, which slows the simulator in
 * step. Returns the geometric mean of the three step times, in
 * thread-CPU ns. The state is per thread and is built by the first
 * call.
 */
double hostRefSampleNs();

/**
 * Reference step time the scaled host times are expressed at: host
 * times are reported multiplied by kRefNominalNs / (measured step).
 */
inline constexpr double kRefNominalNs = 40.0;

/** Everything measured about one execution of one cell. */
struct CellRun
{
    std::string label; ///< "design/app"
    bool ok = false;
    std::string error;

    /// @name Simulated results (host-independent)
    /// @{
    dcl1::core::RunMetrics rm;
    std::string metrics; ///< every RunMetrics field at %.17g
    std::uint64_t digest = 0; ///< exec::statDigest of the stat tree
    Cycle cycles = 0;         ///< simulated cycles, warmup + measure
    /// @}

    /// @name Host measurements
    /// @{
    std::uint64_t buildCpuNs = 0; ///< GpuSystem construction
    /** Run-loop heartbeat blocks, in order. */
    std::vector<Block> blocks;
    std::uint64_t digestNs = 0;  ///< statDigest wall time
    std::uint64_t runAllocs = 0; ///< heap allocations inside run()
    std::uint64_t runBytes = 0;
    std::uint64_t startNs = 0; ///< since pass start (steady clock)
    std::uint64_t endNs = 0;
    unsigned worker = 0;
    dcl1::prof::Report prof; ///< enabled only on traced passes
    /// @}

    /** Crossbars whose traffic is observable (traced passes only). */
    std::vector<XbarObs> xbars;
};

/** One pass over a workload. */
struct PassResult
{
    std::uint64_t wallNs = 0;
    unsigned workers = 1;
    std::size_t memoised = 0; ///< addCell calls JobSet deduplicated
    std::vector<CellRun> cells; ///< in JobSet index order
};

/** How a pass is instrumented. */
struct PassOptions
{
    std::uint64_t seedSlot = 0;
    /** Install a prof::Profiler per cell and record crossbar traffic. */
    bool traced = false;
    /** Override the workload's budgets (self-test); 0 = keep. */
    Cycle warmup = 0;
    Cycle measure = 0;
    /** Run only the first N cells (self-test); 0 = all. */
    std::size_t maxCells = 0;
    /** Override the workload's worker count; 0 = keep. */
    unsigned workers = 0;
};

/** Run every cell of @p w once. Never throws for a failed cell. */
PassResult runPass(const Workload &w, const PassOptions &opts);

/** Thread CPU time of the calling thread, ns. */
std::uint64_t threadCpuNs();

/** Steady-clock time, ns. */
std::uint64_t steadyNs();

/** Every RunMetrics field, in kMetricFields order, doubles at %.17g. */
std::string formatMetrics(const dcl1::core::RunMetrics &rm);

/** The fields formatMetrics() writes, comma-separated. */
inline constexpr const char *kMetricFields =
    "cycles,instructions,ipc,l1Accesses,l1Misses,l1MissRate,"
    "replicationRatio,avgReplicas,maxL1PortUtil,maxCoreReplyLinkUtil,"
    "maxMemReplyLinkUtil,avgReadLatency,noc1Flits,noc2Flits,l2Accesses,"
    "l2Misses,dramReads,dramWrites";

} // namespace perfbench

#endif // PERFBENCH_CELLS_HH
