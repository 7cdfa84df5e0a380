#include "cells.hh"

#include <chrono>
#include <cmath>
#include <ctime>
#include <deque>
#include <memory>
#include <sstream>

#include "common/log.hh"
#include "core/experiment.hh"
#include "exec/determinism.hh"
#include "exec/job_runner.hh"
#include "exec/job_set.hh"
#include "heap_count.hh"
#include "workload/app_catalog.hh"

namespace perfbench
{

using namespace dcl1;

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = [] {
        std::vector<Workload> v;
        // NoC and DC-L1 node code carry the host work; DRAM is idle.
        v.push_back(Workload{"dcl1_shared",
                             {"Sh40+C10+Boost", "Sh40"},
                             {"T-AlexNet", "P-3DCONV"},
                             8000, 12000, 1, false});
        // No DC-L1 node: core/workload generation (T-AlexNet) and
        // DRAM/L2 (C-BLK, W-STREAM) carry the host work; CDXBar keeps
        // the third tick path measured.
        v.push_back(Workload{"private_l1",
                             {"Baseline", "CDXBar"},
                             {"T-AlexNet", "C-BLK", "W-STREAM"},
                             8000, 12000, 1, false});
        // The fig14 design set over the whole catalog at a short
        // budget: figure regeneration, where exec scheduling, per-cell
        // builds and digests are a visible share of the wait.
        Workload grid{"paper_grid",
                      {"Baseline", "Pr40", "Sh40", "Sh40+C10",
                       "Sh40+C10+Boost", "CDXBar"},
                      {},
                      1000, 500, 2, true};
        for (const workload::AppInfo &a : workload::appCatalog())
            grid.apps.push_back(a.params.name);
        v.push_back(std::move(grid));
        return v;
    }();
    return all;
}

const Workload *
workloadByName(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

workload::WorkloadParams
appParams(const std::string &name)
{
    if (name == "W-STREAM") {
        workload::WorkloadParams p = workload::appByName("C-BLK").params;
        p.name = "W-STREAM";
        p.writeFrac = 0.4;
        return p;
    }
    return workload::appByName(name).params;
}

std::uint64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return std::uint64_t(ts.tv_sec) * 1000000000ull +
           std::uint64_t(ts.tv_nsec);
}

std::uint64_t
steadyNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

namespace
{

/**
 * Per-thread state of the host reference: three small loops of the
 * kinds of work the simulator does on the host — random
 * read-modify-writes with data-dependent branches over a table larger
 * than a core's L2 (tag arrays, directories), heap allocate/free of
 * request-sized objects (MemRequest), and push/pop across thousands of
 * short deques (the crossbar VOQs).
 */
struct HostRef
{
    static constexpr std::size_t kTableEntries =
        (4u << 20) / sizeof(std::uint64_t);
    static constexpr std::size_t kRing = 4096;
    static constexpr std::size_t kQueues = 2560;

    std::vector<std::uint64_t> table =
        std::vector<std::uint64_t>(kTableEntries, 1);
    std::vector<std::unique_ptr<char[]>> ring =
        std::vector<std::unique_ptr<char[]>>(kRing);
    std::vector<std::deque<std::uint64_t>> queues =
        std::vector<std::deque<std::uint64_t>>(kQueues);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::uint64_t acc = 0;

    std::uint64_t
    next()
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }

    /** Thread-CPU ns per step of @p steps steps of @p step. */
    template <typename Fn>
    double
    timed(std::size_t steps, Fn &&step)
    {
        const std::uint64_t t0 = threadCpuNs();
        for (std::size_t k = 0; k < steps; ++k)
            step(next());
        return double(threadCpuNs() - t0) / double(steps);
    }
};

} // anonymous namespace

double
hostRefSampleNs()
{
    constexpr std::size_t kSteps = 8000;
    thread_local HostRef ref;
    const double table_ns = ref.timed(kSteps, [&](std::uint64_t r) {
        const std::size_t mask = HostRef::kTableEntries - 1;
        const std::size_t j = r & mask;
        if (ref.table[j] & 1) {
            ref.table[j] += r;
            ref.acc += ref.table[(j * 7) & mask];
        } else {
            ref.table[j] ^= ref.acc;
            ref.acc -= ref.table[(j + 64) & mask];
        }
    });
    const double alloc_ns = ref.timed(kSteps, [&](std::uint64_t r) {
        const std::size_t n = 64 + ((r >> 20) & 448);
        auto &slot = ref.ring[r & (HostRef::kRing - 1)];
        slot = std::make_unique<char[]>(n);
        slot[n - 1] = static_cast<char>(r);
    });
    const double queue_ns = ref.timed(kSteps, [&](std::uint64_t r) {
        std::deque<std::uint64_t> &q = ref.queues[r % HostRef::kQueues];
        if (!q.empty() && (q.size() > 6 || ((r >> 30) & 1))) {
            ref.acc += q.front();
            q.pop_front();
        } else {
            q.push_back(r);
        }
    });
    return std::cbrt(table_ns * alloc_ns * queue_ns);
}

std::string
formatMetrics(const core::RunMetrics &rm)
{
    auto u = [](std::uint64_t v) { return std::to_string(v) + ","; };
    auto d = [](double v) { return csprintf("%.17g,", v); };
    std::string s = u(rm.cycles) + u(rm.instructions) + d(rm.ipc) +
                    u(rm.l1Accesses) + u(rm.l1Misses) + d(rm.l1MissRate) +
                    d(rm.replicationRatio) + d(rm.avgReplicas) +
                    d(rm.maxL1PortUtil) + d(rm.maxCoreReplyLinkUtil) +
                    d(rm.maxMemReplyLinkUtil) + d(rm.avgReadLatency) +
                    u(rm.noc1Flits) + u(rm.noc2Flits) + u(rm.l2Accesses) +
                    u(rm.l2Misses) + u(rm.dramReads) + u(rm.dramWrites);
    s.pop_back();
    return s;
}

namespace
{

struct CellSpec
{
    core::DesignConfig design;
    workload::WorkloadParams app;
};

/**
 * Crossbars whose delivered traffic the public API exposes: the DC-L1
 * NoCs through their accessors, and the baseline's two monolithic
 * crossbars through the stat tree (they have no accessor). CDXBar's
 * crossbars are in neither.
 */
std::vector<XbarObs>
observeXbars(core::GpuSystem &gpu)
{
    std::vector<XbarObs> out;
    auto add = [&](std::vector<std::unique_ptr<noc::Crossbar>> &xs) {
        for (auto &x : xs)
            out.push_back(XbarObs{x->params().numInputs,
                                  x->params().numOutputs, x->totalFlits(),
                                  x->packetsDelivered()});
    };
    add(gpu.noc1ReqXbars());
    add(gpu.noc1ReplyXbars());
    add(gpu.noc2ReqXbars());
    add(gpu.noc2ReplyXbars());
    if (gpu.designConfig().topology != core::Topology::PrivateBaseline)
        return out;

    std::ostringstream dump;
    gpu.dumpStats(dump);
    const core::SystemConfig &sys = gpu.sysConfig();
    XbarObs req{sys.numCores, sys.numL2Slices, 0, 0};
    XbarObs reply{sys.numL2Slices, sys.numCores, 0, 0};
    std::istringstream lines(dump.str());
    std::string key;
    std::uint64_t value = 0;
    while (lines >> key >> value) {
        if (key == "gpu.noc.req.flits")
            req.flits = value;
        else if (key == "gpu.noc.req.packets")
            req.packets = value;
        else if (key == "gpu.noc.reply.flits")
            reply.flits = value;
        else if (key == "gpu.noc.reply.packets")
            reply.packets = value;
    }
    out.push_back(req);
    out.push_back(reply);
    return out;
}

/** Build, run, digest and (optionally) profile one cell into @p out. */
core::RunMetrics
measureCell(const core::SystemConfig &sys, const CellSpec &cell,
            const core::ExperimentOptions &eo, bool traced,
            std::uint64_t pass_start, unsigned worker, CellRun &out)
{
    out.worker = worker;
    out.startNs = steadyNs() - pass_start;
    out.blocks.reserve((eo.warmupCycles + eo.measureCycles) / 4096 + 4);
    // Profiled passes skip the reference (it would land in the Run
    // phase's self time); the others allocate its table up front.
    if (!traced)
        (void)hostRefSampleNs();

    std::unique_ptr<prof::Profiler> profiler;
    if (traced)
        profiler = std::make_unique<prof::Profiler>();
    const std::uint64_t wall0 = steadyNs();
    {
        prof::TlsGuard guard(profiler.get());
        const std::uint64_t build0 = threadCpuNs();
        core::GpuSystem gpu(sys, cell.design, cell.app);
        out.buildCpuNs = threadCpuNs() - build0;

        // GpuSystem::run calls the heartbeat every 4096 cycles of the
        // warmup and of the measured loop: each call closes one block
        // and samples the host reference outside the block's time.
        // The reference allocates; its allocations are not the run's.
        Cycle last_cycle = gpu.cycle();
        std::uint64_t last_cpu = threadCpuNs();
        std::uint64_t ref_allocs = 0, ref_bytes = 0;
        auto close_block = [&](Cycle now) {
            const std::uint64_t t = threadCpuNs();
            if (now > last_cycle) {
                const heap::Counts r0 = heap::threadCounts();
                const double ref = traced ? 0.0 : hostRefSampleNs();
                const heap::Counts r1 = heap::threadCounts();
                ref_allocs += r1.allocs - r0.allocs;
                ref_bytes += r1.bytes - r0.bytes;
                out.blocks.push_back(
                    Block{now - last_cycle, t - last_cpu, ref});
            }
            last_cycle = now;
            last_cpu = threadCpuNs();
        };
        const core::GpuSystem::CycleHeartbeat heartbeat = close_block;
        const heap::Counts h0 = heap::threadCounts();
        gpu.run(eo.measureCycles, eo.warmupCycles, heartbeat);
        close_block(gpu.cycle());
        const heap::Counts h1 = heap::threadCounts();
        out.runAllocs = h1.allocs - h0.allocs - ref_allocs;
        out.runBytes = h1.bytes - h0.bytes - ref_bytes;
        out.cycles = gpu.cycle();

        if (profiler) {
            out.prof = profiler->report();
            out.prof.wallNs = steadyNs() - wall0;
            out.xbars = observeXbars(gpu);
        }

        const std::uint64_t digest0 = steadyNs();
        out.digest = exec::statDigest(gpu);
        out.digestNs = steadyNs() - digest0;
        out.rm = gpu.metrics();
    }
    out.metrics = formatMetrics(out.rm);
    out.ok = true;
    out.endNs = steadyNs() - pass_start;
    return out.rm;
}

} // anonymous namespace

PassResult
runPass(const Workload &w, const PassOptions &opts)
{
    core::SystemConfig sys;
    sys.seed = platformSeed(opts.seedSlot);
    core::ExperimentOptions eo;
    eo.warmupCycles = opts.warmup ? opts.warmup : w.warmup;
    eo.measureCycles = opts.measure ? opts.measure : w.measure;

    exec::JobSet set;
    std::vector<CellSpec> cells;
    auto add = [&](const std::string &design_name,
                   const workload::WorkloadParams &app) {
        if (opts.maxCells != 0 && cells.size() >= opts.maxCells)
            return;
        const core::DesignConfig design = core::designByName(design_name);
        if (set.addCell(sys, design, app, eo) == cells.size())
            cells.push_back(CellSpec{design, app});
    };
    for (const std::string &app_name : w.apps) {
        const workload::WorkloadParams app = appParams(app_name);
        if (w.baselineDenominator)
            add("Baseline", app);
        for (const std::string &d : w.designs)
            add(d, app);
    }

    // Keep JobSet's keys, labels and memoisation; swap in a job body
    // that measures as well as simulates.
    std::vector<exec::JobSpec> specs = set.specs();
    PassResult pass;
    pass.cells.resize(specs.size());
    std::uint64_t pass_start = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        pass.cells[i].label = specs[i].label;
        specs[i].fn = [&, i](exec::JobContext &ctx) {
            return measureCell(sys, cells[i], eo, opts.traced, pass_start,
                               ctx.worker(), pass.cells[i]);
        };
    }

    exec::ExecOptions xo;
    xo.jobs = opts.workers ? opts.workers : w.workers;
    xo.maxRetries = 0; // a failed cell is a result, not a retry
    xo.progress = false;
    exec::JobRunner runner(xo);
    pass.workers = runner.resolveWorkers(specs.size());
    pass.memoised = set.cellsDeduped();

    pass_start = steadyNs();
    const std::vector<exec::JobResult> results = runner.run(specs);
    pass.wallNs = steadyNs() - pass_start;

    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok) {
            pass.cells[i].ok = false;
            pass.cells[i].error = results[i].error;
        }
    }
    return pass;
}

} // namespace perfbench
