/**
 * @file
 * perfbench — the repository benchmark (see ../README.md).
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--expected DIR]
 *   perfbench --update-expected [--workload W] [--expected DIR]
 *   perfbench --selftest [--expected DIR]
 *
 * A run repeats passes over workload W's cells for S seconds, checks
 * every cell against its pinned result, and prints the metrics; the
 * last stdout line is one JSON object {"correct", "attempted",
 * "failed", "metrics"}. --trace 0 gives the end-to-end metrics,
 * --trace 1 the per-layer ones. Exit codes: 0 ran (cells may have
 * failed: see "correct"), 1 usage error.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cells.hh"
#include "common/log.hh"
#include "core/design.hh"
#include "exec/determinism.hh"
#include "heap_count.hh"
#include "layers.hh"
#include "pinned.hh"
#include "stats/stats.hh"
#include "workload/synthetic.hh"

using namespace perfbench;
using namespace dcl1;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 30;
    int trace = 0;
    std::string expectedDir = "perfbench/expected";
    bool updateExpected = false;
    bool selftest = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 [--expected DIR]\n"
                 "       perfbench --update-expected [--workload W] "
                 "[--expected DIR]\n"
                 "       perfbench --selftest [--expected DIR]\n",
                 why);
    std::exit(1);
}

bool
parseUint(const char *s, std::uint64_t &out)
{
    if (!*s || std::strspn(s, "0123456789") != std::strlen(s) ||
        std::strlen(s) > 18)
        return false;
    out = std::stoull(s);
    return true;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(("missing value for " + flag).c_str());
            return argv[++i];
        };
        std::uint64_t v = 0;
        if (flag == "--workload") {
            a.workload = value();
        } else if (flag == "--seed") {
            if (!parseUint(value(), a.seed))
                usage("--seed takes a non-negative integer");
        } else if (flag == "--seconds") {
            if (!parseUint(value(), v) || v < 1 || v > 3600)
                usage("--seconds takes an integer in [1, 3600]");
            a.seconds = double(v);
        } else if (flag == "--trace") {
            if (!parseUint(value(), v) || v > 1)
                usage("--trace takes 0 or 1");
            a.trace = int(v);
        } else if (flag == "--expected") {
            a.expectedDir = value();
        } else if (flag == "--update-expected") {
            a.updateExpected = true;
        } else if (flag == "--selftest") {
            a.selftest = true;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!a.selftest && !a.updateExpected && a.workload.empty())
        usage("--workload is required");
    if (!a.workload.empty() && !workloadByName(a.workload))
        usage(("unknown workload " + a.workload).c_str());
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median of values weighted by their weights (lower median). */
double
weightedMedian(std::vector<std::pair<double, double>> vw)
{
    if (vw.empty())
        return 0.0;
    std::sort(vw.begin(), vw.end());
    double total = 0;
    for (const auto &p : vw)
        total += p.second;
    double acc = 0;
    for (const auto &p : vw) {
        acc += p.second;
        if (acc >= 0.5 * total)
            return p.first;
    }
    return vw.back().first;
}

/**
 * Host thread-CPU ns per simulated cycle of a set of passes: for every
 * cell, the cycle-weighted median over all its run-loop blocks in all
 * passes, times its cycles; summed over cells and divided by their
 * cycles. A burst of host noise slows some blocks; it cannot move a
 * median unless it covers half of them. With @p scaled, every block is
 * first scaled by kRefNominalNs / (its reference step time).
 */
double
nsPerCycle(const std::vector<PassResult> &passes, bool scaled)
{
    std::map<std::string, std::vector<std::pair<double, double>>> blocks;
    std::map<std::string, double> cycles;
    for (const PassResult &p : passes) {
        for (const CellRun &c : p.cells) {
            if (!c.ok)
                continue;
            for (const Block &b : c.blocks) {
                double ns = double(b.cpuNs) / double(b.cycles);
                if (scaled)
                    ns *= b.refNs > 0 ? kRefNominalNs / b.refNs : 0.0;
                blocks[c.label].emplace_back(ns, double(b.cycles));
            }
            cycles[c.label] = double(c.cycles);
        }
    }
    double ns = 0, cyc = 0;
    for (const auto &[label, vw] : blocks) {
        ns += weightedMedian(vw) * cycles[label];
        cyc += cycles[label];
    }
    return cyc > 0 ? ns / cyc : 0.0;
}

/** Median reference step time over every block of @p p. */
double
refNs(const PassResult &p)
{
    std::vector<double> v;
    for (const CellRun &c : p.cells)
        for (const Block &b : c.blocks)
            if (b.refNs > 0)
                v.push_back(b.refNs);
    return median(v);
}

/** kRefNominalNs / the pass's reference step time. */
double
refScale(const PassResult &p)
{
    const double r = refNs(p);
    return r > 0 ? kRefNominalNs / r : 0.0;
}

/** Per-pass statistic, then the median over passes. */
template <typename Fn>
double
medianOverPasses(const std::vector<PassResult> &passes, Fn &&fn)
{
    std::vector<double> v;
    for (const PassResult &p : passes)
        v.push_back(fn(p));
    return median(v);
}

struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Check every cell of @p pass against @p pinned; report failures. */
void
checkPass(const PinnedTable &pinned, std::uint64_t slot,
          const PassResult &pass, Outcome &o)
{
    for (const CellRun &c : pass.cells) {
        ++o.attempted;
        const std::string why = pinned.check(slot, c);
        if (!why.empty()) {
            ++o.failed;
            std::fprintf(stderr, "perfbench: FAILED cell %s (seed slot "
                                 "%llu): %s\n",
                         c.label.c_str(),
                         static_cast<unsigned long long>(slot),
                         why.c_str());
        }
    }
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(const std::string &workload, const Outcome &o,
            const std::vector<Metric> &metrics)
{
    std::printf("workload %s: %llu cells attempted, %llu failed\n",
                workload.c_str(),
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed));
    for (const Metric &m : metrics)
        std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string json = csprintf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        o.failed == 0 ? "true" : "false",
        static_cast<unsigned long long>(o.attempted),
        static_cast<unsigned long long>(o.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        json += csprintf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                         i ? ", " : "", metrics[i].name.c_str(),
                         stats::formatDouble(v).c_str(),
                         metrics[i].unit.c_str());
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double
passSetupNs(const PassResult &p)
{
    double ns = 0;
    for (const CellRun &c : p.cells)
        ns += double(c.buildCpuNs);
    return ns;
}

/**
 * The end-to-end metrics. Host times are scaled to the nominal
 * reference step time (see hostRefSampleNs); the unscaled figures are
 * printed beside them.
 */
std::vector<Metric>
endToEnd(const std::vector<PassResult> &passes)
{
    const double scaled_ns = nsPerCycle(passes, true);
    const double raw_ns = nsPerCycle(passes, false);
    std::printf("unscaled: %.6g kcycles/s, wall %.6g s, setup %.6g s; "
                "reference step %.4g ns (nominal %.4g)\n",
                raw_ns > 0 ? 1e6 / raw_ns : 0.0,
                medianOverPasses(passes,
                                 [](const PassResult &p) {
                                     return double(p.wallNs) * 1e-9;
                                 }),
                medianOverPasses(passes,
                                 [](const PassResult &p) {
                                     return passSetupNs(p) * 1e-9;
                                 }),
                medianOverPasses(passes, refNs), kRefNominalNs);
    return {
        {"sim_kcycles_per_s", scaled_ns > 0 ? 1e6 / scaled_ns : 0.0,
         "kcycles/s"},
        {"wall_s",
         medianOverPasses(passes,
                          [](const PassResult &p) {
                              return double(p.wallNs) * 1e-9 * refScale(p);
                          }),
         "s"},
        {"setup_s",
         medianOverPasses(passes,
                          [](const PassResult &p) {
                              return passSetupNs(p) * 1e-9 * refScale(p);
                          }),
         "s"},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
    };
}

/**
 * The profiler phase each per-layer self-time metric reads, and the
 * metric-name prefix. The Run phase's own self time is the GpuSystem
 * tick-path glue between the component phases.
 */
struct LayerPhase
{
    const char *prefix;
    prof::Phase phase;
};

constexpr LayerPhase kLayerPhases[] = {
    {"noc.", prof::Phase::Noc},        {"node.", prof::Phase::Node},
    {"core.glue_", prof::Phase::Run},  {"gpucore.", prof::Phase::Core},
    {"dram.", prof::Phase::Dram},      {"l2.", prof::Phase::L2},
    {"build.", prof::Phase::Build},
};

std::uint64_t
counter(const prof::Report &r, prof::Counter c)
{
    return r.counters[static_cast<std::size_t>(c)];
}

std::vector<Metric>
perLayer(const std::vector<PassResult> &plain,
         const std::vector<PassResult> &traced,
         const std::vector<std::pair<std::string, double>> &driven)
{
    const core::SystemConfig sys;
    std::vector<Metric> out;

    // Self time per phase: per cell, the median over traced passes of
    // self ns per simulated cycle; then cycle-weighted over cells.
    std::map<std::string, std::vector<std::vector<double>>> per_cell;
    std::map<std::string, double> cell_cycles;
    std::uint64_t covered = 0, bracket = 0;
    double q_xbar = 0, n_xbar = 0, q_node = 0, n_node = 0, q_core = 0,
           n_core = 0, q_dram = 0, n_dram = 0, memreq = 0, ticks = 0;
    for (const PassResult &p : traced) {
        for (const CellRun &c : p.cells) {
            if (!c.ok || !c.prof.enabled)
                continue;
            const double t = double(counter(c.prof, prof::Counter::TickCycles));
            if (t == 0)
                continue;
            std::vector<double> self(prof::kPhaseCount, 0.0);
            for (const prof::ReportNode &n : c.prof.nodes)
                self[static_cast<std::size_t>(n.phase)] += double(n.selfNs);
            for (double &s : self)
                s /= t;
            per_cell[c.label].push_back(self);
            cell_cycles[c.label] = t;
            covered += c.prof.coveredNs();
            bracket += c.prof.wallNs;

            const core::DesignConfig d =
                core::designByName(c.label.substr(0, c.label.find('/')));
            double xbars = 0;
            for (const core::XbarGeometry &g : core::crossbarInventory(d, sys))
                xbars += g.count;
            const double nodes =
                d.topology == core::Topology::DcL1 ? d.numNodes : 0;
            q_xbar += double(counter(c.prof, prof::Counter::QuiescentXbar));
            n_xbar += t * xbars;
            q_node += double(counter(c.prof, prof::Counter::QuiescentNode));
            n_node += t * nodes;
            q_core += double(counter(c.prof, prof::Counter::QuiescentCore));
            n_core += t * sys.numCores;
            q_dram += double(counter(c.prof, prof::Counter::QuiescentDram));
            n_dram += t * sys.numChannels;
            memreq += double(counter(c.prof, prof::Counter::MemReqAlloc));
            ticks += t;
        }
    }
    std::vector<double> self_ns(prof::kPhaseCount, 0.0);
    double all_cycles = 0;
    for (const auto &[label, samples] : per_cell) {
        for (std::size_t ph = 0; ph < prof::kPhaseCount; ++ph) {
            std::vector<double> v;
            for (const auto &s : samples)
                v.push_back(s[ph]);
            self_ns[ph] += median(v) * cell_cycles[label];
        }
        all_cycles += cell_cycles[label];
    }
    double self_total = 0;
    for (double s : self_ns)
        self_total += s;
    auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    // Traced passes do not sample the reference: compare unscaled.
    const double traced_ns = nsPerCycle(traced, false);
    const double plain_ns = nsPerCycle(plain, false);
    out.push_back({"prof.overhead_frac",
                   plain_ns > 0 ? traced_ns / plain_ns - 1.0 : 0.0, "frac"});
    out.push_back({"prof.coverage", frac(double(covered), double(bracket)),
                   "frac"});
    out.push_back({"host.ref_step_ns", medianOverPasses(plain, refNs), "ns"});
    for (const LayerPhase &lp : kLayerPhases) {
        const double s = self_ns[static_cast<std::size_t>(lp.phase)];
        if (lp.phase != prof::Phase::Build)
            out.push_back({std::string(lp.prefix) + "self_ns_per_cycle",
                           frac(s, all_cycles), "ns/cycle"});
        out.push_back({std::string(lp.prefix) + "self_share",
                       frac(s, self_total), "frac"});
    }
    out.push_back({"noc.quiescent_tick_frac", frac(q_xbar, n_xbar), "frac"});
    out.push_back({"node.quiescent_tick_frac", frac(q_node, n_node), "frac"});
    out.push_back(
        {"gpucore.quiescent_tick_frac", frac(q_core, n_core), "frac"});
    out.push_back({"dram.quiescent_tick_frac", frac(q_dram, n_dram), "frac"});
    out.push_back({"mem.memreq_alloc_per_kcycle", 1000.0 * frac(memreq, ticks),
                   "count/kcycle"});

    // Exact counts and per-cell host costs from the untraced passes.
    double allocs = 0, bytes = 0, cycles = 0;
    for (const PassResult &p : plain)
        for (const CellRun &c : p.cells)
            if (c.ok) {
                allocs += double(c.runAllocs);
                bytes += double(c.runBytes);
                cycles += double(c.cycles);
            }
    out.push_back({"heap.allocs_per_kcycle", 1000.0 * frac(allocs, cycles),
                   "count/kcycle"});
    out.push_back({"heap.bytes_per_kcycle", 1000.0 * frac(bytes, cycles),
                   "B/kcycle"});
    auto per_cell_ms = [&](auto field) {
        return medianOverPasses(plain, [&](const PassResult &p) {
            double ns = 0;
            for (const CellRun &c : p.cells)
                ns += double(field(c));
            return p.cells.empty() ? 0.0 : ns * 1e-6 / double(p.cells.size());
        });
    };
    out.push_back({"build.ms_per_cell",
                   per_cell_ms([](const CellRun &c) { return c.buildCpuNs; }),
                   "ms"});
    out.push_back({"stats.digest_ms_per_cell",
                   per_cell_ms([](const CellRun &c) { return c.digestNs; }),
                   "ms"});

    // Engine utilisation: busy = job time / (workers x pass wall);
    // tail idle = time workers sat idle after their last job.
    out.push_back(
        {"exec.worker_busy_frac",
         medianOverPasses(plain,
                          [](const PassResult &p) {
                              double busy = 0;
                              for (const CellRun &c : p.cells)
                                  busy += double(c.endNs - c.startNs);
                              return busy / (double(p.workers) *
                                             double(p.wallNs));
                          }),
         "frac"});
    out.push_back(
        {"exec.tail_idle_frac",
         medianOverPasses(plain,
                          [](const PassResult &p) {
                              std::vector<double> last(p.workers, 0.0);
                              for (const CellRun &c : p.cells)
                                  if (c.worker < p.workers)
                                      last[c.worker] = std::max(
                                          last[c.worker], double(c.endNs));
                              double idle = 0;
                              for (double l : last)
                                  idle += double(p.wallNs) - l;
                              return idle / (double(p.workers) *
                                             double(p.wallNs));
                          }),
         "frac"});
    out.push_back({"exec.cells_memoised",
                   plain.empty() ? 0.0 : double(plain.front().memoised),
                   "count"});

    for (const auto &[name, value] : driven) {
        std::string unit = "ns";
        if (name.ends_with("flits_per_tick"))
            unit = "flits/tick";
        else if (name.ends_with("rate"))
            unit = "frac";
        out.push_back({name, value, unit});
    }
    return out;
}

/** Repeat passes until @p deadline (steady ns); at least one. */
std::vector<PassResult>
passesUntil(const Workload &w, const PassOptions &po, std::uint64_t deadline,
            const PinnedTable &pinned, Outcome &o)
{
    std::vector<PassResult> passes;
    do {
        passes.push_back(runPass(w, po));
        checkPass(pinned, po.seedSlot, passes.back(), o);
    } while (steadyNs() < deadline);
    return passes;
}

int
runBenchmark(const Args &a, std::uint64_t start)
{
    const Workload &w = *workloadByName(a.workload);
    const std::uint64_t slot = a.seed % kSeedSlots;
    PinnedTable pinned;
    std::string why;
    if (!pinned.load(PinnedTable::path(a.expectedDir, w),
                     PinnedTable::header(w), why))
        std::fprintf(stderr, "perfbench: no pinned results: %s; every "
                             "cell counts as failed\n",
                     why.c_str());

    const auto at = [&](double frac) {
        return start + static_cast<std::uint64_t>(frac * a.seconds * 1e9);
    };
    Outcome o;
    PassOptions po;
    po.seedSlot = slot;
    if (a.trace == 0) {
        const std::vector<PassResult> passes =
            passesUntil(w, po, at(1.0), pinned, o);
        std::printf("%zu passes of %zu cells, seed %llu (slot %llu)\n",
                    passes.size(), passes.front().cells.size(),
                    static_cast<unsigned long long>(a.seed),
                    static_cast<unsigned long long>(slot));
        printResult(w.name, o, endToEnd(passes));
        return 0;
    }

    // Traced run: untraced passes (exact counts, the overhead
    // reference), then profiled passes, then the layer probes shaped
    // by what the passes measured.
    const std::vector<PassResult> plain =
        passesUntil(w, po, at(0.35), pinned, o);
    po.traced = true;
    const std::vector<PassResult> traced =
        passesUntil(w, po, at(0.75), pinned, o);
    const std::vector<std::pair<std::string, double>> driven =
        driveLayers(shapeFrom(w, slot, traced));
    std::printf("%zu untraced + %zu traced passes of %zu cells, seed %llu "
                "(slot %llu)\n",
                plain.size(), traced.size(), plain.front().cells.size(),
                static_cast<unsigned long long>(a.seed),
                static_cast<unsigned long long>(slot));
    printResult(w.name, o, perLayer(plain, traced, driven));
    return 0;
}

int
updateExpected(const Args &a)
{
    for (const Workload &w : workloads()) {
        if (!a.workload.empty() && w.name != a.workload)
            continue;
        PinnedTable table;
        std::size_t failed = 0;
        for (std::uint64_t slot = 0; slot < kSeedSlots; ++slot) {
            PassOptions po;
            po.seedSlot = slot;
            po.workers = 4;
            for (const CellRun &c : runPass(w, po).cells) {
                if (!c.ok) {
                    ++failed;
                    std::fprintf(stderr, "perfbench: %s slot %llu: %s\n",
                                 c.label.c_str(),
                                 static_cast<unsigned long long>(slot),
                                 c.error.c_str());
                    continue;
                }
                table.set(slot, c.label, Pinned{hex64(c.digest), c.metrics});
            }
        }
        if (failed != 0) {
            std::fprintf(stderr, "perfbench: %zu cells of %s failed; "
                                 "nothing written\n",
                         failed, w.name.c_str());
            return 1;
        }
        const std::string path = PinnedTable::path(a.expectedDir, w);
        table.save(path, PinnedTable::header(w));
        std::printf("pinned %zu cells of %s in %s\n", table.size(),
                    w.name.c_str(), path.c_str());
    }
    return 0;
}

bool
expect(bool cond, const char *what)
{
    std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
    return cond;
}

/** Everything host-independent a pass produced, for equality checks. */
std::string
passFingerprint(const PassResult &p)
{
    std::string s;
    for (const CellRun &c : p.cells) {
        s += c.label + " " + hex64(c.digest) + " " + c.metrics + " " +
             std::to_string(c.runAllocs) + " " + std::to_string(c.runBytes);
        for (std::size_t i = 0; i < prof::kCounterCount; ++i)
            s += " " + std::to_string(c.prof.counters[i]);
        s += "\n";
    }
    return s;
}

int
selftest(const Args &a)
{
    bool ok = true;
    const Workload &shared = *workloadByName("dcl1_shared");
    const Workload &grid = *workloadByName("paper_grid");

    // 1. Same seed: identical digests, metrics, heap and profiler
    //    counts — serially and on the engine's worker threads.
    PassOptions small;
    small.warmup = 2000;
    small.measure = 2000;
    small.maxCells = 2;
    small.traced = true;
    const PassResult s1 = runPass(shared, small);
    const PassResult s2 = runPass(shared, small);
    ok &= expect(s1.cells.size() == 2 && s1.cells[0].ok && s1.cells[1].ok,
                 "serial cells run");
    ok &= expect(passFingerprint(s1) == passFingerprint(s2),
                 "same seed: identical digests and counts (serial)");
    ok &= expect(s1.cells[0].runAllocs > 0, "heap allocations are counted");
    PassOptions untraced = small;
    untraced.traced = false; // samples the host reference, which allocates
    ok &= expect(passFingerprint(runPass(shared, untraced)) ==
                     passFingerprint(runPass(shared, untraced)),
                 "same seed: identical digests and counts (untraced)");
    PassOptions threaded = untraced;
    threaded.maxCells = 4;
    threaded.workers = 2;
    const PassResult g1 = runPass(grid, threaded);
    const PassResult g2 = runPass(grid, threaded);
    ok &= expect(passFingerprint(g1) == passFingerprint(g2),
                 "same seed: identical digests and counts (2 workers)");

    // 2. Another seed changes the generated inputs and the results.
    PassOptions other = small;
    other.seedSlot = 1;
    const PassResult s3 = runPass(shared, other);
    ok &= expect(hex64(s3.cells[0].digest) != hex64(s1.cells[0].digest),
                 "another seed: different stat digest");
    const core::SystemConfig sys;
    const workload::WorkloadParams app = appParams("T-AlexNet");
    workload::SyntheticSource src0(app, sys.numCores, sys.lineBytes,
                                   platformSeed(0));
    workload::SyntheticSource src1(app, sys.numCores, sys.lineBytes,
                                   platformSeed(1));
    bool differs = false;
    workload::WarpInstr i0, i1;
    for (Cycle now = 0; now < 1000 && !differs; ++now) {
        src0.nextInstr(0, 0, now, i0);
        src1.nextInstr(0, 0, now, i1);
        differs = i0.isMem != i1.isMem ||
                  (i0.isMem && i0.accesses[0].addr != i1.accesses[0].addr);
    }
    ok &= expect(differs, "another seed: different instruction stream");

    // 3. A corrupted pinned value is a failed cell, not a crash.
    PinnedTable pinned;
    std::string why;
    const bool loaded = pinned.load(PinnedTable::path(a.expectedDir, shared),
                                    PinnedTable::header(shared), why);
    ok &= expect(loaded, "pinned results load");
    PassOptions one;
    one.maxCells = 1;
    const PassResult real = runPass(shared, one);
    Outcome clean, corrupted;
    checkPass(pinned, 0, real, clean);
    ok &= expect(clean.attempted == 1 && clean.failed == 0,
                 "cell matches its pinned result");
    ok &= expect(pinned.corrupt(0, real.cells[0].label),
                 "pinned entry corrupted");
    checkPass(pinned, 0, real, corrupted);
    ok &= expect(corrupted.attempted == 1 && corrupted.failed == 1,
                 "corrupted pinned result counts as a failed cell");
    PinnedTable missing;
    ok &= expect(!missing.load(a.expectedDir + "/no-such-file.tsv",
                               PinnedTable::header(shared), why),
                 "missing pinned file is reported");
    Outcome unpinned;
    checkPass(missing, 0, real, unpinned);
    ok &= expect(unpinned.failed == 1, "unpinned cell counts as failed");

    std::printf("selftest %s\n", ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const std::uint64_t start = steadyNs();
    const Args a = parseArgs(argc, argv);
    if (a.selftest)
        return selftest(a);
    if (a.updateExpected)
        return updateExpected(a);
    return runBenchmark(a, start);
}
