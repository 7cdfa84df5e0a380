/**
 * @file
 * Section VIII-A remaining sensitivity studies:
 *  - distributed CTA scheduler [28] under Sh40+C10+Boost,
 *  - 120-core system (Sh60+C10+Boost),
 *  - boosted baselines (2x L1 capacity, 2x NoC frequency, 2x flit
 *    width) with their model-estimated overheads.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "power/cache_model.hh"
#include "power/xbar_model.hh"

namespace dcl1::bench
{

namespace
{

/** Baseline with NoC#2 at the core clock: the 2x-frequency baseline. */
core::DesignConfig
baseFreq2x()
{
    auto d = core::baselineDesign();
    d.name = "Base+2xNoC";
    d.noc2ClockRatio = 1.0;
    return d;
}

/** The 120-core platform. */
core::SystemConfig
bigSystem()
{
    return core::SystemConfig::scaled(120, 48, 24);
}

/** Sh40+C10+Boost scaled to the 120-core platform. */
core::DesignConfig
bigDesign()
{
    return core::clusteredDcl1(60, 10, true);
}

void
declare(Harness &h)
{
    const auto boost = core::clusteredDcl1(40, 10, true);
    const auto s_apps = h.apps(/*sensitive_only=*/true);
    h.declare({boost, core::withDistributedCta(core::baselineDesign()),
               core::withDistributedCta(boost),
               core::withCapacityScale(core::baselineDesign(), 2.0),
               baseFreq2x()},
              s_apps);
    for (const auto &app : s_apps) {
        h.declare(bigSystem(), core::baselineDesign(), app);
        h.declare(bigSystem(), bigDesign(), app);
    }
}

void
render(Harness &h)
{
    h.title("Section VIII-A sensitivity studies",
            "CTA scheduling, system size, boosted baselines");

    const auto boost = core::clusteredDcl1(40, 10, true);
    const auto s_apps = h.apps(/*sensitive_only=*/true);

    header("distributed CTA scheduler (replication-sensitive avg)");
    {
        double rr = 0, dist = 0;
        for (const auto &app : s_apps) {
            rr += h.speedup(boost, app);
            // Both the design and its baseline use the distributed
            // scheduler (it reduces replication for both).
            const double b =
                h.run(core::withDistributedCta(core::baselineDesign()),
                      app)
                    .ipc;
            const double d =
                h.run(core::withDistributedCta(boost), app).ipc;
            dist += d / b;
        }
        columns("", {"RR-CTA", "DistCTA"});
        row("speedup", {rr / s_apps.size(), dist / s_apps.size()},
            "%8.2f");
        std::printf("paper: 1.75x under round-robin, 1.46x under the "
                    "distributed scheduler (locality lowers "
                    "replication)\n");
    }

    header("120-core system: Sh60+C10+Boost (sensitive avg)");
    {
        double sum = 0;
        for (const auto &app : s_apps)
            sum += h.run(bigSystem(), bigDesign(), app).ipc /
                   h.run(bigSystem(), core::baselineDesign(), app).ipc;
        std::printf("speedup %.2fx (paper: 1.67x on 120 cores vs 1.75x "
                    "on 80)\n", sum / s_apps.size());
    }

    header("boosted baselines (replication-sensitive avg)");
    {
        // 2x per-core L1 capacity.
        auto cache2x = core::withCapacityScale(core::baselineDesign(),
                                               2.0);
        // 2x NoC frequency.
        const auto freq2x = baseFreq2x();
        double c = 0, f = 0, b = 0;
        for (const auto &app : s_apps) {
            c += h.speedup(cache2x, app);
            f += h.speedup(freq2x, app);
            b += h.speedup(boost, app);
        }
        columns("", {"2xL1$", "2xNoC", "C10+Bst"});
        row("speedup",
            {c / s_apps.size(), f / s_apps.size(), b / s_apps.size()},
            "%8.2f");

        power::CacheAreaModel cam;
        const auto a1 = cam.l1Breakdown(core::baselineDesign(), h.sys());
        const auto a2 = cam.l1Breakdown(cache2x, h.sys());
        std::printf("2xL1$ cache-area overhead: +%.0f%% (paper: "
                    "+84%%)\n",
                    100.0 * (a2.cacheArea / a1.cacheArea - 1.0));
        power::XbarModel xm;
        std::printf("2xNoC feasibility: the 80x32 crossbar tops out at "
                    "%.2f GHz < 1.4 GHz (paper: cannot run at 2x)\n",
                    xm.maxFrequencyGHz(80, 32));
        std::printf("paper: boosted baselines gain 33-36%%, ~22 "
                    "points below Sh40+C10+Boost\n");
    }
}

} // anonymous namespace

const Figure sens_misc = {"sens_misc", declare, render};

} // namespace dcl1::bench
