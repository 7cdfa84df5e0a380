/**
 * @file
 * Extension study (paper Sec. VIII-A closing claim): "our proposed
 * designs are expected to improve performance with larger DC-L1s or
 * boosted NoC resources." Sweeps DC-L1 capacity (1x/2x/4x the paper's
 * budget) and an additionally boosted NoC#2 on top of Sh40+C10+Boost,
 * for the replication-sensitive applications.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "common/log.hh"

namespace dcl1::bench
{

namespace
{

/** Sh40+C10+Boost with NoC#2 also at the core clock. */
core::DesignConfig
boostNoc2()
{
    core::DesignConfig d = core::clusteredDcl1(40, 10, true);
    d.noc2ClockRatio = 1.0;
    d.name = "Sh40+C10+Boost+2xNoC2";
    return d;
}

void
declare(Harness &h)
{
    const auto boost = core::clusteredDcl1(40, 10, true);
    h.declare({boost, core::withCapacityScale(boost, 2.0),
               core::withCapacityScale(boost, 4.0), boostNoc2()},
              h.apps(/*sensitive_only=*/true));
}

void
render(Harness &h)
{
    h.title("Extension: scaling DC-L1 capacity and NoC resources",
            "Paper Sec. VIII-A: bigger DC-L1s / faster NoCs should "
            "extend the benefit");

    const auto apps = h.apps(/*sensitive_only=*/true);

    header("DC-L1 capacity scaling on Sh40+C10+Boost (avg speedup)");
    columns("", {"1x", "2x", "4x"});
    std::vector<double> cap_avg;
    for (double scale : {1.0, 2.0, 4.0}) {
        core::DesignConfig d = core::clusteredDcl1(40, 10, true);
        if (scale != 1.0)
            d = core::withCapacityScale(d, scale);
        double sum = 0;
        for (const auto &app : apps)
            sum += h.speedup(d, app);
        cap_avg.push_back(sum / double(apps.size()));
    }
    row("speedup", cap_avg, "%8.2f");

    header("additionally boosting NoC#2 (avg speedup)");
    {
        const core::DesignConfig d = boostNoc2();
        double base_sum = 0, sum = 0;
        for (const auto &app : apps) {
            base_sum += h.speedup(core::clusteredDcl1(40, 10, true), app);
            sum += h.speedup(d, app);
        }
        columns("", {"Boost", "+2xNoC2"});
        row("speedup",
            {base_sum / double(apps.size()), sum / double(apps.size())},
            "%8.2f");
        std::printf("(the paper keeps NoC#2 at 700 MHz because the "
                    "10x8 crossbars see little traffic; the headroom "
                    "above quantifies that choice)\n");
    }
}

} // anonymous namespace

const Figure ext_scaling = {"ext_scaling", declare, render};

} // namespace dcl1::bench
