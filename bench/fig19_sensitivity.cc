/**
 * @file
 * Figure 19:
 *  (a) hierarchical crossbar (CDXBar) variants vs. Sh40+C10+Boost,
 *      averaged over the replication-sensitive and -insensitive sets;
 *  (b) L1 access-latency sweep (0..64 cycles) for Sh40+C10+Boost,
 *      each point normalized to a baseline with the same L1 latency.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "common/log.hh"

namespace dcl1::bench
{

namespace
{

/** Panel (a): the CDXBar variants against Sh40+C10+Boost. */
std::vector<core::DesignConfig>
cdxbarComparison()
{
    return {core::cdxbarDesign(false, false), core::cdxbarDesign(true, false),
            core::cdxbarDesign(true, true), core::clusteredDcl1(40, 10, true)};
}

void
declare(Harness &h)
{
    std::vector<core::DesignConfig> grid = cdxbarComparison();
    for (const std::int32_t lat : {0, 16, 28, 48, 64}) {
        grid.push_back(core::withL1Latency(core::baselineDesign(), lat));
        grid.push_back(
            core::withL1Latency(core::clusteredDcl1(40, 10, true), lat));
    }
    h.declare(grid, h.apps());
}

void
render(Harness &h)
{
    h.title("Figure 19",
            "CDXBar comparison and L1 access-latency sensitivity");

    header("(a) CDXBar variants, IPC normalized to baseline (averages)");
    const std::vector<core::DesignConfig> designs = cdxbarComparison();
    columns("", {"CDXBar", "+2xNoC1", "+2xNoC", "C10+Bst"});

    for (bool sensitive : {true, false}) {
        const auto apps = h.apps(sensitive, !sensitive);
        std::vector<double> avg;
        for (const auto &d : designs) {
            double sum = 0;
            for (const auto &app : apps)
                sum += h.speedup(d, app);
            avg.push_back(sum / double(apps.size()));
        }
        row(sensitive ? "sensitive" : "insensitive", avg, "%8.2f");
    }
    std::printf("paper: CDXBar 0.86/0.93, CDXBar+2xNoC1 ~CDXBar, "
                "CDXBar+2xNoC 1.29/1.05, Sh40+C10+Boost 1.75/0.99\n");

    header("(b) L1 access-latency sweep (normalized per-latency)");
    columns("latency", {"speedup(sens)", "speedup(ins)"});
    for (std::int32_t lat : {0, 16, 28, 48, 64}) {
        const auto base_l =
            core::withL1Latency(core::baselineDesign(), lat);
        const auto boost_l =
            core::withL1Latency(core::clusteredDcl1(40, 10, true), lat);
        double s_sum = 0, i_sum = 0;
        int s_n = 0, i_n = 0;
        for (const auto &app : h.apps()) {
            const double sp =
                h.run(boost_l, app).ipc / h.run(base_l, app).ipc;
            if (app.replicationSensitive) {
                s_sum += sp;
                ++s_n;
            } else {
                i_sum += sp;
                ++i_n;
            }
        }
        row(csprintf("%d cyc", lat),
            {s_n ? s_sum / s_n : 0.0, i_n ? i_sum / i_n : 0.0}, "%12.2f");
    }
    std::printf("paper: 1.66x for the sensitive apps even at zero "
                "latency; <1%% drop for the insensitive apps\n");
}

} // anonymous namespace

const Figure fig19_sensitivity = {"fig19_sensitivity", declare, render};

} // namespace dcl1::bench
