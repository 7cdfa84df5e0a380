/**
 * @file
 * Figure 17: maximum L1/DC-L1 data-port utilization per application
 * (ascending) for the baseline and the proposed designs — aggregation
 * raises per-port utilization because fewer DC-L1s serve the same
 * traffic.
 */

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.hh"

namespace dcl1::bench
{

namespace
{

/** Baseline and the four proposed designs. */
std::vector<core::DesignConfig>
figureDesigns()
{
    return {core::baselineDesign(), core::privateDcl1(40),
            core::sharedDcl1(40), core::clusteredDcl1(40, 10),
            core::clusteredDcl1(40, 10, true)};
}

void
declare(Harness &h)
{
    h.declare(figureDesigns(), h.apps());
}

void
render(Harness &h)
{
    h.title("Figure 17",
            "Max L1/DC-L1 data-port utilization per design");

    const auto designs = figureDesigns();

    for (const auto &d : designs) {
        std::vector<std::pair<double, std::string>> util;
        for (const auto &app : h.apps())
            util.emplace_back(h.run(d, app).maxL1PortUtil,
                              app.params.name);
        std::sort(util.begin(), util.end());
        header(d.name + " (ascending port utilization)");
        for (const auto &[u, name] : util)
            std::printf("%-14s %6.1f%%\n", name.c_str(), 100.0 * u);
    }
    std::printf("\npaper: all DC-L1 designs show higher per-port "
                "utilization than the baseline's max of 18%%\n");
}

} // anonymous namespace

const Figure fig17_port_utilization = {
    "fig17_port_utilization", declare, render};

} // namespace dcl1::bench
