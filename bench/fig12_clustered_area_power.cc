/**
 * @file
 * Figure 12: NoC area and static power of the clustered shared DC-L1
 * designs by cluster count, normalized to baseline (DSENT-like model).
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "core/design.hh"
#include "power/xbar_model.hh"

using namespace dcl1;
using namespace dcl1::core;
using namespace dcl1::power;

namespace
{

void
render(bench::Harness &)
{
    SystemConfig sys;
    XbarModel model;
    const NocCost base =
        model.cost(crossbarInventory(baselineDesign(), sys));

    std::printf("==== Figure 12 ====\n");
    std::printf("NoC area and static power by cluster count "
                "(normalized to baseline)\n\n");
    std::printf("%-10s %10s %14s\n", "config", "area", "static power");
    std::printf("%-10s %10.2f %14.2f\n", "Baseline", 1.0, 1.0);
    for (std::uint32_t z : {1u, 5u, 10u, 20u, 40u}) {
        const DesignConfig d = clusteredDcl1(40, z);
        const NocCost c = model.cost(crossbarInventory(d, sys));
        std::printf("%-10s %10.2f %14.2f\n", d.name.c_str(),
                    c.areaMm2 / base.areaMm2,
                    c.staticPowerW / base.staticPowerW);
    }
    std::printf("\npaper: area savings C5 45%%, C10 50%%, C20 45%%; "
                "static power savings C5 15%%, C10 16%%, C20 14%%\n");
}

} // anonymous namespace

const bench::Figure bench::fig12_clustered_area_power = {
    "fig12_clustered_area_power", nullptr, render};
