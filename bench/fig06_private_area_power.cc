/**
 * @file
 * Figure 6: NoC area and static power of the private DC-L1 designs,
 * normalized to the private-L1 baseline (DSENT-like model; no
 * simulation).
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
    const NocCost base = model.cost(crossbarInventory(baselineDesign(),
                                                      sys));

    std::printf("==== Figure 6 ====\n");
    std::printf("NoC area and static power, private DC-L1 designs "
                "(normalized to baseline)\n\n");
    std::printf("%-10s %10s %14s\n", "config", "area", "static power");
    std::printf("%-10s %10.2f %14.2f\n", "Baseline", 1.0, 1.0);
    for (std::uint32_t y : {80u, 40u, 20u, 10u}) {
        const NocCost c =
            model.cost(crossbarInventory(privateDcl1(y), sys));
        std::printf("%-10s %10.2f %14.2f\n", privateDcl1(y).name.c_str(),
                    c.areaMm2 / base.areaMm2,
                    c.staticPowerW / base.staticPowerW);
    }
    std::printf("\npaper: area Pr80 ~1.0, Pr40 0.72, Pr20 0.46, Pr10 "
                "0.33; static power Pr40 0.96, decreasing for Pr20 and "
                "Pr10\n");
}

} // anonymous namespace

const bench::Figure bench::fig06_private_area_power = {
    "fig06_private_area_power", nullptr, render};
