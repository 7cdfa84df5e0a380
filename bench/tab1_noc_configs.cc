/**
 * @file
 * Table I: NoC sizes and peak L1 bandwidth under the private DC-L1
 * configurations (analytical; no simulation).
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "common/log.hh"
#include "core/design.hh"

using namespace dcl1;
using namespace dcl1::core;

namespace
{

/** Render the NoC#1 / NoC#2 column of the inventory. */
std::string
nocString(const DesignConfig &d, const SystemConfig &sys,
          std::uint32_t level)
{
    for (const auto &g : crossbarInventory(d, sys)) {
        if (g.level != level)
            continue;
        if (g.numInputs == 1 && g.numOutputs == 1)
            return csprintf("%u direct links", g.count);
        if (g.count > 1)
            return csprintf("%u x (%ux%u XBar)", g.count, g.numInputs,
                            g.numOutputs);
        return csprintf("%ux%u XBar", g.numInputs, g.numOutputs);
    }
    return "NA";
}

void
render(bench::Harness &)
{
    SystemConfig sys;
    std::printf("==== Table I ====\n");
    std::printf("NoC size and peak L1 bandwidth under private DC-L1 "
                "configurations\n\n");
    std::printf("%-10s %-18s %-18s %-22s %-8s\n", "Config.",
                "NoC#1 Crossbars", "NoC#2 Crossbars", "Peak L1 BW",
                "BW drop");

    // Baseline: per-core L1 port delivers a full line per core cycle.
    const double base_bw = double(sys.lineBytes) * sys.numCores;
    std::printf("%-10s %-18s %-18s %4uB x %-2u x 1400MHz %7s\n",
                "Baseline", "NA",
                nocString(baselineDesign(), sys, 2).c_str(),
                sys.lineBytes, sys.numCores, "-");

    for (std::uint32_t y : {80u, 40u, 20u, 10u}) {
        const DesignConfig d = privateDcl1(y);
        // DC-L1 peak bandwidth: each of the Y nodes returns one 32 B
        // flit per NoC cycle (700 MHz), i.e. line/4 per node at half
        // the core clock.
        const double node_bw = double(sys.flitBytes) * 0.5; // per core
                                                            // cycle
        const double bw = node_bw * y;
        std::printf("%-10s %-18s %-18s %4uB x %-2u x  700MHz %6.0fX\n",
                    d.name.c_str(), nocString(d, sys, 1).c_str(),
                    nocString(d, sys, 2).c_str(), sys.flitBytes, y,
                    base_bw / bw);
    }
    std::printf("\npaper: Pr80 4X, Pr40 8X, Pr20 16X, Pr10 32X "
                "(paper counts links at the core clock: 4X/8X/16X/32X "
                "with our 700 MHz flit clock folded in)\n");
}

} // anonymous namespace

const bench::Figure bench::tab1_noc_configs = {
    "tab1_noc_configs", nullptr, render};
