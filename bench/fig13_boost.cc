/**
 * @file
 * Figure 13:
 *  (a) the five poor-performing apps under Sh40, Sh40+C10 and
 *      Sh40+C10+Boost, normalized to baseline;
 *  (b) maximum crossbar operating frequency by geometry (DSENT-like).
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "power/xbar_model.hh"

namespace dcl1::bench
{

namespace
{

void
declare(Harness &h)
{
    std::vector<workload::AppInfo> poor;
    for (const auto &app : h.apps())
        if (app.poorUnderSh40)
            poor.push_back(app);
    h.declare({core::sharedDcl1(40), core::clusteredDcl1(40, 10),
               core::clusteredDcl1(40, 10, true)},
              poor);
}

void
render(Harness &h)
{
    h.title("Figure 13",
            "Poor performers under clustering + frequency boost; max "
            "crossbar frequencies");

    header("(a) poor-performing apps, IPC normalized to baseline");
    columns("app", {"Sh40", "C10", "C10+Bst"});
    for (const auto &app : h.apps()) {
        if (!app.poorUnderSh40)
            continue;
        row(app.params.name,
            {h.speedup(core::sharedDcl1(40), app),
             h.speedup(core::clusteredDcl1(40, 10), app),
             h.speedup(core::clusteredDcl1(40, 10, true), app)},
            "%8.2f");
    }
    std::printf("paper: C-RAY/P-3MM/P-GEMM recover under C10 (camping "
                "relieved); P-2DCONV and C-NN recover only with Boost; "
                "max residual drop 49%% (P-2DCONV, C10)\n");

    header("(b) maximum crossbar frequency (GHz)");
    power::XbarModel model;
    struct Geo
    {
        const char *name;
        std::uint32_t in, out;
    };
    for (const Geo &g : {Geo{"80x32 (Baseline)", 80, 32},
                         Geo{"80x40 (Sh40)", 80, 40},
                         Geo{"40x32 (NoC#2)", 40, 32},
                         Geo{"10x8 (C10 NoC#2)", 10, 8},
                         Geo{"8x4 (C10 NoC#1)", 8, 4},
                         Geo{"2x1 (Pr40 NoC#1)", 2, 1}}) {
        std::printf("%-18s %6.2f GHz %s\n", g.name,
                    model.maxFrequencyGHz(g.in, g.out),
                    model.maxFrequencyGHz(g.in, g.out) >= 1.4
                        ? "(can run at 2x 700 MHz)"
                        : "");
    }
    std::printf("\npaper: the 80x32 and 80x40 crossbars cannot run at "
                "2x the 700 MHz baseline; the small 8x4 and 2x1 "
                "crossbars can\n");
}

} // anonymous namespace

const Figure fig13_boost = {"fig13_boost", declare, render};

} // namespace dcl1::bench
