/**
 * @file
 * Figure 15: speedup S-curves — the per-application speedups of each
 * proposed design over baseline, sorted ascending.
 */

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.hh"

namespace dcl1::bench
{

namespace
{

void
declare(Harness &h)
{
    h.declare(proposedDesigns(), h.apps());
}

void
render(Harness &h)
{
    h.title("Figure 15", "Speedup S-curves across all applications");

    const auto designs = proposedDesigns();

    for (const auto &d : designs) {
        std::vector<std::pair<double, std::string>> sp;
        for (const auto &app : h.apps())
            sp.emplace_back(h.speedup(d, app), app.params.name);
        std::sort(sp.begin(), sp.end());

        header(d.name + " (ascending speedup)");
        double tail_min = sp.front().first;
        for (const auto &[v, name] : sp)
            std::printf("%-14s %7.2fx\n", name.c_str(), v);
        std::printf("tail (min) = %.2fx\n", tail_min);
    }
    std::printf("\npaper: Sh40+C10+Boost pushes the tail of the S-curve "
                "toward 1.0 while keeping the replication-sensitive "
                "head high\n");
}

} // anonymous namespace

const Figure fig15_scurve = {"fig15_scurve", declare, render};

} // namespace dcl1::bench
