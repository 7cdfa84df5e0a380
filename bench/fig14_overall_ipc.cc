/**
 * @file
 * Figure 14: IPC of the four proposed designs (Pr40, Sh40, Sh40+C10,
 * Sh40+C10+Boost) on the replication-sensitive applications, plus the
 * replication-insensitive and overall averages, normalized to the
 * private-L1 baseline.
 */

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
    h.title("Figure 14", "Overall IPC of the proposed designs");

    const auto designs = proposedDesigns();

    header("replication-sensitive apps, IPC normalized to baseline");
    columns("app", {"Pr40", "Sh40", "C10", "C10+Bst"});
    std::vector<double> s_sum(4, 0);
    const auto s_apps = h.apps(/*sensitive_only=*/true);
    for (const auto &app : s_apps) {
        std::vector<double> vals;
        for (std::size_t i = 0; i < designs.size(); ++i) {
            vals.push_back(h.speedup(designs[i], app));
            s_sum[i] += vals.back();
        }
        row(app.params.name, vals, "%8.2f");
    }
    std::vector<double> s_avg;
    for (double v : s_sum)
        s_avg.push_back(v / double(s_apps.size()));
    row("AVG(sens)", s_avg, "%8.2f");
    std::printf("paper: Pr40 1.15, Sh40 1.48, Sh40+C10 1.41, "
                "Sh40+C10+Boost 1.75 (up to 8x)\n");

    header("replication-insensitive and overall averages");
    const auto i_apps = h.apps(false, /*insensitive_only=*/true);
    std::vector<double> i_sum(4, 0);
    for (const auto &app : i_apps)
        for (std::size_t i = 0; i < designs.size(); ++i)
            i_sum[i] += h.speedup(designs[i], app);
    std::vector<double> i_avg, all_avg;
    for (std::size_t i = 0; i < designs.size(); ++i) {
        i_avg.push_back(i_sum[i] / double(i_apps.size()));
        all_avg.push_back((s_sum[i] + i_sum[i]) /
                          double(s_apps.size() + i_apps.size()));
    }
    columns("", {"Pr40", "Sh40", "C10", "C10+Bst"});
    row("AVG(insens)", i_avg, "%8.2f");
    row("AVG(all)", all_avg, "%8.2f");
    std::printf("paper: insensitive 0.93 / 0.78 / 0.89 / >0.99; "
                "overall Sh40+C10+Boost 1.27\n");
}

} // anonymous namespace

const Figure fig14_overall_ipc = {"fig14_overall_ipc", declare, render};

} // namespace dcl1::bench
