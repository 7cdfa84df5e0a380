/**
 * @file
 * Figure 16: L1/DC-L1 miss rate of the proposed designs normalized to
 * baseline (replication-sensitive apps), plus the average replica
 * counts the paper quotes in the discussion (7.7 baseline, 5.7 Pr40,
 * 1.0 Sh40, 2.8 Sh40+C10+Boost).
 */

#include <cstdio>

#include "bench/bench_common.hh"

namespace dcl1::bench
{

namespace
{

/** The four proposed designs this figure compares. */
std::vector<core::DesignConfig>
figureDesigns()
{
    return {core::privateDcl1(40), core::sharedDcl1(40),
            core::clusteredDcl1(40, 10), core::clusteredDcl1(40, 10, true)};
}

void
declare(Harness &h)
{
    h.declare(figureDesigns(), h.apps(/*sensitive_only=*/true));
}

void
render(Harness &h)
{
    h.title("Figure 16", "Miss rate and replica counts by design");

    const auto designs = figureDesigns();

    header("miss rate normalized to baseline (sensitive apps)");
    columns("app", {"Pr40", "Sh40", "C10", "C10+Bst"});
    const auto apps = h.apps(/*sensitive_only=*/true);
    std::vector<double> mr_sum(4, 0);
    std::vector<double> rep_sum(5, 0);
    for (const auto &app : apps) {
        const double base_mr = h.baseline(app).l1MissRate;
        rep_sum[0] += h.baseline(app).avgReplicas;
        std::vector<double> vals;
        for (std::size_t i = 0; i < designs.size(); ++i) {
            const auto &rm = h.run(designs[i], app);
            vals.push_back(base_mr > 0 ? rm.l1MissRate / base_mr : 1.0);
            mr_sum[i] += vals.back();
            rep_sum[i + 1] += rm.avgReplicas;
        }
        row(app.params.name, vals, "%8.2f");
    }
    std::vector<double> mr_avg;
    for (double v : mr_sum)
        mr_avg.push_back(v / double(apps.size()));
    row("AVG", mr_avg, "%8.2f");

    header("average replicas per line (discussion numbers)");
    columns("", {"Base", "Pr40", "Sh40", "C10", "C10+Bst"});
    std::vector<double> rep_avg;
    for (double v : rep_sum)
        rep_avg.push_back(v / double(apps.size()));
    row("replicas", rep_avg, "%8.2f");
    std::printf("paper: baseline 7.7, Pr40 5.7, Sh40 1.0 (zero "
                "replicas), Sh40+C10+Boost 2.8\n");
}

} // anonymous namespace

const Figure fig16_missrate_replicas = {
    "fig16_missrate_replicas", declare, render};

} // namespace dcl1::bench
