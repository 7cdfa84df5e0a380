/**
 * @file
 * Figure 4: private DC-L1 designs on the replication-sensitive apps.
 *  (a) IPC of Pr80/Pr40/Pr20/Pr10 normalized to baseline
 *  (b) DC-L1 miss rate normalized to baseline
 *  (c) average IPC with normal vs. perfect (100 % hit) DC-L1s,
 *      including the perfect-L1 private baseline ("Base").
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
    std::vector<core::DesignConfig> designs = {
        core::withPerfectL1(core::baselineDesign())};
    for (const std::uint32_t y : {80u, 40u, 20u, 10u}) {
        designs.push_back(core::privateDcl1(y));
        designs.push_back(core::withPerfectL1(core::privateDcl1(y)));
    }
    h.declare(designs, h.apps(/*sensitive_only=*/true));
}

void
render(Harness &h)
{
    h.title("Figure 4",
            "Private DC-L1 aggregation sweep (replication-sensitive "
            "apps)");

    const std::vector<std::uint32_t> node_counts = {80, 40, 20, 10};
    const auto apps = h.apps(/*sensitive_only=*/true);

    header("(a) IPC normalized to baseline");
    columns("app", {"Pr80", "Pr40", "Pr20", "Pr10"});
    std::vector<double> ipc_sum(4, 0.0);
    std::vector<double> mr_sum(4, 0.0);
    for (const auto &app : apps) {
        std::vector<double> vals;
        for (std::size_t i = 0; i < node_counts.size(); ++i) {
            const auto d = core::privateDcl1(node_counts[i]);
            vals.push_back(h.speedup(d, app));
            ipc_sum[i] += vals.back();
            const double base_mr = h.baseline(app).l1MissRate;
            mr_sum[i] +=
                base_mr > 0 ? h.run(d, app).l1MissRate / base_mr : 1.0;
        }
        row(app.params.name, vals, "%8.2f");
    }
    std::vector<double> ipc_avg, mr_avg;
    for (std::size_t i = 0; i < node_counts.size(); ++i) {
        ipc_avg.push_back(ipc_sum[i] / double(apps.size()));
        mr_avg.push_back(mr_sum[i] / double(apps.size()));
    }
    row("AVG", ipc_avg, "%8.2f");
    std::printf("paper AVG: Pr80 0.97, Pr40 1.15, Pr20 0.97, Pr10 "
                "0.66\n");

    header("(b) DC-L1 miss rate normalized to baseline (average)");
    columns("", {"Pr80", "Pr40", "Pr20", "Pr10"});
    row("AVG", mr_avg, "%8.2f");
    std::printf("paper: Pr80 ~1.00, Pr40 0.81, Pr20 0.51, Pr10 0.26\n");

    header("(c) average IPC with perfect DC-L1s");
    columns("", {"normal", "perfect"});
    for (std::size_t i = 0; i < node_counts.size(); ++i) {
        const auto d = core::privateDcl1(node_counts[i]);
        double norm = 0, perf = 0;
        for (const auto &app : apps) {
            norm += h.speedup(d, app);
            perf += h.speedup(core::withPerfectL1(d), app);
        }
        row(d.name,
            {norm / double(apps.size()), perf / double(apps.size())},
            "%8.2f");
    }
    double base_perf = 0;
    for (const auto &app : apps)
        base_perf += h.speedup(core::withPerfectL1(core::baselineDesign()),
                               app);
    row("Base", {1.0, base_perf / double(apps.size())}, "%8.2f");
    std::printf("paper: perfect Pr40 2.2x, perfect Base 5.2x; Pr80 "
                "perfect = 3.3x its normal IPC\n");
}

} // anonymous namespace

const Figure fig04_private_dcl1 = {"fig04_private_dcl1", declare, render};

} // namespace dcl1::bench
