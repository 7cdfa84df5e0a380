/**
 * @file
 * Figure 11: the clustered shared DC-L1 design under different cluster
 * counts (C1 = Sh40 ... C40 = Pr40) on the replication-sensitive apps:
 * (a) L1 miss rate and (b) IPC, normalized to baseline.
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
    std::vector<core::DesignConfig> designs;
    for (const std::uint32_t c : {1u, 5u, 10u, 20u, 40u})
        designs.push_back(core::clusteredDcl1(40, c));
    h.declare(designs, h.apps(/*sensitive_only=*/true));
}

void
render(Harness &h)
{
    h.title("Figure 11",
            "Cluster-count sweep (C1=Sh40 .. C40=Pr40), "
            "replication-sensitive apps");

    const std::vector<std::uint32_t> cluster_counts = {1, 5, 10, 20, 40};
    const auto apps = h.apps(/*sensitive_only=*/true);

    header("(a) miss rate normalized to baseline");
    columns("app", {"C1", "C5", "C10", "C20", "C40"});
    std::vector<double> mr_sum(5, 0), ipc_sum(5, 0);
    for (const auto &app : apps) {
        std::vector<double> vals;
        for (std::size_t i = 0; i < cluster_counts.size(); ++i) {
            const auto d = core::clusteredDcl1(40, cluster_counts[i]);
            const double base_mr = h.baseline(app).l1MissRate;
            const double mr =
                base_mr > 0 ? h.run(d, app).l1MissRate / base_mr : 1.0;
            vals.push_back(mr);
            mr_sum[i] += mr;
            ipc_sum[i] += h.speedup(d, app);
        }
        row(app.params.name, vals, "%8.2f");
    }
    std::vector<double> mr_avg, ipc_avg;
    for (std::size_t i = 0; i < cluster_counts.size(); ++i) {
        mr_avg.push_back(mr_sum[i] / double(apps.size()));
        ipc_avg.push_back(ipc_sum[i] / double(apps.size()));
    }
    row("AVG", mr_avg, "%8.2f");
    std::printf("paper avg miss-rate reduction: C1 89%%, C5 72%%, C10 "
                "61%%, C20 41%%, C40 19%%\n");

    header("(b) IPC normalized to baseline");
    columns("app", {"C1", "C5", "C10", "C20", "C40"});
    for (const auto &app : apps) {
        std::vector<double> vals;
        for (std::uint32_t z : cluster_counts)
            vals.push_back(h.speedup(core::clusteredDcl1(40, z), app));
        row(app.params.name, vals, "%8.2f");
    }
    row("AVG", ipc_avg, "%8.2f");
    std::printf("paper avg IPC: C1 1.48, C10 1.41, C40 1.15\n");
}

} // anonymous namespace

const Figure fig11_clustered = {"fig11_clustered", declare, render};

} // namespace dcl1::bench
