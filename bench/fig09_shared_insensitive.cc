/**
 * @file
 * Figure 9: Sh40 on the replication-insensitive applications. The five
 * "poor-performing" apps (C-NN, C-RAY, P-3MM, P-GEMM, P-2DCONV) are
 * flagged; R-SC is expected to improve (load balance).
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
    h.declare({core::sharedDcl1(40)}, h.apps(false, /*insensitive_only=*/true));
}

void
render(Harness &h)
{
    h.title("Figure 9",
            "Sh40 on the replication-insensitive applications");

    const auto sh40 = core::sharedDcl1(40);
    struct Row
    {
        std::string name;
        bool poor;
        double sp;
    };
    std::vector<Row> rows;
    for (const auto &app : h.apps(false, /*insensitive_only=*/true))
        rows.push_back({app.params.name, app.poorUnderSh40,
                        h.speedup(sh40, app)});
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) { return a.sp < b.sp; });

    header("IPC normalized to baseline (ascending; ! = poor performer)");
    double worst = 1e9;
    for (const auto &r : rows) {
        std::printf("%-13s%c %8.2f\n", r.name.c_str(),
                    r.poor ? '!' : ' ', r.sp);
        if (r.poor)
            worst = std::min(worst, r.sp);
    }
    std::printf("\npaper: most apps ~1.0; R-SC above 1.0; five poor "
                "performers drop 40-85%% (worst here: %.0f%%)\n",
                100.0 * (1.0 - worst));
}

} // anonymous namespace

const Figure fig09_shared_insensitive = {
    "fig09_shared_insensitive", declare, render};

} // namespace dcl1::bench
