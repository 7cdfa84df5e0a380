/**
 * @file
 * Figure 1 + Sec. II-A: per-application replication ratio, raw L1 miss
 * rate, IPC improvement under a 16x L1, and the replication-free
 * estimate (shared organization), sorted by replication ratio as in
 * the paper. Replication-sensitive apps are flagged with '*'.
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
    h.declare({core::withCapacityScale(core::baselineDesign(), 16.0),
               core::sharedDcl1(40)},
              h.apps());
}

void
render(Harness &h)
{
    h.title("Figure 1 / Section II-A",
            "Replication ratio, L1 miss rate, 16x-capacity IPC, and "
            "the no-replication estimate per application");

    struct Row
    {
        std::string name;
        bool sensitive;
        double repl, mr, sp16, sp_norepl, mr_norepl;
    };
    std::vector<Row> rows;

    const auto big = core::withCapacityScale(core::baselineDesign(), 16.0);
    const auto shared = core::sharedDcl1(40);

    for (const auto &app : h.apps()) {
        const auto &base = h.baseline(app);
        Row r;
        r.name = app.params.name;
        r.sensitive = app.replicationSensitive;
        r.repl = base.replicationRatio;
        r.mr = base.l1MissRate;
        r.sp16 = h.speedup(big, app);
        r.sp_norepl = h.speedup(shared, app);
        r.mr_norepl = base.l1MissRate > 0.0
                          ? 1.0 - h.run(shared, app).l1MissRate /
                                      base.l1MissRate
                          : 0.0;
        rows.push_back(r);
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) { return a.repl < b.repl; });

    header("per application (ascending replication ratio)");
    std::printf("%-14s %9s %8s %8s | %10s %10s\n", "app", "replratio",
                "L1 miss", "IPC@16x", "noreplIPC", "missredux");
    double s_sp = 0, s_mr = 0;
    int n_s = 0;
    for (const auto &r : rows) {
        std::printf("%-13s%c %9.3f %8.3f %7.2fx | %9.2fx %9.1f%%\n",
                    r.name.c_str(), r.sensitive ? '*' : ' ', r.repl,
                    r.mr, r.sp16, r.sp_norepl, 100.0 * r.mr_norepl);
        if (r.sensitive) {
            s_sp += r.sp_norepl;
            s_mr += r.mr_norepl;
            ++n_s;
        }
    }
    header("replication-sensitive summary (Sec. II-A)");
    std::printf("no-replication design: avg miss-rate reduction %.1f%% "
                "(paper: 89.5%%), avg IPC %.2fx (paper: 2.9x)\n",
                100.0 * s_mr / n_s, s_sp / n_s);
    std::printf("classification criteria (paper): repl>25%%, miss>50%%, "
                "16x speedup>5%%\n");
}

} // anonymous namespace

const Figure fig01_motivation = {"fig01_motivation", declare, render};

} // namespace dcl1::bench
