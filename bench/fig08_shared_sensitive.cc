/**
 * @file
 * Figure 8: the fully shared Sh40 design on the replication-sensitive
 * applications — (a) DC-L1 miss rate and (b) IPC, normalized to the
 * private-L1 baseline.
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
    h.declare({core::sharedDcl1(40)}, h.apps(/*sensitive_only=*/true));
}

void
render(Harness &h)
{
    h.title("Figure 8",
            "Sh40 on the replication-sensitive applications");

    const auto sh40 = core::sharedDcl1(40);
    header("(a) miss rate and (b) IPC, normalized to baseline");
    columns("app", {"missrate", "IPC"});

    double mr_sum = 0, ipc_sum = 0, mr_min = 1e9, mr_max = -1e9,
           ipc_max = 0;
    std::string ipc_max_app;
    const auto apps = h.apps(/*sensitive_only=*/true);
    for (const auto &app : apps) {
        const auto &base = h.baseline(app);
        const auto &sh = h.run(sh40, app);
        const double mr =
            base.l1MissRate > 0 ? sh.l1MissRate / base.l1MissRate : 1.0;
        const double sp = h.speedup(sh40, app);
        row(app.params.name, {mr, sp}, "%8.2f");
        mr_sum += 1.0 - mr;
        mr_min = std::min(mr_min, 1.0 - mr);
        mr_max = std::max(mr_max, 1.0 - mr);
        ipc_sum += sp;
        if (sp > ipc_max) {
            ipc_max = sp;
            ipc_max_app = app.params.name;
        }
    }
    const double n = double(apps.size());
    std::printf("\nmiss-rate reduction: avg %.0f%% (paper 89%%), min "
                "%.0f%% (paper 27%%), max %.0f%% (paper 99%%)\n",
                100 * mr_sum / n, 100 * mr_min, 100 * mr_max);
    std::printf("IPC: avg %.2fx (paper 1.48x), max %.2fx on %s (paper "
                "2.9x on T-AlexNet)\n",
                ipc_sum / n, ipc_max, ipc_max_app.c_str());
}

} // anonymous namespace

const Figure fig08_shared_sensitive = {
    "fig08_shared_sensitive", declare, render};

} // namespace dcl1::bench
