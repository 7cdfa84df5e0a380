/**
 * @file
 * Figure 2: maximum per-L1 data-port bandwidth utilization and maximum
 * reply-link utilization under the private-L1 baseline, per
 * application in ascending order.
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
    h.declare({}, h.apps());
}

void
render(Harness &h)
{
    h.title("Figure 2",
            "Baseline L1 data-port and L2->core reply-link "
            "utilization (max across units)");

    struct Row
    {
        std::string name;
        double port, link;
    };
    std::vector<Row> rows;
    for (const auto &app : h.apps()) {
        const auto &base = h.baseline(app);
        rows.push_back(
            {app.params.name, base.maxL1PortUtil,
             base.maxCoreReplyLinkUtil});
    }

    auto print_sorted = [&](const char *title, bool by_port) {
        std::sort(rows.begin(), rows.end(),
                  [&](const Row &a, const Row &b) {
                      return by_port ? a.port < b.port : a.link < b.link;
                  });
        header(title);
        for (const auto &r : rows)
            std::printf("%-14s %6.1f%%\n", r.name.c_str(),
                        100.0 * (by_port ? r.port : r.link));
        double mx = 0;
        for (const auto &r : rows)
            mx = std::max(mx, by_port ? r.port : r.link);
        std::printf("max = %.1f%% (paper: %s)\n", 100.0 * mx,
                    by_port ? "18%" : "30%");
    };

    print_sorted("L1 data-port utilization (ascending)", true);
    print_sorted("reply NoC link utilization (ascending)", false);
}

} // anonymous namespace

const Figure fig02_utilization = {"fig02_utilization", declare, render};

} // namespace dcl1::bench
