/**
 * @file
 * Figure 18 + Sec. VIII latency analysis for Sh40+C10+Boost:
 *  (a) NoC static / dynamic / total power and energy vs. baseline,
 *      performance-per-watt and energy efficiency;
 *  (b) L1-level area accounting (queues, caches, NoC);
 *  latency: core<->DC-L1 overhead and round-trip-time change.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "power/cache_model.hh"
#include "power/energy_model.hh"
#include "power/xbar_model.hh"

namespace dcl1::bench
{

namespace
{

void
declare(Harness &h)
{
    const auto boost = core::clusteredDcl1(40, 10, true);
    h.declare({boost}, h.apps());
    // The decoupling-overhead line reads C-NN whatever DCL1_APPS says.
    h.declare({boost}, {workload::appByName("C-NN")});
}

void
render(Harness &h)
{
    h.title("Figure 18 / Sec. VIII",
            "NoC power & energy, area accounting, latency analysis "
            "(Sh40+C10+Boost)");

    const auto boost = core::clusteredDcl1(40, 10, true);
    power::NocEnergyModel energy;

    header("(a) NoC power and energy (all apps, normalized to baseline)");
    double st = 0, dy = 0, tot = 0, en = 0, ppw = 0, ppe = 0, rtt = 0;
    double rtt_sens = 0;
    int n = 0, n_sens = 0;
    for (const auto &app : h.apps()) {
        const auto &base_rm = h.baseline(app);
        const auto &rm = h.run(boost, app);
        const auto base_e =
            energy.evaluate(core::baselineDesign(), h.sys(), base_rm);
        const auto e = energy.evaluate(boost, h.sys(), rm);
        st += e.staticPowerW / base_e.staticPowerW;
        dy += base_e.dynamicPowerW > 0
                  ? e.dynamicPowerW / base_e.dynamicPowerW
                  : 1.0;
        tot += e.totalPowerW / base_e.totalPowerW;
        // Same work in fewer seconds: energy scales with 1/speedup.
        const double speedup = rm.ipc / base_rm.ipc;
        const double e_norm =
            (e.totalPowerW / base_e.totalPowerW) / speedup;
        en += e_norm;
        ppw += speedup / (e.totalPowerW / base_e.totalPowerW);
        ppe += speedup / e_norm;
        rtt += rm.avgReadLatency / base_rm.avgReadLatency;
        if (app.replicationSensitive) {
            rtt_sens += rm.avgReadLatency / base_rm.avgReadLatency;
            ++n_sens;
        }
        ++n;
    }
    columns("", {"static", "dynamic", "total", "energy"});
    row("Sh40+C10+Bst",
        {st / n, dy / n, tot / n, en / n}, "%8.2f");
    std::printf("paper: static 0.84, dynamic 1.20, total 0.98, energy "
                "0.65 (35%% savings)\n");
    std::printf("performance-per-watt %.2fx (paper 1.295x), energy "
                "efficiency %.2fx (paper 1.95x)\n", ppw / n, ppe / n);

    header("(b) L1-level area accounting");
    power::CacheAreaModel cam;
    const auto base_a = cam.l1Breakdown(core::baselineDesign(), h.sys());
    const auto dc_a = cam.l1Breakdown(boost, h.sys());
    std::printf("baseline: %u banks, cache area %.0f KB-equiv\n",
                base_a.banks, base_a.cacheArea / 1024);
    std::printf("DC-L1:    %u banks (50%% fewer ports), cache area "
                "%.0f KB-equiv (%.1f%% saved), queues %.0f KB "
                "(+%.2f%% of baseline L1)\n",
                dc_a.banks, dc_a.cacheArea / 1024,
                100.0 * (1.0 - dc_a.cacheArea / base_a.cacheArea),
                dc_a.queueArea / 1024,
                100.0 * dc_a.queueArea / (80.0 * 16 * 1024));
    power::XbarModel xm;
    const double noc_sv =
        1.0 - xm.cost(core::crossbarInventory(boost, h.sys())).areaMm2 /
                  xm.cost(core::crossbarInventory(core::baselineDesign(),
                                                  h.sys()))
                      .areaMm2;
    std::printf("NoC area saved: %.0f%% (paper 50%%)\n", 100 * noc_sv);

    header("latency analysis (Sec. VIII)");
    std::printf("avg read RTT, Sh40+C10+Boost vs baseline: %.2fx over "
                "all apps, %.2fx over the replication-sensitive apps "
                "(paper: 0.47x, a 53%% reduction)\n",
                rtt / n, n_sens ? rtt_sens / n_sens : 0.0);

    // Decoupling overhead measured on a hit-dominated low-load app.
    const auto &cnn = workload::appByName("C-NN");
    const double base_lat = h.baseline(cnn).avgReadLatency;
    const double dc_lat = h.run(boost, cnn).avgReadLatency;
    std::printf("core<->DC-L1 latency overhead (hit-dominated C-NN): "
                "+%.0f cycles (paper: +54 cycles on average)\n",
                dc_lat - base_lat);
}

} // anonymous namespace

const Figure fig18_energy_area = {"fig18_energy_area", declare, render};

} // namespace dcl1::bench
