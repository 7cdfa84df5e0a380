/**
 * @file
 * Ablations of dcl1sim design choices the paper fixes by fiat:
 *  (1) reply sizing — Sec. III sends cores only the requested bytes;
 *      +FullLine sends whole 128 B lines over NoC#1;
 *  (2) DC-L1 node queue depth — the paper's four 128 B entries
 *      vs. shallower/deeper queues;
 *  (3) NoC flit width — Table II's 32 B flits vs. 16 B and 64 B;
 *  (4) L1 replacement policy — LRU (modelled) vs. FIFO and Random.
 */

#include <cstdio>
#include <map>

#include "bench/bench_common.hh"
#include "common/log.hh"

namespace dcl1::bench
{

namespace
{

const char *const kPolicyNames[] = {"LRU", "FIFO", "Random"};

/**
 * One setting of sections (2)-(6), run on T-AlexNet and @c app. These
 * edit SystemConfig fields that sys.summary() does not capture, so
 * their cells carry the setting's tag as key_suffix.
 */
struct Variant
{
    core::SystemConfig sys;
    const char *app;
};

/** Tag -> setting. */
const std::map<std::string, Variant> &
variants()
{
    static const std::map<std::string, Variant> all = [] {
        std::map<std::string, Variant> v;
        for (std::uint32_t depth : {2u, 4u, 8u, 16u}) {
            core::SystemConfig sys;
            sys.nodeQueueCap = depth;
            v[csprintf("q%u", depth)] = {sys, "C-BFS"};
        }
        for (std::uint32_t flit : {16u, 32u, 64u}) {
            core::SystemConfig sys;
            sys.flitBytes = flit;
            v[csprintf("flit%u", flit)] = {sys, "P-2DCONV"};
        }
        const mem::ReplPolicy policies[] = {mem::ReplPolicy::Lru,
                                            mem::ReplPolicy::Fifo,
                                            mem::ReplPolicy::Random};
        for (int i = 0; i < 3; ++i) {
            core::SystemConfig sys;
            sys.l1Repl = policies[i];
            v[csprintf("repl-%s", kPolicyNames[i])] = {sys, "C-BFS"};
        }
        core::SystemConfig gto, wb;
        gto.warpScheduler = gpucore::WarpSched::GreedyThenOldest;
        wb.l1WritePolicy = mem::WritePolicy::WriteBack;
        v["sched-lrr"] = {core::SystemConfig{}, "C-BFS"};
        v["sched-gto"] = {gto, "C-BFS"};
        v["wp-we"] = {core::SystemConfig{}, "C-BFS"};
        v["wp-wb"] = {wb, "C-BFS"};
        return v;
    }();
    return all;
}

void
declare(Harness &h)
{
    const auto boost = core::clusteredDcl1(40, 10, true);
    h.declare({boost, core::withFullLineReplies(boost)},
              {workload::appByName("T-AlexNet"),
               workload::appByName("C-BFS"),
               workload::appByName("P-2DCONV")});
    for (const auto &[tag, v] : variants()) {
        h.declare(v.sys, boost, workload::appByName("T-AlexNet"), tag);
        h.declare(v.sys, boost, workload::appByName(v.app), tag);
    }
}

void
render(Harness &h)
{
    h.title("Design ablations",
            "Reply sizing, node queue depth, flit width, replacement "
            "policy");
    const auto &alexnet = workload::appByName("T-AlexNet");
    const auto &bfs = workload::appByName("C-BFS");
    const auto &conv = workload::appByName("P-2DCONV");
    const auto boost = core::clusteredDcl1(40, 10, true);

    auto ipcAt = [&](const std::string &tag,
                     const workload::AppInfo &app) {
        return h.run(variants().at(tag).sys, boost, app, tag).ipc;
    };

    header("(1) reply sizing on NoC#1 (Sec. III claim)");
    columns("app", {"sector", "fullline"});
    for (const auto *app : {&alexnet, &bfs, &conv}) {
        const double base = h.baseline(*app).ipc;
        row(app->params.name,
            {h.run(boost, *app).ipc / base,
             h.run(core::withFullLineReplies(boost), *app).ipc / base},
            "%9.2f");
    }
    std::printf("paper: full-line replies would waste NoC#1 bandwidth; "
                "expect the fullline column to trail\n");

    header("(2) DC-L1 node queue depth (paper: 4 entries)");
    columns("depth", {"AlexNet", "C-BFS"});
    for (std::uint32_t depth : {2u, 4u, 8u, 16u})
        row(csprintf("%u", depth),
            {ipcAt(csprintf("q%u", depth), alexnet),
             ipcAt(csprintf("q%u", depth), bfs)},
            "%9.2f");
    std::printf("(absolute IPC; deeper queues buy little once the "
                "crossbars, not the queues, limit flow)\n");

    header("(3) NoC flit width (Table II: 32 B)");
    columns("flit", {"AlexNet", "P-2DCONV"});
    for (std::uint32_t flit : {16u, 32u, 64u})
        row(csprintf("%uB", flit),
            {ipcAt(csprintf("flit%u", flit), alexnet),
             ipcAt(csprintf("flit%u", flit), conv)},
            "%9.2f");
    std::printf("(bandwidth-bound apps track the flit width; "
                "latency-bound apps barely move)\n");

    header("(4) L1/DC-L1 replacement policy (modelled: LRU)");
    columns("policy", {"AlexNet", "C-BFS"});
    for (int i = 0; i < 3; ++i)
        row(kPolicyNames[i],
            {ipcAt(csprintf("repl-%s", kPolicyNames[i]), alexnet),
             ipcAt(csprintf("repl-%s", kPolicyNames[i]), bfs)},
            "%9.2f");
    std::printf("(uniform reuse makes the policies nearly equivalent; "
                "the DC-L1 conclusions do not hinge on LRU)\n");

    header("(5) warp scheduler (GPGPU-Sim lrr vs gto)");
    columns("sched", {"AlexNet", "C-BFS"});
    row("lrr", {ipcAt("sched-lrr", alexnet), ipcAt("sched-lrr", bfs)},
        "%9.2f");
    row("gto", {ipcAt("sched-gto", alexnet), ipcAt("sched-gto", bfs)},
        "%9.2f");
    std::printf("(latency-tolerant throughput workloads are largely "
                "scheduler-insensitive at this abstraction)\n");

    header("(6) L1 write policy (paper: write-evict; write-back is a "
           "timing-only ablation, no coherence modelled)");
    columns("policy", {"AlexNet", "C-BFS"});
    row("write-evict",
        {ipcAt("wp-we", alexnet), ipcAt("wp-we", bfs)}, "%9.2f");
    row("write-back",
        {ipcAt("wp-wb", alexnet), ipcAt("wp-wb", bfs)}, "%9.2f");
    std::printf("(write-back removes write-through traffic from NoC#2 "
                "but would need a coherence protocol in a real GPU)\n");
}

} // anonymous namespace

const Figure ablate_design = {"ablate_design", declare, render};

} // namespace dcl1::bench
