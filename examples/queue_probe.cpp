/** @file Scratch probe: dump steady-state queue occupancies. */

#include <cstdio>

#include "core/experiment.hh"
#include "core/gpu_system.hh"
#include "workload/app_catalog.hh"

using namespace dcl1;

int
main(int argc, char **argv)
{
    const std::string app_name = argc > 1 ? argv[1] : "T-AlexNet";
    const std::string design_name = argc > 2 ? argv[2] : "Sh40";
    const workload::AppInfo &app = workload::appByName(app_name);
    core::SystemConfig sys;

    std::vector<core::DesignConfig> designs = {
        core::baselineDesign(),      core::privateDcl1(80),
        core::privateDcl1(40),       core::sharedDcl1(40),
        core::clusteredDcl1(40, 10), core::clusteredDcl1(40, 10, true),
    };
    for (const auto &d : designs) {
        if (d.name != design_name)
            continue;
        core::GpuSystem gpu(sys, d, app.params);
        gpu.run(12000, 0);
        // Aggregate queue occupancy snapshot.
        double lsu = 0, outb = 0, ready = 0, outst = 0;
        for (auto &c : gpu.cores()) {
            lsu += c->lsuSize();
            outb += c->outboundSize();
            ready += c->readyWarpCount();
            outst += c->outstandingReads();
        }
        std::printf("cores: lsu=%.1f outb=%.1f readyW=%.1f outstR=%.1f\n",
                    lsu / 80, outb / 80, ready / 80, outst / 80);
        if (!gpu.nodes().empty()) {
            double q1 = 0, q2 = 0, q3 = 0, q4 = 0, comp = 0, mshr = 0,
                   ds = 0;
            for (auto &n : gpu.nodes()) {
                q1 += n->q1Size();
                q2 += n->q2Size();
                q3 += n->q3Size();
                q4 += n->q4Size();
                comp += n->cache().completedBacklog();
                mshr += n->cache().mshrInUse();
                ds += n->cache().downstreamSize();
            }
            const double nn = double(gpu.nodes().size());
            std::printf("nodes: q1=%.2f q2=%.2f q3=%.2f q4=%.2f "
                        "compBk=%.2f mshr=%.2f ds=%.2f\n",
                        q1 / nn, q2 / nn, q3 / nn, q4 / nn, comp / nn,
                        mshr / nn, ds / nn);
        } else {
            double comp = 0, mshr = 0, ds = 0;
            for (auto &c : gpu.cores()) {
                comp += c->l1()->completedBacklog();
                mshr += c->l1()->mshrInUse();
                ds += c->l1()->downstreamSize();
            }
            std::printf("l1s: compBk=%.2f mshr=%.2f ds=%.2f\n",
                        comp / 80, mshr / 80, ds / 80);
        }
        // NoC#1 request crossbar internals (DC-L1 designs).
        if (!gpu.nodes().empty()) {
            // Access crossbars indirectly via metrics; dump via cores'
            // injection view instead: count how often canInject fails.
        }
        for (auto &x : gpu.noc1ReqXbars()) {
            double occ = 0, outq = 0;
            for (uint32_t i = 0; i < x->params().numInputs; ++i)
                occ += x->inputOccupancy(i);
            for (uint32_t o = 0; o < x->params().numOutputs; ++o)
                outq += x->outQueueSize(o);
            std::printf("noc1req: nocCyc=%llu pkts=%llu occ/in=%.2f "
                        "outq/out=%.2f lat=%.1f thru=%.3f pkt/noccyc\n",
                        (unsigned long long)x->nocCycles(),
                        (unsigned long long)x->packetsDelivered(),
                        occ / x->params().numInputs,
                        outq / x->params().numOutputs,
                        x->avgPacketLatency(),
                        double(x->packetsDelivered()) / x->nocCycles());
            std::printf("  alloc: busy=%llu outqFull=%llu noReq=%llu "
                        "noFreeIn=%llu grants=%llu accepts=%llu\n",
                        (unsigned long long)x->dbgOutBusy,
                        (unsigned long long)x->dbgOutQFull,
                        (unsigned long long)x->dbgNoRequest,
                        (unsigned long long)x->dbgNoFreeInput,
                        (unsigned long long)x->dbgGrants,
                        (unsigned long long)x->dbgAccepts);
            auto st = x->dbgVoqState();
            std::printf("  voq: pkts=%llu occSum=%llu nonemptyVoq=%llu "
                        "bitsSet=%llu\n",
                        (unsigned long long)st[0],
                        (unsigned long long)st[1],
                        (unsigned long long)st[2],
                        (unsigned long long)st[3]);
        }
        if (!gpu.nodes().empty()) {
            std::printf("per-node q1/compBk/mshr/acc: ");
            for (size_t i = 0; i < gpu.nodes().size(); ++i) {
                auto &n = gpu.nodes()[i];
                std::printf("%zu:%zu/%zu/%zu/%llu ", i, n->q1Size(),
                            n->cache().completedBacklog(),
                            n->cache().mshrInUse(),
                            (unsigned long long)n->cache().accesses());
                if (i % 8 == 7)
                    std::printf("\n  ");
            }
            std::printf("\n");
        }
        if (!gpu.nodes().empty()) {
            std::uint64_t bw = 0, bm = 0, br = 0, bt = 0;
            for (auto &n : gpu.nodes()) {
                bw += n->cache().dbgBlockedWriteDs;
                bm += n->cache().dbgBlockedMshrFull;
                br += n->cache().dbgBlockedReadDs;
                bt += n->cache().dbgBlockedTargets;
            }
            std::printf("node blocked reasons: writeDs=%llu mshrFull=%llu "
                        "readDs=%llu targets=%llu\n",
                        (unsigned long long)bw, (unsigned long long)bm,
                        (unsigned long long)br, (unsigned long long)bt);
        }
        auto xdump = [](const char *tag,
                        std::vector<std::unique_ptr<noc::Crossbar>> &xs) {
            for (auto &x : xs) {
                double occ = 0;
                for (uint32_t i = 0; i < x->params().numInputs; ++i)
                    occ += x->inputOccupancy(i);
                std::printf("%s[%s]: thru=%.3f/noccyc lat=%.1f occ/in=%.2f"
                            " outqFull=%llu noReq=%llu\n",
                            tag, x->params().name.c_str(),
                            double(x->packetsDelivered()) /
                                std::max<uint64_t>(1, x->nocCycles()),
                            x->avgPacketLatency(), occ /
                                x->params().numInputs,
                            (unsigned long long)x->dbgOutQFull,
                            (unsigned long long)x->dbgNoRequest);
            }
        };
        std::uint64_t nf = 0, nfill = 0, lf = 0, lfill = 0;
        for (auto &n : gpu.nodes()) {
            nf += n->cache().dbgFetchesSent;
            nfill += n->cache().dbgFillsReceived;
        }
        for (auto &sl : gpu.slices()) {
            lf += sl->bank().dbgFetchesSent;
            lfill += sl->bank().dbgFillsReceived;
        }
        std::printf("node fetches=%llu fills=%llu | l2 fetches=%llu "
                    "fills=%llu\n",
                    (unsigned long long)nf, (unsigned long long)nfill,
                    (unsigned long long)lf, (unsigned long long)lfill);
        {
            std::uint64_t to_mem = 0, from_mem = 0;
            for (auto &x : gpu.noc2ReqXbars())
                to_mem += x->packetsDelivered();
            for (auto &x : gpu.noc2ReplyXbars())
                from_mem += x->packetsDelivered();
            std::printf("noc2 packets delivered: nodeToMem=%llu "
                        "memToNode=%llu\n",
                        (unsigned long long)to_mem,
                        (unsigned long long)from_mem);
        }
        {
            double q = 0, insvc = 0, busy = 0;
            std::uint64_t rh = 0, rmiss = 0;
            for (auto &ch : gpu.channels()) {
                q += ch->queueSize();
                insvc += ch->inServiceSize();
                busy += ch->busyBanks(gpu.cycle());
                rh += ch->rowHits();
                rmiss += ch->rowMisses();
            }
            std::printf("dram: q=%.1f insvc=%.1f busyBanks=%.1f "
                        "rowHit=%llu rowMiss=%llu\n",
                        q / 16, insvc / 16, busy / 16,
                        (unsigned long long)rh,
                        (unsigned long long)rmiss);
        }
        xdump("n1rep", gpu.noc1ReplyXbars());
        xdump("n2req", gpu.noc2ReqXbars());
        xdump("n2rep", gpu.noc2ReplyXbars());
        double sin = 0, srep = 0;
        for (auto &s : gpu.slices()) {
            sin += s->bank().mshrInUse();
            srep += s->bank().completedBacklog();
        }
        std::printf("l2: mshr=%.2f compBk=%.2f\n", sin / 32, srep / 32);
        {
            std::uint64_t bw = 0, bm = 0, br = 0, bt = 0, wb = 0, ds = 0;
            for (auto &sl : gpu.slices()) {
                bw += sl->bank().dbgBlockedWriteDs;
                bm += sl->bank().dbgBlockedMshrFull;
                br += sl->bank().dbgBlockedReadDs;
                bt += sl->bank().dbgBlockedTargets;
                wb += sl->bank().writebacks();
                ds += sl->bank().downstreamSize();
            }
            std::printf("l2 blocked: writeDs=%llu mshrFull=%llu readDs=%llu"
                        " targets=%llu | wbs=%llu dsSize=%llu\n",
                        (unsigned long long)bw, (unsigned long long)bm,
                        (unsigned long long)br, (unsigned long long)bt,
                        (unsigned long long)wb, (unsigned long long)ds);
        }
    }
    return 0;
}
