/**
 * @file
 * Component micro-benchmarks (google-benchmark): raw simulation speed
 * of the cache bank, crossbar, DRAM channel, and the full system tick.
 * These measure the simulator itself, not the modelled GPU.
 */

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "core/gpu_system.hh"
#include "mem/cache_bank.hh"
#include "mem/dram.hh"
#include "noc/crossbar.hh"
#include "workload/app_catalog.hh"

using namespace dcl1;

namespace
{

void
BM_CacheBankAccess(benchmark::State &state)
{
    mem::CacheBankParams p;
    p.sizeBytes = 16 * 1024;
    mem::CacheBank bank(p);
    Rng rng(1);
    Cycle now = 0;
    for (auto _ : state) {
        ++now;
        if (!bank.canAccept(now))
            continue;
        auto r = mem::makeRequest(mem::MemOp::Read,
                                  rng.below(256) * 128, 32, 0, 0, now);
        if (bank.access(r, now) == mem::AccessOutcome::Miss) {
            auto f = bank.takeDownstream();
            if (f) {
                (*f)->isReply = true;
                bank.fill(std::move(*f), now);
            }
        }
        while (bank.takeCompleted(now)) {
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheBankAccess);

/** One NoC tick of an inputs x outputs crossbar under 10 % uniform
 *  single-flit load; Args are {inputs, outputs}. */
void
BM_CrossbarTick(benchmark::State &state)
{
    const auto ins = std::uint32_t(state.range(0));
    const auto outs = std::uint32_t(state.range(1));
    noc::XbarParams p;
    p.numInputs = ins;
    p.numOutputs = outs;
    p.clockRatio = 1.0;
    noc::Crossbar x(p);
    Rng rng(2);
    for (auto _ : state) {
        for (std::uint32_t in = 0; in < ins; ++in) {
            if (rng.chance(0.1) && x.canInject(in)) {
                noc::Packet pkt;
                pkt.src = in;
                pkt.dst = std::uint32_t(rng.below(outs));
                pkt.flits = 1;
                x.inject(std::move(pkt));
            }
        }
        x.tick();
        for (std::uint32_t out = 0; out < outs; ++out)
            while (auto pkt = x.eject(out))
                benchmark::DoNotOptimize(pkt);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CrossbarTick)
    ->ArgNames({"in", "out"})
    ->Args({80, 32})
    ->Args({80, 40})
    ->Args({40, 80})
    ->Args({8, 4});

void
BM_DramChannel(benchmark::State &state)
{
    mem::DramParams p;
    mem::DramChannel ch(p);
    Rng rng(3);
    Cycle now = 0;
    for (auto _ : state) {
        ++now;
        if (ch.canAccept()) {
            auto r = mem::makeRequest(mem::MemOp::Read,
                                      rng.below(1 << 20) * 128, 32, 0,
                                      0, now);
            r->fetchDepth = 1;
            ch.push(std::move(r), now);
        }
        ch.tick(now);
        while (ch.takeCompleted(now)) {
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramChannel);

void
BM_SystemTick(benchmark::State &state)
{
    const bool dcl1 = state.range(0) != 0;
    core::SystemConfig sys;
    const auto design = dcl1 ? core::clusteredDcl1(40, 10, true)
                             : core::baselineDesign();
    core::GpuSystem gpu(sys, design,
                        workload::appByName("T-AlexNet").params);
    gpu.run(0, 2000); // warm
    for (auto _ : state)
        gpu.tickOnce();
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(design.name);
}
BENCHMARK(BM_SystemTick)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

} // anonymous namespace

BENCHMARK_MAIN();
