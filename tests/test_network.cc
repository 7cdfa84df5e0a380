/** @file Tests for the endpoint-addressed single-stage network. */

#include <gtest/gtest.h>

#include "mem/request.hh"
#include "noc/network.hh"

namespace
{

using namespace dcl1;
using namespace dcl1::noc;

/** @p count crossbars of @p in x @p out ports, one clock per cycle. */
XbarNetParams
bank(std::uint32_t count, std::uint32_t in, std::uint32_t out,
     Spread spread)
{
    XbarNetParams p;
    p.xbar.name = "net";
    p.xbar.numInputs = in;
    p.xbar.numOutputs = out;
    p.xbar.clockRatio = 1.0;
    p.count = count;
    p.numbered = true;
    p.inSpread = p.outSpread = spread;
    return p;
}

mem::MemRequestPtr
tagged(std::uint32_t tag)
{
    return mem::makeRequest(mem::MemOp::Read, tag * 128, 32, tag, 0, 0);
}

/** Tick @p net until @p dst ejects something (at most 50 cycles). */
mem::MemRequestPtr
await(Network &net, std::uint32_t dst)
{
    for (int t = 0; t < 50; ++t) {
        net.tick();
        if (auto r = net.eject(dst))
            return std::move(*r);
    }
    return nullptr;
}

TEST(XbarNet, NamesItsCrossbars)
{
    XbarNet numbered(bank(3, 2, 2, Spread::Blocked));
    ASSERT_EQ(numbered.xbars().size(), 3u);
    EXPECT_EQ(numbered.xbars()[2]->params().name, "net2");

    XbarNetParams p = bank(1, 2, 2, Spread::Blocked);
    p.numbered = false;
    XbarNet single(p);
    EXPECT_EQ(single.xbars()[0]->params().name, "net");
}

TEST(XbarNet, BlockedSpreadAddressesClusters)
{
    // Two crossbars of 4 inputs x 2 outputs: source 5 is input 1 of
    // crossbar 1, destination 3 is output 1 of crossbar 1.
    XbarNet net(bank(2, 4, 2, Spread::Blocked));
    ASSERT_TRUE(net.canInject(5));
    net.inject(5, 3, tagged(7));
    EXPECT_TRUE(net.busy());
    mem::MemRequestPtr got = await(net, 3);
    ASSERT_TRUE(got);
    EXPECT_EQ(got->core, 7u);
    EXPECT_EQ(net.xbars()[0]->packetsDelivered(), 0u);
    EXPECT_EQ(net.xbars()[1]->outputFlits(1), 1u);
    EXPECT_FALSE(net.busy());
}

TEST(XbarNet, InterleavedSpreadAddressesPartitions)
{
    // Four crossbars of 2 inputs x 8 outputs: source 6 is input 1 of
    // crossbar 2, destination 10 is output 2 of crossbar 2.
    XbarNet net(bank(4, 2, 8, Spread::Interleaved));
    net.inject(6, 10, tagged(3));
    mem::MemRequestPtr got = await(net, 10);
    ASSERT_TRUE(got);
    EXPECT_EQ(got->core, 3u);
    EXPECT_EQ(net.xbars()[2]->outputFlits(2), 1u);
}

TEST(XbarNet, CountsFlitsFromThePayload)
{
    XbarNetParams p = bank(1, 2, 2, Spread::Blocked);
    p.flitBytes = 32;
    XbarNet net(p);
    auto reply = tagged(1);
    reply->payloadBytes = 128; // a full line: four 32 B flits
    net.inject(0, 1, std::move(reply));
    ASSERT_TRUE(await(net, 1));
    EXPECT_EQ(net.xbars()[0]->totalFlits(), 4u);

    net.resetStats();
    EXPECT_EQ(net.xbars()[0]->totalFlits(), 0u);
}

TEST(XbarNet, BackpressureAtTheSourcePort)
{
    XbarNetParams p = bank(2, 2, 2, Spread::Blocked);
    p.xbar.inputQueueCap = 2;
    XbarNet net(p);
    net.inject(3, 2, tagged(0));
    net.inject(3, 2, tagged(1));
    EXPECT_FALSE(net.canInject(3));
    EXPECT_TRUE(net.canInject(2)); // another port of the same crossbar
    EXPECT_TRUE(net.canInject(0)); // another crossbar
}

TEST(XbarNetDeathTest, UnreachableDestinationPanics)
{
    // Source 0 attaches to crossbar 0, destination 3 to crossbar 1.
    XbarNet net(bank(2, 2, 2, Spread::Blocked));
    EXPECT_DEATH(net.inject(0, 3, tagged(0)), "no path");
}

} // anonymous namespace
