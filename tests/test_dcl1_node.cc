/** @file Unit tests for the DC-L1 node (Fig. 3 flows). */

#include <gtest/gtest.h>

#include "core/dcl1_node.hh"

namespace
{

using namespace dcl1;
using namespace dcl1::core;
using namespace dcl1::mem;

CacheBankParams
nodeCache()
{
    CacheBankParams p;
    p.sizeBytes = 4 * 1024;
    p.assoc = 4;
    p.latency = 5;
    p.mshrs = 8;
    p.targetsPerMshr = 8;
    return p;
}

MemRequestPtr
read(Addr addr, CoreId core = 0)
{
    return makeRequest(MemOp::Read, addr, 32, core, 0, 0);
}

/** Run the node until a reply appears on Q2 (or deadline). */
MemRequestPtr
runUntilReply(DcL1Node &node, Cycle &now, Cycle deadline)
{
    while (now < deadline) {
        ++now;
        node.tick(now);
        if (auto r = node.takeToCore())
            return std::move(*r);
    }
    return nullptr;
}

TEST(DcL1Node, ReadMissFlowsQ1ToQ3)
{
    DcL1Node node(nodeCache(), 0, 4);
    ASSERT_TRUE(node.canAcceptFromCore());
    node.pushFromCore(read(0x1000), 0);
    Cycle now = 0;
    node.tick(++now);
    node.tick(++now);
    auto fetch = node.takeToMem();
    ASSERT_TRUE(fetch.has_value());
    EXPECT_TRUE((*fetch)->isFetch());
}

TEST(DcL1Node, FillProducesReplyWithRequestedBytesOnly)
{
    DcL1Node node(nodeCache(), 0, 4);
    node.pushFromCore(read(0x1000), 0);
    Cycle now = 0;
    node.tick(++now);
    node.tick(++now);
    auto fetch = node.takeToMem();
    ASSERT_TRUE(fetch.has_value());

    (*fetch)->isReply = true;
    (*fetch)->payloadBytes = 128; // L2 returned the full line
    node.pushFromMem(std::move(*fetch), now);

    auto reply = runUntilReply(node, now, now + 20);
    ASSERT_TRUE(reply);
    EXPECT_TRUE(reply->isReply);
    // Only the requested 32 B cross NoC#1 (paper Sec. III).
    EXPECT_EQ(reply->payloadBytes, 32u);
    EXPECT_TRUE(node.cache().tags().contains(0x1000 / 128));
}

TEST(DcL1Node, HitServedLocally)
{
    DcL1Node node(nodeCache(), 0, 4);
    Cycle now = 0;
    // Warm the line.
    node.pushFromCore(read(0x2000), now);
    node.tick(++now);
    node.tick(++now);
    auto fetch = node.takeToMem();
    (*fetch)->isReply = true;
    (*fetch)->payloadBytes = 128;
    node.pushFromMem(std::move(*fetch), now);
    ASSERT_TRUE(runUntilReply(node, now, now + 20));

    // A second read hits and never reaches Q3.
    node.pushFromCore(read(0x2000, 3), now);
    auto reply = runUntilReply(node, now, now + 20);
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->core, 3u);
    EXPECT_FALSE(node.takeToMem().has_value());
    EXPECT_EQ(node.cache().hits(), 1u);
}

TEST(DcL1Node, BypassSkipsCache)
{
    DcL1Node node(nodeCache(), 0, 4);
    auto r = makeRequest(MemOp::Bypass, 0x9000, 128, 2, 0, 0);
    node.pushFromCore(std::move(r), 0);
    Cycle now = 0;
    node.tick(++now);
    auto out = node.takeToMem();
    ASSERT_TRUE(out.has_value());
    EXPECT_TRUE((*out)->isBypass());
    EXPECT_EQ(node.cache().accesses(), 0u);
    EXPECT_EQ(node.bypassRequests(), 1u);

    // The bypass reply moves Q4 -> Q2 without touching the cache.
    (*out)->isReply = true;
    node.pushFromMem(std::move(*out), now);
    auto reply = runUntilReply(node, now, now + 10);
    ASSERT_TRUE(reply);
    EXPECT_TRUE(reply->isBypass());
    EXPECT_EQ(node.cache().accesses(), 0u);
}

TEST(DcL1Node, AtomicSkipsCache)
{
    DcL1Node node(nodeCache(), 0, 4);
    node.pushFromCore(makeRequest(MemOp::Atomic, 0x100, 32, 1, 0, 0),
                      0);
    Cycle now = 0;
    node.tick(++now);
    auto out = node.takeToMem();
    ASSERT_TRUE(out.has_value());
    EXPECT_TRUE((*out)->isAtomic());
    EXPECT_EQ(node.cache().accesses(), 0u);
}

TEST(DcL1Node, WriteEvictFlow)
{
    DcL1Node node(nodeCache(), 0, 4);
    Cycle now = 0;
    // Warm a line.
    node.pushFromCore(read(0x3000), now);
    node.tick(++now);
    node.tick(++now);
    auto f = node.takeToMem();
    (*f)->isReply = true;
    (*f)->payloadBytes = 128;
    node.pushFromMem(std::move(*f), now);
    runUntilReply(node, now, now + 20);

    // Write hit: evicts the line and forwards the write to Q3.
    node.pushFromCore(makeRequest(MemOp::Write, 0x3000, 32, 0, 0, now),
                      now);
    node.tick(++now);
    node.tick(++now);
    EXPECT_FALSE(node.cache().tags().contains(0x3000 / 128));
    auto w = node.takeToMem();
    ASSERT_TRUE(w.has_value());
    EXPECT_TRUE((*w)->isWrite());

    // The write ACK returns through Q4 to Q2.
    (*w)->isReply = true;
    (*w)->payloadBytes = 0;
    node.pushFromMem(std::move(*w), now);
    auto ack = runUntilReply(node, now, now + 10);
    ASSERT_TRUE(ack);
    EXPECT_TRUE(ack->isWrite());
}

TEST(DcL1Node, CrossCoreMshrMerge)
{
    DcL1Node node(nodeCache(), 0, 4);
    Cycle now = 0;
    node.pushFromCore(read(0x4000, 0), now);
    node.tick(++now);
    node.pushFromCore(read(0x4000, 1), now);
    node.tick(++now);
    node.tick(++now);

    // Exactly one fetch downstream.
    auto f = node.takeToMem();
    ASSERT_TRUE(f.has_value());
    EXPECT_FALSE(node.takeToMem().has_value());

    (*f)->isReply = true;
    (*f)->payloadBytes = 128;
    node.pushFromMem(std::move(*f), now);

    int replies = 0;
    std::set<CoreId> cores;
    while (now < 40) {
        ++now;
        node.tick(now);
        while (auto r = node.takeToCore()) {
            cores.insert((*r)->core);
            ++replies;
        }
    }
    EXPECT_EQ(replies, 2);
    EXPECT_EQ(cores.size(), 2u);
}

TEST(DcL1Node, QueueBackpressure)
{
    DcL1Node node(nodeCache(), 0, 2);
    node.pushFromCore(read(0x0), 0);
    node.pushFromCore(read(0x80), 0);
    EXPECT_FALSE(node.canAcceptFromCore());
    EXPECT_DEATH(node.pushFromCore(read(0x100), 0), "Q1 overflow");
}

TEST(DcL1Node, BusyUntilDrained)
{
    DcL1Node node(nodeCache(), 0, 4);
    EXPECT_FALSE(node.busy());
    node.pushFromCore(read(0x0), 0);
    EXPECT_TRUE(node.busy());
}

} // anonymous namespace
