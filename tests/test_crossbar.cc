/** @file Unit and property tests for the iSLIP crossbar. */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "noc/crossbar.hh"

namespace
{

using namespace dcl1;
using namespace dcl1::noc;

Packet
packet(std::uint32_t src, std::uint32_t dst, std::uint32_t flits = 1)
{
    Packet p;
    p.src = src;
    p.dst = dst;
    p.flits = flits;
    return p;
}

XbarParams
params(std::uint32_t in, std::uint32_t out, double ratio = 1.0)
{
    XbarParams p;
    p.name = "x";
    p.numInputs = in;
    p.numOutputs = out;
    p.clockRatio = ratio;
    return p;
}

TEST(Crossbar, DeliversAPacket)
{
    Crossbar x(params(2, 2));
    x.inject(packet(0, 1));
    for (int i = 0; i < 10; ++i)
        x.tick();
    auto p = x.eject(1);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->src, 0u);
    EXPECT_FALSE(x.eject(0).has_value());
    EXPECT_FALSE(x.busy());
}

TEST(Crossbar, FifoOrderWithinVoq)
{
    Crossbar x(params(1, 1));
    for (std::uint32_t i = 0; i < 4; ++i) {
        Packet p = packet(0, 0);
        p.endpoint = i;
        x.inject(std::move(p));
    }
    std::vector<std::uint32_t> order;
    for (int t = 0; t < 30; ++t) {
        x.tick();
        while (auto p = x.eject(0))
            order.push_back(p->endpoint);
    }
    ASSERT_EQ(order.size(), 4u);
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Crossbar, MultiFlitSerialization)
{
    // A 4-flit packet occupies the port 4x longer than a 1-flit one.
    auto deliver_time = [](std::uint32_t flits) {
        Crossbar x(params(1, 1));
        x.inject(packet(0, 0, flits));
        int t = 0;
        while (t < 100) {
            ++t;
            x.tick();
            if (x.eject(0))
                break;
        }
        return t;
    };
    const int t1 = deliver_time(1);
    const int t4 = deliver_time(4);
    EXPECT_EQ(t4 - t1, 3);
}

TEST(Crossbar, ClockRatioSlowsDelivery)
{
    auto deliver_time = [](double ratio) {
        Crossbar x(params(1, 1, ratio));
        x.inject(packet(0, 0, 4));
        int t = 0;
        while (t < 100) {
            ++t;
            x.tick();
            if (x.eject(0))
                break;
        }
        return t;
    };
    // Half-rate NoC takes about twice as long.
    EXPECT_NEAR(deliver_time(0.5), 2 * deliver_time(1.0), 2);
}

TEST(Crossbar, InputBackpressure)
{
    XbarParams p = params(1, 1);
    p.inputQueueCap = 2;
    Crossbar x(p);
    x.inject(packet(0, 0));
    x.inject(packet(0, 0));
    EXPECT_FALSE(x.canInject(0));
    x.tick();
    EXPECT_TRUE(x.canInject(0));
}

TEST(Crossbar, OutputQueueBackpressure)
{
    // Without ejection the output queue fills and transfers stop.
    XbarParams p = params(1, 1);
    p.outputQueueCap = 2;
    Crossbar x(p);
    for (int i = 0; i < 6; ++i)
        if (x.canInject(0))
            x.inject(packet(0, 0));
    for (int t = 0; t < 50; ++t)
        x.tick();
    // Only outputQueueCap packets were delivered.
    EXPECT_EQ(x.packetsDelivered(), 2u);
}

TEST(Crossbar, RejectsBadPorts)
{
    Crossbar x(params(2, 2));
    EXPECT_DEATH(x.inject(packet(2, 0)), "out of range");
    EXPECT_DEATH(x.inject(packet(0, 5)), "out of range");
}

TEST(Crossbar, TracksOutputFlits)
{
    Crossbar x(params(2, 2));
    x.inject(packet(0, 1, 3));
    for (int t = 0; t < 20; ++t) {
        x.tick();
        x.eject(1);
    }
    EXPECT_EQ(x.outputFlits(1), 3u);
    EXPECT_EQ(x.outputFlits(0), 0u);
    EXPECT_GT(x.outputUtilization(1), 0.0);
}

/** Property: no packets are lost or duplicated under random load. */
class XbarConservationTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t, double>>
{
};

TEST_P(XbarConservationTest, PacketsConserved)
{
    const auto [ins, outs, load] = GetParam();
    Crossbar x(params(ins, outs, 0.5));
    Rng rng(ins * 1000 + outs);
    std::uint64_t injected = 0, ejected = 0;
    std::vector<std::uint64_t> per_dst(outs, 0);

    for (int t = 0; t < 4000; ++t) {
        for (std::uint32_t in = 0; in < ins; ++in) {
            if (rng.uniform() < load && x.canInject(in)) {
                Packet p = packet(in, std::uint32_t(rng.below(outs)),
                                  1 + std::uint32_t(rng.below(4)));
                ++per_dst[p.dst];
                x.inject(std::move(p));
                ++injected;
            }
        }
        x.tick();
        for (std::uint32_t out = 0; out < outs; ++out) {
            while (auto p = x.eject(out)) {
                EXPECT_EQ(p->dst, out);
                ++ejected;
            }
        }
    }
    // Drain.
    for (int t = 0; t < 2000 && x.busy(); ++t) {
        x.tick();
        for (std::uint32_t out = 0; out < outs; ++out)
            while (x.eject(out))
                ++ejected;
    }
    EXPECT_EQ(injected, ejected);
    EXPECT_FALSE(x.busy());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, XbarConservationTest,
    ::testing::Values(std::make_tuple(2u, 1u, 0.3),
                      std::make_tuple(8u, 4u, 0.2),
                      std::make_tuple(80u, 32u, 0.05),
                      std::make_tuple(80u, 40u, 0.1),
                      std::make_tuple(10u, 8u, 0.4),
                      std::make_tuple(1u, 1u, 0.9),
                      std::make_tuple(64u, 64u, 0.1),
                      std::make_tuple(65u, 63u, 0.1),
                      std::make_tuple(128u, 128u, 0.05)));

/** One crossbar shape and the digest of its delivery trace. */
struct TraceCase
{
    std::uint32_t ins;
    std::uint32_t outs;
    std::uint64_t digest;
};

void
PrintTo(const TraceCase &c, std::ostream *os)
{
    *os << c.ins << "x" << c.outs;
}

/**
 * Exact behaviour: a digest over every delivery under seeded random
 * multi-flit load. Each ejected packet contributes (tick, output, src,
 * flits, injectedAt, serial), and the six allocator counters close the
 * trace. The load alternates between saturating and light phases, and
 * outputs drain at random so output backpressure engages. The pinned
 * digests fix the allocator's matching, pointer updates, landing
 * order and VOQ order; the shapes straddle both 64-bit mask words.
 */
class XbarTraceDigestTest : public ::testing::TestWithParam<TraceCase>
{
};

std::uint64_t
traceDigest(std::uint32_t ins, std::uint32_t outs)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };

    Crossbar x(params(ins, outs, 1.0));
    Rng rng(ins * 7919 + outs);
    std::uint32_t serial = 0;
    auto eject_all = [&](std::uint64_t t, double p) {
        for (std::uint32_t out = 0; out < outs; ++out) {
            if (!rng.chance(p))
                continue;
            if (auto pkt = x.eject(out)) {
                mix(t);
                mix(out);
                mix(pkt->src);
                mix(pkt->flits);
                mix(pkt->injectedAt);
                mix(pkt->endpoint);
            }
        }
    };

    std::uint64_t t = 0;
    for (; t < 3000; ++t) {
        const double load = (t / 500) % 2 == 0 ? 0.35 : 0.02;
        for (std::uint32_t in = 0; in < ins; ++in) {
            if (rng.chance(load) && x.canInject(in)) {
                Packet p = packet(in, std::uint32_t(rng.below(outs)),
                                  1 + std::uint32_t(rng.below(4)));
                p.endpoint = serial++;
                x.inject(std::move(p));
            }
        }
        x.tick();
        eject_all(t, 0.6);
    }
    for (; x.busy() && t < 20000; ++t) {
        x.tick();
        eject_all(t, 1.0);
    }
    EXPECT_FALSE(x.busy());
    for (std::uint64_t c : {x.dbgOutBusy, x.dbgOutQFull, x.dbgNoRequest,
                            x.dbgNoFreeInput, x.dbgGrants, x.dbgAccepts})
        mix(c);
    return h;
}

TEST_P(XbarTraceDigestTest, MatchesPinnedTrace)
{
    const TraceCase c = GetParam();
    const std::uint64_t got = traceDigest(c.ins, c.outs);
    EXPECT_EQ(got, c.digest)
        << c.ins << "x" << c.outs << " digest 0x" << std::hex << got;
}

std::string
traceCaseName(const ::testing::TestParamInfo<TraceCase> &info)
{
    return std::to_string(info.param.ins) + "x" +
           std::to_string(info.param.outs);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, XbarTraceDigestTest,
    ::testing::Values(TraceCase{1, 1, 0xbf0525058d7360a9ull},
                      TraceCase{2, 1, 0x1cc139c5e49352e8ull},
                      TraceCase{8, 4, 0x6eac5f7c2c727a8aull},
                      TraceCase{63, 65, 0xb8923300fc38cb77ull},
                      TraceCase{64, 64, 0x64d7a3057e243bfbull},
                      TraceCase{65, 63, 0xa97093133ef5a858ull},
                      TraceCase{80, 40, 0x9c5279858604f262ull},
                      TraceCase{40, 80, 0xf4089097c4787d55ull},
                      TraceCase{128, 128, 0x9f4bee7785ae6f84ull}),
    traceCaseName);

/** Property: saturated uniform traffic achieves decent throughput. */
TEST(Crossbar, SaturationThroughput)
{
    Crossbar x(params(16, 16, 1.0));
    Rng rng(5);
    std::uint64_t ejected = 0;
    const int cycles = 5000;
    for (int t = 0; t < cycles; ++t) {
        for (std::uint32_t in = 0; in < 16; ++in)
            while (x.canInject(in))
                x.inject(packet(in, std::uint32_t(rng.below(16))));
        x.tick();
        for (std::uint32_t out = 0; out < 16; ++out)
            while (x.eject(out))
                ++ejected;
    }
    // Single-iteration iSLIP on uniform traffic: >= 60 % of capacity.
    EXPECT_GT(double(ejected) / cycles, 0.6 * 16);
}

/** Property: inputs are served fairly under symmetric load. */
TEST(Crossbar, Fairness)
{
    Crossbar x(params(4, 1, 1.0));
    std::vector<std::uint64_t> served(4, 0);
    for (int t = 0; t < 4000; ++t) {
        for (std::uint32_t in = 0; in < 4; ++in)
            if (x.canInject(in))
                x.inject(packet(in, 0));
        x.tick();
        while (auto p = x.eject(0))
            ++served[p->src];
    }
    const double total = served[0] + served[1] + served[2] + served[3];
    for (int in = 0; in < 4; ++in)
        EXPECT_NEAR(served[in] / total, 0.25, 0.05);
}

} // anonymous namespace
