/**
 * @file
 * Tests for the invariant-checking subsystem: fault injection proving
 * that each invariant class actually fires, plus the same-seed
 * determinism regression across the paper's main design points.
 */

#include <gtest/gtest.h>

#include <array>
#include <ostream>

#include "check/check.hh"
#include "exec/determinism.hh"
#include "check/request_ledger.hh"
#include "core/design.hh"
#include "core/gpu_system.hh"
#include "mem/cache_bank.hh"
#include "mem/queues.hh"
#include "mem/request.hh"

namespace dcl1::core
{

/**
 * Print a design by its name in test listings. Without this, gtest
 * dumps the raw bytes of the struct, which include heap addresses, so
 * the listed test names would change from one process to the next.
 */
void
PrintTo(const DesignConfig &d, std::ostream *os)
{
    *os << '"' << d.name << '"';
}

} // namespace dcl1::core

namespace
{

using namespace dcl1;
using namespace dcl1::core;

using stats::Custody;

/** Resets shared ledger state so tests cannot pollute each other. */
class LedgerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!check::checksCompiledIn)
            GTEST_SKIP() << "built with DCL1_CHECK=OFF";
        check::ledger().setStrictDestroy(false);
        check::ledger().clear();
    }

    void
    TearDown() override
    {
        check::ledger().setStrictDestroy(false);
        check::ledger().clear();
    }

    mem::MemRequestPtr
    tracked(Addr addr = 0x1000)
    {
        auto req = mem::makeRequest(mem::MemOp::Read, addr, 4, 0, 0, 0);
        mem::create(*req, Custody::Issue, 0);
        return req;
    }
};

using LedgerDeathTest = LedgerTest;
using mem::handoff;

TEST_F(LedgerTest, HappyPathLifecycle)
{
    auto req = tracked();
    EXPECT_NE(req->chkSeq, 0u);
    EXPECT_EQ(check::ledger().liveCount(), 1u);

    handoff(*req, Custody::NocReq);
    handoff(*req, Custody::L2);
    handoff(*req, Custody::Dram);
    handoff(*req, Custody::L2);
    handoff(*req, Custody::NocReply);
    mem::retire(*req, 0);

    EXPECT_EQ(check::ledger().liveCount(), 0u);
    check::ledger().audit("happy-path"); // must not panic
    req.reset();                         // retired: destroy is legal
}

TEST_F(LedgerTest, EventRingRecordsLifecycleForCrashForensics)
{
    auto req = tracked(0x1f80);
    handoff(*req, Custody::NocReq);
    mem::retire(*req, 0);

    const std::string json = check::ledger().recentEventsJson();
    EXPECT_NE(json.find("\"ev\":\"create\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"ev\":\"transition\""), std::string::npos);
    EXPECT_NE(json.find("\"ev\":\"retire\""), std::string::npos);
    EXPECT_NE(json.find("\"from\":\"issue\",\"to\":\"noc-req\""),
              std::string::npos);
    EXPECT_NE(json.find("\"to\":\"retired\""), std::string::npos);
    EXPECT_NE(json.find("\"addr\":\"0x1f80\""), std::string::npos);
    req.reset();

    // The ring keeps only the most recent kEventRing events: after
    // many more lifecycles the early request's events are gone.
    for (int i = 0; i < 40; ++i) {
        auto r2 = tracked(0x4000 + Addr(i) * 0x80);
        handoff(*r2, Custody::NocReq);
        mem::retire(*r2, 0);
        r2.reset();
    }
    const std::string later = check::ledger().recentEventsJson();
    EXPECT_EQ(later.find("\"addr\":\"0x1f80\""), std::string::npos);

    // clear() resets the forensic tail along with the session state.
    check::ledger().clear();
    EXPECT_EQ(check::ledger().recentEventsJson(), "[]");
}

TEST_F(LedgerTest, UntrackedRequestsAreIgnored)
{
    auto req = mem::makeRequest(mem::MemOp::Read, 0x2000, 4, 0, 0, 0);
    ASSERT_EQ(req->chkSeq, 0u);
    handoff(*req, Custody::Dram);
    mem::retire(*req, 0);
    EXPECT_EQ(check::ledger().liveCount(), 0u);
}

TEST_F(LedgerDeathTest, DoubleRegistrationPanics)
{
    auto req = tracked();
    EXPECT_DEATH(mem::create(*req, Custody::Issue, 0), "registered twice");
}

TEST_F(LedgerDeathTest, IllegalTransitionPanics)
{
    // A request cannot teleport from its core straight into DRAM.
    auto req = tracked();
    EXPECT_DEATH(handoff(*req, Custody::Dram),
                 "illegal transition issue -> dram");
}

TEST_F(LedgerDeathTest, MshrDoubleMergePanics)
{
    // Re-merging an already merged request is the classic MSHR bug.
    auto req = tracked();
    handoff(*req, Custody::Cache);
    handoff(*req, Custody::Mshr);
    EXPECT_DEATH(handoff(*req, Custody::Mshr),
                 "illegal transition mshr -> mshr");
}

TEST_F(LedgerDeathTest, UseAfterRetirePanics)
{
    auto req = tracked();
    handoff(*req, Custody::NocReq);
    mem::retire(*req, 0);
    EXPECT_DEATH(handoff(*req, Custody::Cache),
                 "illegal transition retired -> cache");
}

TEST_F(LedgerDeathTest, DoubleRetirePanics)
{
    auto req = tracked();
    handoff(*req, Custody::NocReq);
    mem::retire(*req, 0);
    EXPECT_DEATH(mem::retire(*req, 0), "double retire");
}

TEST_F(LedgerDeathTest, RetireFromIllegalStagePanics)
{
    // Consuming a request that is still merged inside an MSHR entry
    // would duplicate (or lose) the eventual fill.
    auto req = tracked();
    handoff(*req, Custody::Cache);
    handoff(*req, Custody::Mshr);
    EXPECT_DEATH(mem::retire(*req, 0), "retire from illegal stage mshr");
}

TEST_F(LedgerDeathTest, StrictDestroyCatchesLeaks)
{
    auto req = tracked();
    check::ledger().setStrictDestroy(true);
    EXPECT_DEATH(req.reset(), "leaked");
    check::ledger().setStrictDestroy(false);
}

TEST_F(LedgerDeathTest, AuditReportsLiveRequests)
{
    auto req = tracked();
    handoff(*req, Custody::NocReq);
    EXPECT_DEATH(check::ledger().audit("unit-test"),
                 "1 request\\(s\\) still live");
}

TEST_F(LedgerDeathTest, WritebackIsBornAtItsEvictionCycle)
{
    // A one-set, one-way write-back bank: the second write evicts the
    // first, dirty, line and creates its writeback at that cycle.
    mem::CacheBankParams p;
    p.sizeBytes = 128;
    p.assoc = 1;
    p.lineBytes = 128;
    p.policy = mem::WritePolicy::WriteBack;
    p.custody = Custody::L2;
    mem::CacheBank bank(p);
    constexpr Cycle kEvictAt = 37;
    for (const Cycle now : {Cycle(5), kEvictAt}) {
        auto w = mem::makeRequest(mem::MemOp::Write, now * 0x80, 32, 0,
                                  0, now);
        ASSERT_EQ(bank.access(w, now), mem::AccessOutcome::Hit);
    }
    auto wb = bank.takeDownstream(); // stays live below
    ASSERT_TRUE(wb.has_value());
    EXPECT_EQ((*wb)->createdAt, kEvictAt);
    EXPECT_EQ(check::ledger().liveCount(), 1u);
    EXPECT_DEATH(check::ledger().audit("unit-test"),
                 "stuck in stage l2 since cycle 37");
}

TEST(BoundedQueueDeathTest, OverflowPushPanics)
{
    if (!check::checksCompiledIn)
        GTEST_SKIP() << "built with DCL1_CHECK=OFF";
    mem::BoundedQueue<int> q(1);
    q.push(1);
    EXPECT_DEATH(q.push(2), "push beyond capacity");
}

TEST(BoundedQueueDeathTest, EmptyPopPanics)
{
    if (!check::checksCompiledIn)
        GTEST_SKIP() << "built with DCL1_CHECK=OFF";
    mem::BoundedQueue<int> q(1);
    EXPECT_DEATH(q.pop(), "pop from empty");
}

/**
 * End-to-end meta-check: a full simulation must actually exercise the
 * instrumentation (every handoff site wired, requests registered and
 * retired) and finish with a clean system-wide audit.
 */
class CheckIntegration : public ::testing::TestWithParam<DesignConfig>
{
};

/** Mostly shared data, so cores' misses merge in L1 and L2 MSHRs. */
workload::WorkloadParams
sharingApp()
{
    workload::WorkloadParams p;
    p.name = "sharing-app";
    p.sharedLines = 800;
    p.sharedFrac = 0.9;
    p.coalescedAccesses = 2;
    return p;
}

TEST_P(CheckIntegration, SimulationIsAudited)
{
    if (!check::checksCompiledIn)
        GTEST_SKIP() << "built with DCL1_CHECK=OFF";
    const check::RequestLedger &ledger = check::ledger();
    std::array<std::uint64_t, stats::kNumCustody> before{};
    for (std::size_t i = 0; i < stats::kNumCustody; ++i)
        before[i] = ledger.entered(static_cast<Custody>(i));
    const std::uint64_t reg_before = ledger.registered();

    GpuSystem gpu(SystemConfig(), GetParam(), sharingApp());
    gpu.run(2000, 500);
    EXPECT_GT(ledger.registered(), reg_before);

    gpu.checkInvariants("test");
    EXPECT_TRUE(gpu.drain()); // drain() runs the ledger leak audit

    // Every design walks requests through each custody, MSHR merges
    // included: a dropped handoff site shows up as a zero here.
    for (std::size_t i = 0; i < stats::kNumCustody; ++i) {
        const auto c = static_cast<Custody>(i);
        EXPECT_GT(ledger.entered(c), before[i]) << stats::custodyName(c);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, CheckIntegration,
    ::testing::Values(baselineDesign(), privateDcl1(40), sharedDcl1(40),
                      clusteredDcl1(40, 10, true),
                      cdxbarDesign(false, false)),
    [](const ::testing::TestParamInfo<DesignConfig> &info) {
        std::string name = info.param.name;
        for (char &c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

/** Same-seed determinism across the paper's headline design points. */
class DeterminismTest : public ::testing::TestWithParam<DesignConfig>
{
};

TEST_P(DeterminismTest, SameSeedSameDigest)
{
    const auto r = exec::runTwiceAndCompare(
        SystemConfig(), GetParam(), workload::WorkloadParams(), 2000, 500);
    EXPECT_TRUE(r.ok) << "digest A " << r.digestA << " != digest B "
                      << r.digestB;
}

INSTANTIATE_TEST_SUITE_P(
    Designs, DeterminismTest,
    ::testing::Values(baselineDesign(), privateDcl1(40), sharedDcl1(40),
                      clusteredDcl1(40, 10, true)),
    [](const ::testing::TestParamInfo<DesignConfig> &info) {
        std::string name = info.param.name;
        for (char &c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

} // namespace
