/**
 * @file
 * End-to-end request lifecycle auditing.
 *
 * Every MemRequest a core's coalescer injects (and every writeback a
 * cache creates) is registered with the per-thread RequestLedger and
 * then audited as it moves along the custody chain
 * (stats::Custody, stats/latency_attr.hh). The ledger reads both
 * networks as one stage and every cache level as one stage:
 *
 *     Issue --> NocReq|NocReply <--> Cache|L2 <--> Mshr
 *                    |                  |
 *                    |                  v
 *                    |                Dram
 *                    v                  |
 *                 Retired <-------------+
 *
 * Its only event source is the custody calls in mem/request.hh:
 * mem::create, mem::handoff and mem::retire. The ledger panics on any
 * move the state machine does not allow (double retire, use after
 * retire, re-merge of an already merged request, a reply teleporting
 * from DRAM straight to a core, ...). Destroying a live (un-retired)
 * request while strict-destroy is armed — i.e. during the simulated
 * cycle loop — is a request leak and also panics. After a successful
 * GpuSystem::drain() the audit() entry point verifies that nothing is
 * left in flight anywhere in the machine.
 *
 * Requests with seq 0 (never registered, e.g. unit tests poking a
 * single component) are ignored, so component tests need no setup.
 * All of this compiles away when DCL1_CHECK is off.
 */

#ifndef DCL1_CHECK_REQUEST_LEDGER_HH
#define DCL1_CHECK_REQUEST_LEDGER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "check/check.hh"
#include "common/types.hh"
#include "stats/latency_attr.hh"

namespace dcl1::mem
{
struct MemRequest;
// The custody calls, defined in mem/request.hh.
inline void create(MemRequest &req, stats::Custody at, Cycle now,
                   stats::LatencyAttribution *attr);
inline void handoff(MemRequest &req, stats::Custody to);
inline void retire(MemRequest &req, Cycle now,
                   stats::LatencyAttribution *attr);
} // namespace dcl1::mem

namespace dcl1::check
{

using stats::Custody;

/** See file comment. */
class RequestLedger
{
  public:
    /**
     * The calling thread's ledger. One instance per thread (a
     * simulation lives entirely on the thread that built it), so
     * concurrent jobs of the execution engine audit independently.
     */
    static RequestLedger &instance();

    /**
     * When armed, destroying a non-retired tracked request panics.
     * GpuSystem::run arms this for the duration of the cycle loop;
     * teardown of a half-finished simulation is legitimate.
     */
    void setStrictDestroy(bool on) { strictDestroy_ = on; }
    bool strictDestroy() const { return strictDestroy_; }

    /** Called from ~MemRequest; leak detection (see setStrictDestroy). */
    void onDestroy(const mem::MemRequest &req);

    /** Number of registered, not-yet-retired requests. */
    std::size_t liveCount() const;

    /**
     * Panic unless zero requests are live (end-of-drain conservation
     * check). @p where names the call site for the message.
     */
    void audit(const char *where) const;

    /** Drop all tracked state (new simulation session). */
    void clear();

    /// @name Counters (never reset by clear())
    /// @{
    std::uint64_t registered() const { return registered_; }
    std::uint64_t retired() const { return entered(Custody::Retired); }
    /** Times any request entered custody @p c (create, move, retire). */
    std::uint64_t
    entered(Custody c) const
    {
        return entered_[static_cast<std::size_t>(c)];
    }
    /// @}

    /** Events kept in the forensic ring (see recentEventsJson). */
    static constexpr std::size_t kEventRing = 32;

    /**
     * The last kEventRing lifecycle events (create / transition /
     * retire) as a JSON array, oldest first. Crash records embed this
     * so a post-mortem shows what the machine was doing right before
     * it died. Cheap to maintain (fixed ring, no allocation per
     * event); building the JSON allocates and is for failure paths
     * only.
     */
    std::string recentEventsJson() const;

  private:
    friend void mem::create(mem::MemRequest &, stats::Custody, Cycle,
                            stats::LatencyAttribution *);
    friend void mem::handoff(mem::MemRequest &, stats::Custody);
    friend void mem::retire(mem::MemRequest &, Cycle,
                            stats::LatencyAttribution *);

    /**
     * Register @p req in custody @p at (Issue for core requests, the
     * owning level for writebacks born inside a cache), assigning its
     * ledger sequence number.
     */
    void onCreate(mem::MemRequest &req, Cycle now, Custody at);

    /** Record that @p req moved to @p to; panics on illegal moves. */
    void onTransition(const mem::MemRequest &req, Custody to);

    /** Terminal consumption of @p req; panics on double retire. */
    void onRetire(const mem::MemRequest &req);

    struct Entry
    {
        Custody custody = Custody::Issue;
        Cycle createdAt = 0;
    };

    /** One ring slot: a lifecycle event for the crash-forensics tail. */
    struct Event
    {
        std::uint64_t seq = 0;
        std::uint64_t addr = 0;
        Custody from = Custody::Issue;
        Custody to = Custody::Issue;
        std::uint8_t kind = 0; ///< 0 create, 1 transition, 2 retire
    };

    void record(std::uint8_t kind, std::uint64_t seq, std::uint64_t addr,
                Custody from, Custody to);

    bool strictDestroy_ = false;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t registered_ = 0;
    std::array<std::uint64_t, stats::kNumCustody> entered_{};
    // Keyed lookups only; never iterated on a ticked path.
    std::unordered_map<std::uint64_t, Entry> entries_;
    std::array<Event, kEventRing> events_{};
    std::uint64_t eventCount_ = 0;
};

/** Shorthand for RequestLedger::instance(). */
inline RequestLedger &
ledger()
{
    return RequestLedger::instance();
}

} // namespace dcl1::check

#endif // DCL1_CHECK_REQUEST_LEDGER_HH
