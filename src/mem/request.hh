/**
 * @file
 * The memory transaction object threaded through the whole hierarchy.
 *
 * A MemRequest is created by a GPU core's coalescer, travels through the
 * (DC-)L1, the NoCs, the L2 and possibly DRAM, and is turned around in
 * place as a reply. Ownership is a unique_ptr moved from queue to queue;
 * MSHR merging stores secondary requests inside the MSHR entry.
 * Custody goes through three calls at the bottom of this file, which
 * feed both the request ledger and latency attribution: create() where
 * a request is born, handoff() where a component takes it over,
 * retire() where it is consumed (see stats::Custody).
 */

#ifndef DCL1_MEM_REQUEST_HH
#define DCL1_MEM_REQUEST_HH

#include <cstdint>
#include <memory>

#include "check/check.hh"
#include "check/request_ledger.hh"
#include "common/types.hh"
#include "prof/prof.hh"
#include "stats/latency_attr.hh"

namespace dcl1::mem
{

/** Kind of memory operation. */
enum class MemOp : std::uint8_t
{
    Read,   ///< global-load line fetch (uses L1/DC-L1)
    Write,  ///< global-store (write-evict / no-write-allocate at L1)
    Atomic, ///< atomic op; skips L1/DC-L1, resolved at L2/MC
    Bypass, ///< non-L1 traffic (I-cache/texture/constant miss); skips DC-L1$
};

/** Debug: when true, destroying a request that is still a registered
 *  MSHR fetch aborts (it would leak the MSHR entry forever).
 *  Thread-local: GpuSystem::run arms it for its own cycle loop only,
 *  and concurrent simulations on other threads must not observe it. */
extern thread_local bool gFetchLeakCheck;

/** A single memory transaction. */
struct MemRequest
{
    ~MemRequest();

    MemOp op = MemOp::Read;
    bool isReply = false;

    /** Byte address of the access (line aligned for fetches). */
    Addr addr = 0;

    /** Bytes the requester actually needs (<= line size). */
    std::uint32_t bytes = 32;

    /**
     * Bytes moved on the current leg of the journey. Requests toward
     * memory carry this many payload bytes (write data; 0 for read
     * requests); replies carry the returned data. Used to compute NoC
     * flit counts.
     */
    std::uint32_t payloadBytes = 0;

    /** Issuing core and wavefront. */
    CoreId core = invalidId;
    WarpId warp = invalidId;

    /** Home DC-L1 node (set by the cache organization). */
    NodeId homeNode = invalidId;

    /** Target L2 slice (set by the address map). */
    SliceId slice = invalidId;

    /** Core cycle at which the coalescer created the request. */
    Cycle createdAt = 0;

    /** Core cycle at which the (DC-)L1 began serving the request. */
    Cycle l1ServiceAt = 0;

    /**
     * Number of cache levels that currently treat this request as
     * their MSHR primary line fetch. An L1 miss makes it an L1 fetch
     * (depth 1); missing again at the L2 makes it an L2 fetch too
     * (depth 2). Each level's fill() decrements it, so payload sizing
     * and fill routing can tell whose fetch a reply still is.
     */
    std::uint8_t fetchDepth = 0;

    /** check::RequestLedger sequence number; 0 = untracked. */
    std::uint64_t chkSeq = 0;

    /** Latency-attribution state; dormant unless sampled. */
    stats::ReqTelemetry tlm;

    bool isFetch() const { return fetchDepth > 0; }

    bool isRead() const { return op == MemOp::Read; }
    bool isWrite() const { return op == MemOp::Write; }
    bool isAtomic() const { return op == MemOp::Atomic; }
    bool isBypass() const { return op == MemOp::Bypass; }

    /** Does this request look up the (DC-)L1 data cache? */
    bool usesL1() const { return op == MemOp::Read || op == MemOp::Write; }

    /** Line address for a given line size. */
    LineAddr
    line(std::uint32_t line_bytes = defaultLineBytes) const
    {
        return addr / line_bytes;
    }
};

using MemRequestPtr = std::unique_ptr<MemRequest>;

/** Convenience factory. */
inline MemRequestPtr
makeRequest(MemOp op, Addr addr, std::uint32_t bytes, CoreId core,
            WarpId warp, Cycle now)
{
    DCL1_PROF_COUNT(MemReqAlloc, 1);
    auto r = std::make_unique<MemRequest>();
    r->op = op;
    r->addr = addr;
    r->bytes = bytes;
    r->payloadBytes = (op == MemOp::Write) ? bytes : 0;
    r->core = core;
    r->warp = warp;
    r->createdAt = now;
    return r;
}

/**
 * Register @p req, born at @p now in custody @p at (Issue at a core,
 * the owning level for a writeback). With @p attr, a read-class
 * request may be sampled for attribution.
 */
inline void
create(MemRequest &req, [[maybe_unused]] stats::Custody at, Cycle now,
       stats::LatencyAttribution *attr = nullptr)
{
    DCL1_CHECK_ONLY(check::ledger().onCreate(req, now, at));
    if (attr && !req.isWrite())
        attr->onCreate(req.tlm, now);
}

/** A ledger-only move: an MSHR merging @p req, or its cache taking it
 *  back. Merged time stays billed to the cache's segment. */
inline void
handoff([[maybe_unused]] MemRequest &req,
        [[maybe_unused]] stats::Custody to)
{
    DCL1_CHECK_ONLY(check::ledger().onTransition(req, to));
}

/** Hand @p req to custody @p to, an attribution segment, at @p now. */
inline void
handoff(MemRequest &req, stats::Custody to, Cycle now)
{
    DCL1_ASSERT(static_cast<std::size_t>(to) < stats::kNumSegs,
                "handoff: %s is no segment", stats::custodyName(to));
    handoff(req, to);
    stats::detail::enter(req.tlm, to, now);
}

/** Consume @p req at @p now; @p attr deposits a sampled read. */
inline void
retire(MemRequest &req, Cycle now, stats::LatencyAttribution *attr = nullptr)
{
    DCL1_CHECK_ONLY(check::ledger().onRetire(req));
    if (attr)
        attr->onRetire(req.tlm, now);
}

} // namespace dcl1::mem

#endif // DCL1_MEM_REQUEST_HH
