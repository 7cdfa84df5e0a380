/**
 * @file
 * The request custody chain and request-latency attribution.
 *
 * Custody names who holds a request (core issue -> NoC request ->
 * cache/MSHR -> L2 -> DRAM -> NoC reply -> retire). The custody calls
 * in mem/request.hh feed it to the request ledger, which audits every
 * move in checked builds, and to attribution here.
 *
 * Attribution splits a sampled read's round trip over the first
 * kNumSegs custody values by accumulating cycles *per segment*: each
 * handoff closes the span spent in the previous segment. Revisits
 * (e.g. the reply passing back through a cache) accumulate into the
 * same segment, so the scheme is topology-agnostic and the segments
 * always sum exactly to retire - issue.
 *
 * Overhead discipline: ReqTelemetry rides inside MemRequest and a
 * handoff's attribution step is a single load-and-branch when the
 * request is unsampled (sampleId == 0), which is also the state of
 * every request when attribution is disabled. Sampling (1-in-N) is
 * driven by a private Rng seeded from the simulation seed — never wall
 * clock — so same-seed runs attribute the same requests.
 */

#ifndef DCL1_STATS_LATENCY_ATTR_HH
#define DCL1_STATS_LATENCY_ATTR_HH

#include <array>
#include <cstdint>
#include <ostream>

#include "common/rng.hh"
#include "common/types.hh"
#include "stats/stats.hh"

namespace dcl1::stats
{

/** Who holds a request (see file comment). */
enum class Custody : std::uint8_t
{
    Issue,    ///< created; core-side queueing before entering the NoC
    NocReq,   ///< request-network traversal
    Cache,    ///< L1 / DC-L1 port, MSHR and node queues
    L2,       ///< L2 slice input queue + bank
    Dram,     ///< DRAM channel queue + service
    NocReply, ///< reply-network traversal back to the core
    Mshr,     ///< merged target in an MSHR entry (billed to its cache)
    Retired,  ///< consumed: reply delivered, write ACKed, WB absorbed
};

/** The first kNumSegs custody values are attribution segments. */
constexpr std::size_t kNumSegs = 6;
constexpr std::size_t kNumCustody = 8;

/** Stable display name ("issue", "noc-req", ..., "retired"). */
const char *custodyName(Custody c);

/**
 * Per-request attribution state, embedded in MemRequest. Sixteen-byte
 * fixed cost per request; dormant (sampleId == 0) unless the request
 * was picked by LatencyAttribution::onCreate.
 */
struct ReqTelemetry
{
    std::uint32_t sampleId = 0; ///< 0 = unsampled (the common case)
    Custody curSeg = Custody::Issue; ///< segment now accumulating
    Cycle lastStamp = 0;        ///< cycle the current segment began
    std::array<std::uint32_t, kNumSegs> segCycles{};
};

namespace detail
{

/** Out-of-line slow path: close the previous segment's span. */
void enterSlow(ReqTelemetry &t, Custody s, Cycle now);

/**
 * Enter segment @p s at cycle @p now; reached only through
 * mem::handoff. The no-telemetry fast path is one branch on a field
 * already in cache next to the request's routing state.
 */
inline void
enter(ReqTelemetry &t, Custody s, Cycle now)
{
    if (t.sampleId != 0)
        enterSlow(t, s, now);
}

} // namespace detail

/**
 * Owns the per-segment latency Distributions and the sampling policy.
 * One instance per GpuSystem; mem::create and mem::retire call
 * onCreate/onRetire, and every mem::handoff in between stamps.
 */
class LatencyAttribution
{
  public:
    /**
     * @param seed deterministic seed (derive from the sim seed)
     * @param sample_every attribute 1 in N read requests (1 = all)
     */
    LatencyAttribution(std::uint64_t seed, std::uint32_t sample_every);

    /** Maybe pick this request for attribution; stamps Issue. */
    void onCreate(ReqTelemetry &t, Cycle now);

    /** Close the final span and deposit the segments. */
    void onRetire(ReqTelemetry &t, Cycle now);

    /** Clear collected distributions (measurement-interval rebase). */
    void reset();

    StatGroup &statGroup() { return group_; }
    const Distribution &segment(Custody s) const
    {
        return segDists_[static_cast<std::size_t>(s)];
    }
    const Distribution &total() const { return totalDist_; }
    std::uint32_t sampleEvery() const { return sampleEvery_; }

    /** Human-readable latency-breakdown table (dcl1run headline). */
    void printBreakdown(std::ostream &os) const;

  private:
    Rng rng_;
    std::uint32_t sampleEvery_;
    std::uint32_t nextId_ = 0;
    std::array<Distribution, kNumSegs> segDists_;
    Distribution totalDist_;
    StatGroup group_;
};

} // namespace dcl1::stats

#endif // DCL1_STATS_LATENCY_ATTR_HH
