/**
 * @file
 * Flit-level crossbar switch with virtual output queues and a
 * single-iteration iSLIP allocator.
 *
 * Each input holds one VOQ per output. Every NoC cycle the allocator
 * matches free inputs to free outputs (request/grant/accept with
 * rotating priorities); a matched packet then occupies its input and
 * output ports for `flits` NoC cycles and appears in the output queue
 * after the router pipeline latency. The crossbar runs at a rational
 * ratio of the core clock (0.5 at the platform's 700 MHz; 1.0 when the
 * paper's *Boost* doubles NoC#1 frequency).
 *
 * The allocator works on 128-bit port masks (two 64-bit words; ports
 * are limited to 128). `reqBits_[out]` holds the inputs whose VOQ for
 * `out` is non-empty. Each NoC cycle builds a mask of free inputs
 * once; every free output with room in its output queue grants the
 * first input of `reqBits_[out] & inputFree` at or after its grant
 * pointer (a rotate-and-count-trailing-zeros search) and records the
 * grant in that input's grant mask. The accept phase then visits only
 * the inputs that received a grant, in ascending order, and each
 * accepts the first granting output at or after its accept pointer.
 * This costs O(inputs + outputs) word operations per cycle and yields
 * exactly the matching of a per-port scan.
 *
 * Storage is preallocated and fixed. Each input owns a pool of
 * `inputQueueCap` packet slots; its VOQs are FIFOs threaded through
 * the pool by a `slotNext_` index array (head/tail per VOQ, a free
 * list per input), so the per-input credit check bounds the pool.
 * Each output owns a ring of `outputQueueCap` slots: its delivered
 * packets from the head, then the packets still traversing the switch
 * in grant order. A granted packet moves straight from its VOQ into
 * the ring, and lands by advancing the delivered count once its
 * landing cycle comes. Transfers through one output serialize, so its
 * packets land in grant order, at most one per NoC cycle. The
 * allocator's backpressure check (delivered + in transit < capacity)
 * bounds the ring. Nothing on the tick path allocates, and `busy()`
 * and `pendingPackets()` read one counter.
 */

#ifndef DCL1_NOC_CROSSBAR_HH
#define DCL1_NOC_CROSSBAR_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "noc/packet.hh"
#include "stats/stats.hh"

namespace dcl1::noc
{

/** Static configuration of a crossbar. */
struct XbarParams
{
    std::string name = "xbar";
    std::uint32_t numInputs = 1;
    std::uint32_t numOutputs = 1;
    std::uint32_t inputQueueCap = 16; ///< packets buffered per input
    std::uint32_t outputQueueCap = 4; ///< packets buffered per output
    std::uint32_t routerLatency = 2;  ///< pipeline depth, NoC cycles
    double clockRatio = 0.5;          ///< NoC cycles per core cycle
    /** NoC level, as the power model counts it: 1 = core side (NoC#1,
     *  CDXBar's local stage), 2 = memory side. The switch ignores it. */
    std::uint32_t level = 2;
};

/** See file comment. */
class Crossbar
{
  public:
    explicit Crossbar(const XbarParams &params);

    /** Room for another packet at @p input? */
    bool
    canInject(std::uint32_t input) const
    {
        return inputOcc_[input] < params_.inputQueueCap;
    }

    /** Inject @p pkt (pkt.src/pkt.dst must be set; checked). */
    void inject(Packet pkt);

    /** Pop a delivered packet at @p output, if any. */
    std::optional<Packet>
    eject(std::uint32_t output)
    {
        if (outSize_[output] == 0)
            return std::nullopt;
        return popDelivered(output);
    }

    /** Peek whether @p output has a delivered packet. */
    bool
    hasEjectable(std::uint32_t output) const
    {
        return outSize_[output] != 0;
    }

    /** Advance one *core* cycle (internally ticks on the clock ratio). */
    void tick();

    /** Any buffered or in-flight packets? */
    bool busy() const { return pending_ != 0; }

    const XbarParams &params() const { return params_; }
    Cycle nocCycles() const { return nocCycle_; }

    /// @name Statistics
    /// @{
    stats::StatGroup &statGroup() { return statGroup_; }
    std::uint64_t packetsDelivered() const { return delivered_.value(); }
    std::uint64_t totalFlits() const { return flits_.value(); }
    /** Flits delivered through @p output (for link utilization). */
    std::uint64_t outputFlits(std::uint32_t output) const;
    std::uint32_t inputOccupancy(std::uint32_t input) const
    {
        return inputOcc_[input];
    }
    std::size_t outQueueSize(std::uint32_t output) const
    {
        return outSize_[output];
    }
    /** Utilization of @p output's link: busy NoC cycles / NoC cycles. */
    double outputUtilization(std::uint32_t output) const;
    /** Mean in-network latency in NoC cycles. */
    double avgPacketLatency() const;
    void resetStats();
    /// @}

    /// @name Allocator debug counters (per nocTick sums)
    /// @{
    std::uint64_t dbgOutBusy = 0;
    std::uint64_t dbgOutQFull = 0;
    std::uint64_t dbgNoRequest = 0;
    std::uint64_t dbgNoFreeInput = 0;
    std::uint64_t dbgGrants = 0;
    std::uint64_t dbgAccepts = 0;
    /** Consistency probe: {sum voq sizes, sum inputOcc, nonempty voqs,
     *  set request bits}. */
    std::array<std::uint64_t, 4> dbgVoqState() const;
    /// @}

    /** Packets buffered or in flight anywhere inside the switch. */
    std::size_t pendingPackets() const { return pending_; }

    /**
     * Verify internal bookkeeping (DCL1_CHECK builds): VOQ occupancy
     * vs. per-input credits, request-bit consistency, per-output
     * reservations vs. in-transit packets, output-queue bounds, and
     * packet/flit conservation (everything injected is either
     * delivered or still inside). panic()s on violation.
     */
    void checkInvariants() const;

  private:
    /** A set of ports, one bit each (ports are limited to 128). */
    using PortMask = std::array<std::uint64_t, 2>;
    /** End of a slot chain. */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t(0);

    void nocTick();
    void allocate();
    void startTransfer(std::uint32_t in, std::uint32_t out);
    Packet popDelivered(std::uint32_t output);
    /** Ring slot @p k places after @p output's head. */
    std::size_t
    outSlot(std::uint32_t output, std::uint32_t k) const
    {
        std::uint32_t pos = outHead_[output] + k;
        if (pos >= params_.outputQueueCap)
            pos -= params_.outputQueueCap;
        return std::size_t(output) * params_.outputQueueCap + pos;
    }

    std::size_t voqIndex(std::uint32_t in, std::uint32_t out) const
    {
        return std::size_t(in) * params_.numOutputs + out;
    }

    XbarParams params_;

    /// @name VOQs: per-input slot pools (numInputs * inputQueueCap)
    /// @{
    std::vector<Packet> slots_;
    std::vector<std::uint32_t> slotNext_; ///< next slot in VOQ/free list
    std::vector<std::uint32_t> freeSlot_; ///< free-list head per input
    std::vector<std::uint32_t> voqHead_;  ///< I*O; kNoSlot when empty
    std::vector<std::uint32_t> voqTail_;  ///< I*O; valid when non-empty
    /// @}

    std::vector<std::uint32_t> inputOcc_;       ///< packets per input
    std::vector<PortMask> reqBits_;             ///< inputs, per output
    std::vector<PortMask> grants_;              ///< outputs, per input
    std::vector<std::uint32_t> grantPtr_;       ///< per output (iSLIP)
    std::vector<std::uint32_t> acceptPtr_;      ///< per input (iSLIP)
    std::vector<Cycle> inputFreeAt_;            ///< NoC cycles
    std::vector<Cycle> outputFreeAt_;
    std::vector<std::uint32_t> outReserved_;    ///< in-transit per output

    /// @name Output rings (numOutputs * outputQueueCap slots)
    /// Each ring holds, from its head, outSize_ delivered packets and
    /// then outReserved_ packets still traversing the switch, in grant
    /// order, which is also their landing order.
    /// @{
    std::vector<Packet> outSlots_;
    std::vector<Cycle> outReady_;         ///< landing NoC cycle per slot
    std::vector<std::uint32_t> outHead_;
    std::vector<std::uint32_t> outSize_;  ///< delivered packets
    PortMask inFlight_{0, 0};             ///< outputs with reservations
    /// @}

    /** Packets buffered or in flight (injected, not yet ejected). */
    std::size_t pending_ = 0;

    Cycle nocCycle_ = 0;
    double phase_ = 0.0;

    stats::StatGroup statGroup_;
    stats::Scalar delivered_;
    stats::Scalar flits_;
    stats::Scalar latencySum_;
    std::vector<std::uint64_t> outputFlits_;
    Cycle statStartCycle_ = 0;

    /// @name Conservation counters (DCL1_CHECK; never stat-reset)
    /// @{
    std::uint64_t chkInjectedPkts_ = 0;
    std::uint64_t chkInjectedFlits_ = 0;
    std::uint64_t chkDeliveredPkts_ = 0;
    std::uint64_t chkDeliveredFlits_ = 0;
    std::uint64_t chkEjectedPkts_ = 0;
    /// @}
};

} // namespace dcl1::noc

#endif // DCL1_NOC_CROSSBAR_HH
